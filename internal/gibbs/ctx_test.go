package gibbs

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/learn"
	"repro/internal/rng"
)

func ctxTestEstimator(t *testing.T) (*Estimator, *dataset.Dataset) {
	t.Helper()
	loss := learn.NewClippedLoss(learn.AbsoluteLoss{}, 1)
	thetas := [][]float64{{0}, {0.5}, {1}}
	e, err := New(loss, thetas, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	d := dataset.New([]dataset.Example{
		{X: []float64{0.1}, Y: 0.1},
		{X: []float64{0.9}, Y: 0.9},
		{X: []float64{0.4}, Y: 0.4},
	})
	return e, d
}

// TestLambdaForEpsilonErrSentinels pins the typed errors behind the
// historical panics: bad arguments wrap ErrBadConfig, an unbounded loss
// wraps ErrUnboundedLoss, and the panicking wrapper re-raises the same
// classified error.
func TestLambdaForEpsilonErrSentinels(t *testing.T) {
	bounded := learn.NewClippedLoss(learn.AbsoluteLoss{}, 1)
	if _, err := LambdaForEpsilonErr(0, bounded, 10); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("ε=0: want ErrBadConfig, got %v", err)
	}
	if _, err := LambdaForEpsilonErr(1, bounded, 0); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("n=0: want ErrBadConfig, got %v", err)
	}
	if _, err := LambdaForEpsilonErr(math.NaN(), bounded, 10); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("ε=NaN: want ErrBadConfig, got %v", err)
	}
	if _, err := LambdaForEpsilonErr(1, learn.AbsoluteLoss{}, 10); !errors.Is(err, ErrUnboundedLoss) {
		t.Fatalf("unbounded loss: want ErrUnboundedLoss, got %v", err)
	}
	lam, err := LambdaForEpsilonErr(2, bounded, 100)
	if err != nil || lam != 100 {
		t.Fatalf("λ = %v, %v; want 100, nil", lam, err)
	}
	defer func() {
		r := recover()
		err, ok := r.(error)
		if !ok || !errors.Is(err, ErrUnboundedLoss) {
			t.Fatalf("panic value %v not classified as ErrUnboundedLoss", r)
		}
	}()
	LambdaForEpsilon(1, learn.AbsoluteLoss{}, 10)
}

// TestEstimatorCtxMatchesPlain pins that the dataset-taking methods
// (LogProbabilities, SampleTheta) are bit-identical to the risk-taking
// ones fed the vector RisksCtx returns under a context that never
// cancels.
func TestEstimatorCtxMatchesPlain(t *testing.T) {
	e, d := ctxTestEstimator(t)
	risks, err := e.RisksCtx(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	post := e.LogProbabilities(d)
	postCtx, err := e.LogPosterior(risks)
	if err != nil {
		t.Fatal(err)
	}
	for i := range post {
		if math.Float64bits(post[i]) != math.Float64bits(postCtx[i]) {
			t.Fatalf("posterior slot %d differs", i)
		}
	}
	th := e.SampleTheta(d, rng.New(7))
	i2, err := e.Sample(risks, rng.New(7))
	if err != nil || th[0] != e.Thetas[i2][0] {
		t.Fatalf("SampleTheta=%v Sample=(%d,%v)", th, i2, err)
	}
}

// TestEstimatorCtxCanceled pins that a canceled context stops the risk
// evaluation with a context error, before any posterior quantity can be
// computed from a partial vector.
func TestEstimatorCtxCanceled(t *testing.T) {
	e, d := ctxTestEstimator(t)
	// Cancellation is checked at chunk boundaries, so even this small
	// grid stops.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.RisksCtx(ctx, d); !errors.Is(err, context.Canceled) {
		t.Fatalf("RisksCtx: want context.Canceled, got %v", err)
	}
	e.Cache = NewRiskCache()
	if _, err := e.RisksCtx(ctx, d); !errors.Is(err, context.Canceled) {
		t.Fatalf("cached RisksCtx: want context.Canceled, got %v", err)
	}
	if e.Cache.Len() != 0 {
		t.Fatalf("a canceled evaluation stored %d vectors", e.Cache.Len())
	}
}

// TestSampleCtxDegeneratePosterior pins the typed sentinel on a
// posterior with no admissible predictor.
func TestSampleCtxDegeneratePosterior(t *testing.T) {
	e, d := ctxTestEstimator(t)
	e.LogPrior = []float64{math.Inf(-1), math.Inf(-1), math.Inf(-1)}
	risks := e.Risks(d)
	if _, err := e.Sample(risks, rng.New(1)); !errors.Is(err, ErrDegeneratePosterior) {
		t.Fatalf("Sample: want ErrDegeneratePosterior, got %v", err)
	}
	if _, err := e.LogPosterior(risks); !errors.Is(err, ErrDegeneratePosterior) {
		t.Fatalf("LogPosterior: want ErrDegeneratePosterior, got %v", err)
	}
	if _, err := e.Stats(risks); !errors.Is(err, ErrDegeneratePosterior) {
		t.Fatalf("Stats: want ErrDegeneratePosterior, got %v", err)
	}
	// The dataset-taking SampleTheta panics with the same typed error.
	func() {
		defer func() {
			r := recover()
			if err, _ := r.(error); !errors.Is(err, ErrDegeneratePosterior) {
				t.Fatalf("SampleTheta: want a panic wrapping ErrDegeneratePosterior, got %v", r)
			}
		}()
		e.SampleTheta(d, rng.New(1))
	}()
}
