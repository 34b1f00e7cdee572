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

// TestEstimatorCtxMatchesPlain pins that the ctx variants are
// bit-identical to the plain methods when the context never cancels.
func TestEstimatorCtxMatchesPlain(t *testing.T) {
	e, d := ctxTestEstimator(t)
	post := e.LogPosterior(d)
	postCtx, err := e.LogPosteriorCtx(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	for i := range post {
		if math.Float64bits(post[i]) != math.Float64bits(postCtx[i]) {
			t.Fatalf("posterior slot %d differs", i)
		}
	}
	i1 := e.Sample(d, rng.New(7))
	i2, err := e.SampleCtx(context.Background(), d, rng.New(7))
	if err != nil || i1 != i2 {
		t.Fatalf("Sample=%d SampleCtx=(%d,%v)", i1, i2, err)
	}
}

// TestEstimatorCtxCanceled pins that a canceled context aborts before
// the draw with a context error, not a corrupt sample.
func TestEstimatorCtxCanceled(t *testing.T) {
	e, d := ctxTestEstimator(t)
	// Large enough that RiskVectorCtx does not collapse to the small-work
	// serial path before the ctx check matters; cancellation is checked
	// at chunk boundaries either way.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.RisksCtx(ctx, d); !errors.Is(err, context.Canceled) {
		t.Fatalf("RisksCtx: want context.Canceled, got %v", err)
	}
	if _, err := e.SampleCtx(ctx, d, rng.New(1)); !errors.Is(err, context.Canceled) {
		t.Fatalf("SampleCtx: want context.Canceled, got %v", err)
	}
}

// TestSampleCtxDegeneratePosterior pins the typed sentinel on a
// posterior with no admissible predictor.
func TestSampleCtxDegeneratePosterior(t *testing.T) {
	e, d := ctxTestEstimator(t)
	e.LogPrior = []float64{math.Inf(-1), math.Inf(-1), math.Inf(-1)}
	if _, err := e.SampleCtx(context.Background(), d, rng.New(1)); !errors.Is(err, ErrDegeneratePosterior) {
		t.Fatalf("want ErrDegeneratePosterior, got %v", err)
	}
	if _, err := e.LogPosteriorCtx(context.Background(), d); !errors.Is(err, ErrDegeneratePosterior) {
		t.Fatalf("LogPosteriorCtx: want ErrDegeneratePosterior, got %v", err)
	}
	// The plain Sample panics with the same typed error.
	func() {
		defer func() {
			r := recover()
			if err, _ := r.(error); !errors.Is(err, ErrDegeneratePosterior) {
				t.Fatalf("Sample: want a panic wrapping ErrDegeneratePosterior, got %v", r)
			}
		}()
		e.Sample(d, rng.New(1))
	}()
}
