package audit

import (
	"context"
	"errors"
	"testing"

	"repro/internal/dataset"
	"repro/internal/rng"
)

// TestSampleContinuousCtxMatchesPlain pins that the ctx variant under an
// un-canceled context is the plain audit, bit for bit.
func TestSampleContinuousCtxMatchesPlain(t *testing.T) {
	release := func(d *dataset.Dataset, g *rng.RNG) float64 {
		return float64(d.Examples[0].Y) + g.Laplace(0, 1.0)
	}
	pair := WorstCaseBinaryPair(20)
	plain, err := SampleContinuous(release, pair, 4000, 20, 5, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	withCtx, err := SampleContinuousCtx(context.Background(), release, pair, 4000, 20, 5, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if plain != withCtx {
		t.Fatalf("ctx variant diverged: %+v vs %+v", plain, withCtx)
	}
}

// TestSampleContinuousCtxCanceled pins that a canceled audit returns the
// cause and no partial estimate (a truncated sample would understate ε̂).
func TestSampleContinuousCtxCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	release := func(d *dataset.Dataset, g *rng.RNG) float64 { return g.Laplace(0, 1.0) }
	res, err := SampleContinuousCtx(ctx, release, WorstCaseBinaryPair(10), 4000, 20, 5, rng.New(7))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if res != (SampledResult{}) {
		t.Fatalf("canceled audit leaked a partial result: %+v", res)
	}
}

// auditMech is a two-outcome mechanism with a tunable log-probability
// gap, used to exercise the exact auditor.
type auditMech struct{ eps float64 }

func (m auditMech) LogProbabilities(d *dataset.Dataset) []float64 {
	if d.Examples[0].Y == 1 {
		return []float64{-m.eps, -0.5}
	}
	return []float64{0, -0.5}
}

// TestExactAuditCtxCanceled pins cancellation of the exact auditor and
// that the plain wrapper still agrees with the ctx variant.
func TestExactAuditCtxCanceled(t *testing.T) {
	pairs := []NeighborPair{WorstCaseBinaryPair(4), WorstCaseBinaryPair(8)}
	m := auditMech{eps: 0.3}

	got, err := ExactAuditCtx(context.Background(), m, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if want := ExactAudit(m, pairs); got != want {
		t.Fatalf("ctx variant diverged: %g vs %g", got, want)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ExactAuditCtx(ctx, m, pairs); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestSampleDiscreteCtxCanceled pins cancellation of the discrete
// sampler.
func TestSampleDiscreteCtxCanceled(t *testing.T) {
	release := func(d *dataset.Dataset, g *rng.RNG) int {
		if g.Float64() < 0.4+0.1*float64(d.Examples[0].Y) {
			return 1
		}
		return 0
	}
	pair := WorstCaseBinaryPair(10)
	if _, err := SampleDiscreteCtx(context.Background(), release, 2, pair, 4000, 5, rng.New(7)); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SampleDiscreteCtx(ctx, release, 2, pair, 4000, 5, rng.New(7)); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}
