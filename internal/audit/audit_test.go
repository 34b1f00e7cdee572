package audit

import (
	"context"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mathx"
	"repro/internal/mechanism"
	"repro/internal/rng"
)

func TestExactEpsilon(t *testing.T) {
	p := []float64{math.Log(0.75), math.Log(0.25)}
	q := []float64{math.Log(0.5), math.Log(0.5)}
	want := math.Log(1.5) // max(|log 1.5|, |log 0.5|) = log2? No: |log(0.25/0.5)| = log2 > log1.5
	_ = want
	got := ExactEpsilon(p, q)
	if !mathx.AlmostEqual(got, math.Ln2, 1e-12) {
		t.Errorf("ExactEpsilon = %v, want ln2", got)
	}
	// Identical distributions: zero loss.
	if ExactEpsilon(p, p) != 0 {
		t.Error("self epsilon must be 0")
	}
	// Disjoint support: infinite loss.
	inf := ExactEpsilon([]float64{0, math.Inf(-1)}, []float64{math.Inf(-1), 0})
	if !math.IsInf(inf, 1) {
		t.Errorf("disjoint support epsilon = %v", inf)
	}
	// Shared -Inf coordinates are fine.
	if got := ExactEpsilon([]float64{0, math.Inf(-1)}, []float64{0, math.Inf(-1)}); got != 0 {
		t.Errorf("shared zero-mass epsilon = %v", got)
	}
}

func TestExactEpsilonPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("length mismatch should panic")
		}
	}()
	ExactEpsilon([]float64{0}, []float64{0, 0})
}

func TestRandomNeighborPairs(t *testing.T) {
	g := rng.New(1)
	gen := func(h *rng.RNG) *dataset.Dataset {
		return dataset.BernoulliTable{P: 0.5}.Generate(10, h)
	}
	pairs := RandomNeighborPairs(gen, 20, g)
	if len(pairs) != 20 {
		t.Fatalf("pairs = %d", len(pairs))
	}
	for _, p := range pairs {
		if !p.D.IsNeighborOf(p.DPrime) {
			t.Fatal("generated pair is not a neighbor pair")
		}
	}
}

func TestWorstCaseBinaryPair(t *testing.T) {
	p := WorstCaseBinaryPair(5)
	if p.D.Len() != 5 || p.DPrime.Len() != 5 {
		t.Fatal("sizes")
	}
	if dataset.CountOnes(p.D) != 0 || dataset.CountOnes(p.DPrime) != 1 {
		t.Fatal("contents")
	}
	if !p.D.IsNeighborOf(p.DPrime) {
		t.Fatal("must be neighbors")
	}
}

func TestExactAuditExponentialMechanism(t *testing.T) {
	// The exact audit of an exponential mechanism must respect 2εΔq and
	// be tight for the worst-case pair on a counting quality.
	grid := mathx.Linspace(0, 1, 11)
	m, _, err := mechanism.PrivateMedian(0, grid, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	g := rng.New(3)
	gen := func(h *rng.RNG) *dataset.Dataset {
		d := &dataset.Dataset{}
		for i := 0; i < 9; i++ {
			d.Append(dataset.Example{X: []float64{h.Float64()}})
		}
		return d
	}
	pairs := RandomNeighborPairs(gen, 100, g)
	eps := ExactAudit(m, pairs)
	budget := m.Guarantee().Epsilon
	if eps > budget+1e-9 {
		t.Errorf("exact audit %v exceeds theoretical %v", eps, budget)
	}
	if eps <= 0 {
		t.Error("audit should detect some privacy loss")
	}
}

func TestSampleContinuousLaplace(t *testing.T) {
	// Audit the Laplace mechanism on the worst-case counting pair: the
	// empirical epsilon must be ≲ ε (up to sampling noise), and the
	// analytic loss for this pair is exactly ε.
	epsilon := 1.0
	q := mechanism.CountQuery(func(e dataset.Example) bool { return e.X[0] == 1 })
	m, err := mechanism.NewLaplace(q, epsilon)
	if err != nil {
		t.Fatal(err)
	}
	pair := WorstCaseBinaryPair(50)
	g := rng.New(5)
	res, err := SampleContinuous(func(d *dataset.Dataset, h *rng.RNG) float64 {
		return m.Release(d, h)[0]
	}, pair, 200_000, 60, 200, g)
	if err != nil {
		t.Fatal(err)
	}
	if res.EventsCompared == 0 {
		t.Fatal("no events compared")
	}
	// Sampling noise tolerance: generous 25%.
	if res.EmpiricalEpsilon > epsilon*1.25 {
		t.Errorf("empirical epsilon %v far exceeds ε=%v", res.EmpiricalEpsilon, epsilon)
	}
	// Analytic check of the underlying pair.
	if got := LaplaceAnalyticEpsilon(0, 1, m.Scale()); !mathx.AlmostEqual(got, epsilon, 1e-12) {
		t.Errorf("analytic epsilon = %v", got)
	}
}

func TestSampleContinuousDetectsViolation(t *testing.T) {
	// A "mechanism" that adds far too little noise must be flagged: the
	// empirical epsilon should blow well past the claimed ε = 1.
	pair := WorstCaseBinaryPair(10)
	g := rng.New(7)
	broken := func(d *dataset.Dataset, h *rng.RNG) float64 {
		return float64(dataset.CountOnes(d)) + h.Laplace(0, 0.2) // scale should be 1
	}
	res, err := SampleContinuous(broken, pair, 100_000, 50, 100, g)
	if err != nil {
		t.Fatal(err)
	}
	if res.EmpiricalEpsilon < 2 {
		t.Errorf("auditor failed to flag a blatant violation: ε̂ = %v", res.EmpiricalEpsilon)
	}
}

func TestSampleContinuousNoMass(t *testing.T) {
	// Deterministic, disjoint outputs: no bin has mass on both sides.
	pair := WorstCaseBinaryPair(4)
	g := rng.New(9)
	det := func(d *dataset.Dataset, _ *rng.RNG) float64 {
		return float64(dataset.CountOnes(d)) * 100
	}
	if _, err := SampleContinuous(det, pair, 1000, 10, 5, g); err != ErrNoMass {
		t.Errorf("expected ErrNoMass, got %v", err)
	}
}

func TestSampleDiscreteExponential(t *testing.T) {
	grid := mathx.Linspace(0, 1, 5)
	m, _, err := mechanism.PrivateMedian(0, grid, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	g := rng.New(11)
	d := &dataset.Dataset{}
	for i := 0; i < 9; i++ {
		d.Append(dataset.Example{X: []float64{g.Float64()}})
	}
	pair := NeighborPair{D: d, DPrime: d.ReplaceOne(0, dataset.Example{X: []float64{0.99}})}
	res, err := SampleDiscreteCtx(context.Background(), func(dd *dataset.Dataset, h *rng.RNG) int {
		return m.Release(dd, h)
	}, 5, pair, 150_000, 100, g)
	if err != nil {
		t.Fatal(err)
	}
	exact := ExactEpsilon(m.LogProbabilities(pair.D), m.LogProbabilities(pair.DPrime))
	// The sampled estimate should be near the exact value.
	if math.Abs(res.EmpiricalEpsilon-exact) > 0.1 {
		t.Errorf("sampled ε̂ = %v, exact = %v", res.EmpiricalEpsilon, exact)
	}
}

func TestSampleDiscretePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-positive samples should panic")
		}
	}()
	_, _ = SampleDiscreteCtx(context.Background(), nil, 1, NeighborPair{}, 0, 1, rng.New(1))
}
