package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/audit"
	"repro/internal/channel"
	"repro/internal/dataset"
	"repro/internal/learn"
	"repro/internal/mathx"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/rng"
)

func classifierConfig(epsilon float64) Config {
	grid := learn.NewGrid(-2, 2, 1, 17)
	return Config{
		Loss:    learn.ZeroOneLoss{},
		Thetas:  grid.Thetas(),
		Epsilon: epsilon,
	}
}

func TestNewLearnerValidation(t *testing.T) {
	grid := learn.NewGrid(-1, 1, 1, 3)
	cases := []Config{
		{},
		{Loss: learn.ZeroOneLoss{}, Epsilon: 1}, // no thetas
		{Loss: learn.SquaredLoss{}, Thetas: grid.Thetas(), Epsilon: 1},                         // unbounded loss
		{Loss: learn.ZeroOneLoss{}, Thetas: grid.Thetas(), Epsilon: 0},                         // no budget
		{Loss: learn.ZeroOneLoss{}, Thetas: grid.Thetas(), Epsilon: 1, LogPrior: []float64{0}}, // prior length
		{Loss: learn.ZeroOneLoss{}, Thetas: grid.Thetas(), Epsilon: 1, Delta: 1.5},             // delta
	}
	for i, cfg := range cases {
		if _, err := NewLearner(cfg); !errors.Is(err, ErrBadConfig) {
			t.Errorf("case %d: expected ErrBadConfig, got %v", i, err)
		}
	}
	l, err := NewLearner(classifierConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if l.Epsilon() != 1 {
		t.Error("Epsilon accessor")
	}
}

func TestFitCertificates(t *testing.T) {
	g := rng.New(1)
	model := dataset.LogisticModel{Weights: []float64{3}, Bias: 0}
	d := model.Generate(300, g)
	l, err := NewLearner(classifierConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	fit, err := l.Fit(d, g)
	if err != nil {
		t.Fatal(err)
	}
	c := fit.Certificate
	if !mathx.AlmostEqual(c.Privacy.Epsilon, 2, 1e-9) {
		t.Errorf("privacy certificate = %v, want exactly the budget", c.Privacy.Epsilon)
	}
	if !mathx.AlmostEqual(c.Lambda, 2*300.0/2, 1e-9) {
		t.Errorf("lambda = %v, want εn/2M = 300", c.Lambda)
	}
	if c.Delta != 0.05 {
		t.Errorf("default delta = %v", c.Delta)
	}
	if c.RiskBound <= 0 || c.RiskBound > 1 {
		t.Errorf("risk bound = %v out of (0, 1] for 0-1 loss", c.RiskBound)
	}
	if c.ExpEmpRisk < 0 || c.ExpEmpRisk > 1 || c.KL < 0 {
		t.Errorf("stats: %+v", c)
	}
	// The bound must dominate the posterior-expected empirical risk
	// asymptotically; at n=300 with λ=300 it must at least exceed it.
	if c.RiskBound < c.ExpEmpRisk {
		t.Errorf("risk bound %v below empirical risk %v", c.RiskBound, c.ExpEmpRisk)
	}
	if len(fit.Theta) != 1 || fit.Index < 0 || fit.Index >= 17 {
		t.Errorf("fitted predictor malformed: %+v", fit)
	}
}

func TestFitEndToEndPrivacy(t *testing.T) {
	// The learner's end-to-end release must satisfy exactly its ε budget.
	epsilon := 0.8
	l, err := NewLearner(classifierConfig(epsilon))
	if err != nil {
		t.Fatal(err)
	}
	n := 40
	est, err := l.Estimator(n)
	if err != nil {
		t.Fatal(err)
	}
	g := rng.New(3)
	model := dataset.LogisticModel{Weights: []float64{2}}
	gen := func(h *rng.RNG) *dataset.Dataset { return model.Generate(n, h) }
	pairs := audit.RandomNeighborPairs(gen, 150, g)
	got := audit.ExactAudit(est, pairs)
	if got > epsilon+1e-9 {
		t.Errorf("audited ε̂ = %v exceeds budget %v", got, epsilon)
	}
}

func TestFitUtilityImprovesWithEpsilon(t *testing.T) {
	// More budget → better predictor (on average).
	g := rng.New(5)
	model := dataset.LogisticModel{Weights: []float64{3}, Bias: 0}
	train := model.Generate(400, g)
	test := model.Generate(4000, g)
	avgErr := func(eps float64) float64 {
		l, err := NewLearner(classifierConfig(eps))
		if err != nil {
			t.Fatal(err)
		}
		var total float64
		const reps = 30
		for r := 0; r < reps; r++ {
			fit, err := l.Fit(train, g)
			if err != nil {
				t.Fatal(err)
			}
			total += learn.ClassificationError(fit.Theta, test)
		}
		return total / reps
	}
	// Note: for a 1-D sign classifier all θ > 0 are equivalent, so the
	// utility gap only appears once the posterior spreads onto θ ≤ 0 —
	// which requires a very small λ = εn/2, hence the tiny weak budget.
	weak := avgErr(0.005)
	strong := avgErr(5)
	if strong >= weak {
		t.Errorf("ε=5 error %v not better than ε=0.005 error %v", strong, weak)
	}
	if strong > 0.3 {
		t.Errorf("ε=5 error %v unexpectedly bad", strong)
	}
}

func TestCertifyMatchesFit(t *testing.T) {
	g := rng.New(7)
	d := dataset.LogisticModel{Weights: []float64{1}}.Generate(100, g)
	l, err := NewLearner(classifierConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	c1, err := l.Certify(d)
	if err != nil {
		t.Fatal(err)
	}
	fit, err := l.Fit(d, g)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != fit.Certificate {
		t.Error("Certify must equal the certificate attached by Fit")
	}
	if _, err := l.Certify(&dataset.Dataset{}); !errors.Is(err, ErrBadConfig) {
		t.Error("empty dataset")
	}
}

func TestAccountInformation(t *testing.T) {
	// Mean-estimation learner over binary data: leakage must respect
	// MI ≤ capacity ≤ ε·n.
	grid := [][]float64{{0}, {0.25}, {0.5}, {0.75}, {1}}
	reg := obs.NewRegistry()
	l, err := NewLearner(Config{
		Loss:     learn.NewClippedLoss(learn.AbsoluteLoss{}, 1),
		Thetas:   grid,
		Epsilon:  1.5,
		Parallel: parallel.Options{Obs: &obs.Observer{Metrics: reg}},
	})
	if err != nil {
		t.Fatal(err)
	}
	n := 8
	// Build binary mean-estimation sample space: x is the record, y = x.
	inputs, logPX := channel.CountSampleSpace(n, 0.5)
	for _, d := range inputs {
		for i := range d.Examples {
			d.Examples[i].Y = d.Examples[i].X[0]
		}
	}
	acct, err := l.AccountInformation(inputs, logPX)
	if err != nil {
		t.Fatal(err)
	}
	// One risk vector per input serves its channel row and the expected
	// risk: on a cold cache, one miss each and no hit.
	hits := reg.Counter("dplearn_risk_cache_hits_total", "").Value()
	misses := reg.Counter("dplearn_risk_cache_misses_total", "").Value()
	if hits != 0 || misses != uint64(len(inputs)) {
		t.Errorf("%d inputs made %d cache misses and %d hits, want %d and 0", len(inputs), misses, hits, len(inputs))
	}
	if acct.MutualInformation <= 0 {
		t.Errorf("MI = %v", acct.MutualInformation)
	}
	if acct.MutualInformation > acct.Capacity+1e-6 {
		t.Errorf("MI %v > capacity %v", acct.MutualInformation, acct.Capacity)
	}
	if acct.Capacity > acct.DPCap+1e-6 {
		t.Errorf("capacity %v > DP cap %v", acct.Capacity, acct.DPCap)
	}
	if !mathx.AlmostEqual(acct.DPCap, 1.5*float64(n), 1e-9) {
		t.Errorf("DPCap = %v", acct.DPCap)
	}
	if acct.ExpectedRisk <= 0 || acct.ExpectedRisk > 1 {
		t.Errorf("expected risk = %v", acct.ExpectedRisk)
	}
}

func TestAccountInformationValidation(t *testing.T) {
	l, _ := NewLearner(classifierConfig(1))
	if _, err := l.AccountInformation(nil, nil); !errors.Is(err, ErrBadConfig) {
		t.Error("empty space")
	}
	d1 := dataset.BernoulliTable{}.FromBits([]int{0, 1})
	d2 := dataset.BernoulliTable{}.FromBits([]int{0})
	if _, err := l.AccountInformation([]*dataset.Dataset{d1, d2}, []float64{0, 0}); !errors.Is(err, ErrBadConfig) {
		t.Error("size mismatch")
	}
}

func TestPrivateHistogramDensity(t *testing.T) {
	g := rng.New(11)
	mix := dataset.GaussianMixture{Means: []float64{-1, 1}, Sigmas: []float64{0.3, 0.3}, Weights: []float64{1, 1}}
	d := mix.Generate(5000, g)
	priv, err := PrivateHistogramDensity(d, 0, 40, -3, 3, 2, nil, g)
	if err != nil {
		t.Fatal(err)
	}
	// Integrates to 1.
	w := 6.0 / 40
	var integral float64
	for _, v := range priv.Density {
		if v < 0 {
			t.Fatal("negative density")
		}
		integral += v * w
	}
	if !mathx.AlmostEqual(integral, 1, 1e-9) {
		t.Errorf("integral = %v", integral)
	}
	// Close to the non-private histogram at this n and ε.
	nonPriv, err := NonPrivateHistogramDensity(d, 0, 40, -3, 3)
	if err != nil {
		t.Fatal(err)
	}
	l1, err := priv.L1Distance(nonPriv)
	if err != nil {
		t.Fatal(err)
	}
	if l1 > 0.1 {
		t.Errorf("L1 to non-private = %v", l1)
	}
	// At() sanity: density near a mode should exceed density in the gap.
	if priv.At(-1) <= priv.At(0) {
		t.Errorf("mode density %v not above valley %v", priv.At(-1), priv.At(0))
	}
	if priv.At(-10) != 0 || priv.At(10) != 0 {
		t.Error("outside support must be 0")
	}
}

func TestPrivateHistogramDensityDegenerate(t *testing.T) {
	if _, err := PrivateHistogramDensity(&dataset.Dataset{}, 0, 4, 0, 1, 1, nil, rng.New(1)); !errors.Is(err, ErrBadConfig) {
		t.Error("empty dataset")
	}
}

func TestL1DistanceErrors(t *testing.T) {
	a := &DensityEstimate{Lo: 0, Hi: 1, Density: []float64{1}}
	b := &DensityEstimate{Lo: 0, Hi: 2, Density: []float64{0.5}}
	if _, err := a.L1Distance(b); err == nil {
		t.Error("mismatched supports must error")
	}
	c := &DensityEstimate{Lo: 0, Hi: 1, Density: []float64{1}}
	d, err := a.L1Distance(c)
	if err != nil || d != 0 {
		t.Errorf("self distance = %v, %v", d, err)
	}
}

func TestGibbsHistogramDensity(t *testing.T) {
	g := rng.New(13)
	mix := dataset.GaussianMixture{Means: []float64{0}, Sigmas: []float64{0.5}, Weights: []float64{1}}
	d := mix.Generate(3000, g)
	dens, bins, err := GibbsHistogramDensity(d, 0, []int{5, 10, 20, 40, 80}, -3, 3, 10, 4, nil, g)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, b := range []int{5, 10, 20, 40, 80} {
		if bins == b {
			found = true
		}
	}
	if !found {
		t.Errorf("selected bins = %d not among candidates", bins)
	}
	// Integrates to ~1 (smoothing keeps it exact).
	w := 6.0 / float64(bins)
	var integral float64
	for _, v := range dens.Density {
		integral += v * w
	}
	if math.Abs(integral-1) > 1e-6 {
		t.Errorf("integral = %v", integral)
	}
	if _, _, err := GibbsHistogramDensity(d, 0, nil, -3, 3, 10, 1, nil, g); !errors.Is(err, ErrBadConfig) {
		t.Error("no candidates")
	}
}

func TestDensityErrorDecreasesWithEpsilon(t *testing.T) {
	// Average L1 error of the private histogram must shrink as ε grows.
	g := rng.New(17)
	mix := dataset.GaussianMixture{Means: []float64{0}, Sigmas: []float64{1}, Weights: []float64{1}}
	d := mix.Generate(400, g)
	nonPriv, err := NonPrivateHistogramDensity(d, 0, 20, -4, 4)
	if err != nil {
		t.Fatal(err)
	}
	avgL1 := func(eps float64) float64 {
		var total float64
		const reps = 40
		for r := 0; r < reps; r++ {
			priv, err := PrivateHistogramDensity(d, 0, 20, -4, 4, eps, nil, g)
			if err != nil {
				t.Fatal(err)
			}
			l1, err := priv.L1Distance(nonPriv)
			if err != nil {
				t.Fatal(err)
			}
			total += l1
		}
		return total / reps
	}
	low := avgL1(0.1)
	high := avgL1(10)
	if high >= low {
		t.Errorf("L1 at ε=10 (%v) not below ε=0.1 (%v)", high, low)
	}
}
