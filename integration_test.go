package dplearn

// Integration tests: full pipelines crossing module boundaries — data
// generation → private learning → exact privacy audit → PAC-Bayes
// certification → information accounting — asserting the end-to-end
// invariants the paper's theorems promise.

import (
	"math"
	"testing"

	"repro/internal/audit"
	"repro/internal/channel"
	"repro/internal/dataset"
	"repro/internal/gibbs"
	"repro/internal/learn"
	"repro/internal/mathx"
	"repro/internal/mechanism"
	"repro/internal/pacbayes"
	"repro/internal/rng"
)

// TestIntegrationLearnAuditCertify drives the full central story: fit a
// private classifier, verify its ε empirically, and confirm the bound
// machinery is mutually consistent.
func TestIntegrationLearnAuditCertify(t *testing.T) {
	g := rng.New(2024)
	model := dataset.LogisticModel{Weights: []float64{2.5, -1}, Bias: 0}
	n := 150
	train := model.Generate(n, g)
	test := model.Generate(5000, g)
	grid := learn.NewGrid(-2, 2, 2, 9)
	eps := 1.5

	learner, err := NewLearner(Config{
		Loss:    learn.ZeroOneLoss{},
		Thetas:  grid.Thetas(),
		Epsilon: eps,
		Delta:   0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	fit, err := learner.Fit(train, g)
	if err != nil {
		t.Fatal(err)
	}

	// 1. The certificate must equal the configured budget exactly.
	if !mathx.AlmostEqual(fit.Certificate.Privacy.Epsilon, eps, 1e-9) {
		t.Errorf("certificate %v != budget %v", fit.Certificate.Privacy.Epsilon, eps)
	}

	// 2. The exact audit over many neighbor pairs must stay within it.
	est, err := learner.Estimator(n)
	if err != nil {
		t.Fatal(err)
	}
	pairs := audit.RandomNeighborPairs(func(h *rng.RNG) *dataset.Dataset {
		return model.Generate(n, h)
	}, 120, g)
	if got := audit.ExactAudit(est, pairs); got > eps+1e-9 {
		t.Errorf("audited ε̂ %v exceeds budget %v", got, eps)
	}

	// 3. The Catoni bound in the certificate matches an independent
	// recomputation through pacbayes, rescaled for the 0-1 loss.
	st, err := est.Stats(est.Risks(train))
	if err != nil {
		t.Fatal(err)
	}
	recomputed, err := pacbayes.CatoniBound(st.ExpEmpRisk, st.KL, est.Lambda, n, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !mathx.AlmostEqual(recomputed, fit.Certificate.RiskBound, 1e-9) {
		t.Errorf("certificate bound %v != recomputed %v", fit.Certificate.RiskBound, recomputed)
	}

	// 4. The released predictor generalizes: held-out error within the
	// certified bound (w.h.p. by Theorem 3.1; deterministic at this seed).
	heldOut := learn.ClassificationError(fit.Theta, test)
	if heldOut > fit.Certificate.RiskBound {
		t.Errorf("held-out error %v exceeds certified bound %v", heldOut, fit.Certificate.RiskBound)
	}
}

// TestIntegrationChannelConsistency cross-checks the three views of the
// same Gibbs learner: the core information account, the channel package's
// direct computation, and the DP caps.
func TestIntegrationChannelConsistency(t *testing.T) {
	n := 8
	inputs, logPX := channel.CountSampleSpace(n, 0.5)
	loss := learn.NewClippedLoss(learn.AbsoluteLoss{}, 1)
	for _, d := range inputs {
		for i := range d.Examples {
			d.Examples[i].Y = d.Examples[i].X[0]
		}
	}
	grid := [][]float64{{0}, {0.25}, {0.5}, {0.75}, {1}}
	eps := 2.0
	learner, err := NewLearner(Config{Loss: loss, Thetas: grid, Epsilon: eps})
	if err != nil {
		t.Fatal(err)
	}
	acct, err := learner.AccountInformation(inputs, logPX)
	if err != nil {
		t.Fatal(err)
	}
	est, err := learner.Estimator(n)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := channel.FromMechanism(inputs, logPX, est)
	if err != nil {
		t.Fatal(err)
	}
	mi, err := ch.MutualInformation()
	if err != nil {
		t.Fatal(err)
	}
	if !mathx.AlmostEqual(mi, acct.MutualInformation, 1e-9) {
		t.Errorf("account MI %v != channel MI %v", acct.MutualInformation, mi)
	}
	if acct.MutualInformation > acct.Capacity+1e-6 || acct.Capacity > acct.DPCap+1e-6 {
		t.Errorf("ordering violated: %+v", acct)
	}
	rep, err := ch.Reconstruction()
	if err != nil {
		t.Fatal(err)
	}
	if rep.BayesAccuracy > 1-rep.FanoErrorLB+1e-9 {
		t.Error("reconstruction accuracy violates Fano")
	}
}

// TestIntegrationBudgetedPipeline runs a multi-release pipeline under one
// accountant: summary + learner + density, asserting the composed budget.
func TestIntegrationBudgetedPipeline(t *testing.T) {
	g := rng.New(99)
	mix := dataset.GaussianMixture{Means: []float64{0.4}, Sigmas: []float64{0.1}, Weights: []float64{1}}
	d := mix.Generate(2000, g)
	for i := range d.Examples {
		d.Examples[i].X[0] = mathx.Clamp(d.Examples[i].X[0], 0, 1)
	}
	var acct mechanism.Accountant

	sum, err := ReleaseSummary(d, SummaryConfig{Feature: 0, Lo: 0, Hi: 1, Epsilon: 2}, g)
	if err != nil {
		t.Fatal(err)
	}
	acct.Spend(sum.Spent)

	dens, err := PrivateHistogramDensity(d, 0, 16, 0, 1, 1, nil, g)
	if err != nil {
		t.Fatal(err)
	}
	if dens.At(0.4) <= dens.At(0.9) {
		t.Error("density should peak near the mode")
	}
	acct.Spend(mechanism.Guarantee{Epsilon: 1})

	total := acct.BasicComposition()
	if !mathx.AlmostEqual(total.Epsilon, 3, 1e-9) {
		t.Errorf("composed budget %v, want 3", total.Epsilon)
	}
}

// TestIntegrationMCMCMatchesExactLearner verifies the continuous sampler
// agrees with the exact finite-grid learner it approximates.
func TestIntegrationMCMCMatchesExactLearner(t *testing.T) {
	g := rng.New(7)
	model := dataset.LinearModel{Weights: []float64{0.6}, Noise: 0.15}
	train := model.Generate(250, g)
	loss := learn.NewClippedLoss(learn.SquaredLoss{}, 4)
	lambda := gibbs.LambdaForEpsilon(3, loss, train.Len())

	fineAxis := mathx.Linspace(-2, 2, 1001)
	fine := make([][]float64, len(fineAxis))
	for i, v := range fineAxis {
		fine[i] = []float64{v}
	}
	exact, err := gibbs.New(loss, fine, nil, lambda)
	if err != nil {
		t.Fatal(err)
	}
	ref := exact.PosteriorMeanTheta(train)[0]

	target := gibbs.ContinuousTarget(loss, train, lambda, gibbs.BoxLogPrior(-2, 2))
	mala := &gibbs.MALASampler{LogTarget: target, Tau: 0.05}
	samples, _, err := mala.Run([]float64{0}, 2000, 6000, 2, g)
	if err != nil {
		t.Fatal(err)
	}
	var w mathx.Welford
	for _, x := range samples {
		w.Add(x[0])
	}
	if math.Abs(w.Mean()-ref) > 0.03 {
		t.Errorf("MALA mean %v vs exact %v", w.Mean(), ref)
	}
}
