package gibbs

import (
	"math"
	"testing"

	"repro/internal/audit"
	"repro/internal/dataset"
	"repro/internal/learn"
	"repro/internal/mathx"
	"repro/internal/pacbayes"
	"repro/internal/rng"
)

func testEstimator(t *testing.T, lambda float64) (*Estimator, *dataset.Dataset) {
	t.Helper()
	g := rng.New(1)
	model := dataset.LogisticModel{Weights: []float64{2}, Bias: 0}
	d := model.Generate(100, g)
	grid := learn.NewGrid(-2, 2, 1, 17)
	est, err := New(learn.ZeroOneLoss{}, grid.Thetas(), nil, lambda)
	if err != nil {
		t.Fatal(err)
	}
	return est, d
}

func TestNewValidation(t *testing.T) {
	grid := learn.NewGrid(-1, 1, 1, 3)
	if _, err := New(nil, grid.Thetas(), nil, 1); err != ErrBadConfig {
		t.Error("nil loss")
	}
	if _, err := New(learn.ZeroOneLoss{}, nil, nil, 1); err != ErrBadConfig {
		t.Error("empty thetas")
	}
	if _, err := New(learn.ZeroOneLoss{}, grid.Thetas(), []float64{0}, 1); err != ErrBadConfig {
		t.Error("prior length")
	}
	if _, err := New(learn.ZeroOneLoss{}, grid.Thetas(), nil, 0); err != ErrBadConfig {
		t.Error("lambda")
	}
}

func TestLogPosteriorMatchesPacbayes(t *testing.T) {
	est, d := testEstimator(t, 12)
	risks := est.Risks(d)
	post, err := est.LogPosterior(risks)
	if err != nil {
		t.Fatal(err)
	}
	if !mathx.AlmostEqual(mathx.LogSumExp(post), 0, 1e-10) {
		t.Error("posterior must normalize")
	}
	want, err := pacbayes.GibbsLogPosterior(est.logPriorOrUniform(), risks, est.Lambda)
	if err != nil {
		t.Fatal(err)
	}
	for i := range post {
		if !mathx.AlmostEqual(post[i], want[i], 1e-12) {
			t.Fatalf("posterior[%d] = %v, want %v", i, post[i], want[i])
		}
	}
}

func TestSampleMatchesPosterior(t *testing.T) {
	est, d := testEstimator(t, 8)
	g := rng.New(3)
	counts := make([]int, len(est.Thetas))
	n := 200_000
	risks := est.Risks(d)
	for i := 0; i < n; i++ {
		idx, err := est.Sample(risks, g)
		if err != nil {
			t.Fatal(err)
		}
		counts[idx]++
	}
	post, err := est.LogPosterior(risks)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range counts {
		want := math.Exp(post[i])
		got := float64(c) / float64(n)
		if math.Abs(got-want) > 0.01 {
			t.Errorf("freq[%d] = %v, want %v", i, got, want)
		}
	}
}

func TestSampleTheta(t *testing.T) {
	est, d := testEstimator(t, 8)
	g := rng.New(5)
	th := est.SampleTheta(d, g)
	if len(th) != 1 {
		t.Fatal("dim")
	}
	// Returned slice must be a copy.
	th[0] = 999
	for _, cand := range est.Thetas {
		if cand[0] == 999 {
			t.Fatal("SampleTheta must copy")
		}
	}
}

func TestTheorem41ExactPrivacy(t *testing.T) {
	// The Gibbs posterior must satisfy its 2λΔR̂ certificate exactly,
	// for every neighbor pair and every output.
	lambda := 20.0
	est, _ := testEstimator(t, lambda)
	n := 60
	budget := est.Guarantee(n).Epsilon
	if !mathx.AlmostEqual(budget, 2*lambda/float64(n), 1e-12) {
		t.Fatalf("budget = %v", budget)
	}
	g := rng.New(7)
	model := dataset.LogisticModel{Weights: []float64{2}, Bias: 0}
	gen := func(h *rng.RNG) *dataset.Dataset { return model.Generate(n, h) }
	pairs := audit.RandomNeighborPairs(gen, 200, g)
	eps := audit.ExactAudit(est, pairs)
	if eps > budget+1e-9 {
		t.Errorf("exact audit ε̂ = %v exceeds certificate %v", eps, budget)
	}
	if eps == 0 {
		t.Error("audit should observe nonzero privacy loss")
	}
}

func TestTheorem41Tightness(t *testing.T) {
	// On an adversarial pair the realized loss should approach a
	// substantial fraction of the certificate (the 0-1 risk can move by
	// exactly 1/n on one θ and 0 on another).
	n := 30
	lambda := 15.0
	grid := learn.NewGrid(-1, 1, 1, 3) // θ ∈ {-1, 0, 1}
	est, err := New(learn.ZeroOneLoss{}, grid.Thetas(), nil, lambda)
	if err != nil {
		t.Fatal(err)
	}
	// Pair: flipping one record's label flips its loss under θ=1 and
	// θ=−1 in opposite directions.
	d := &dataset.Dataset{}
	g := rng.New(9)
	for i := 0; i < n; i++ {
		x := g.Uniform(0.1, 1)
		d.Append(dataset.Example{X: []float64{x}, Y: 1})
	}
	nb := d.ReplaceOne(0, dataset.Example{X: []float64{0.5}, Y: -1})
	eps := audit.ExactEpsilon(est.LogProbabilities(d), est.LogProbabilities(nb))
	budget := est.Guarantee(n).Epsilon
	if eps > budget+1e-9 {
		t.Fatalf("violation: %v > %v", eps, budget)
	}
	if eps < budget/4 {
		t.Errorf("audit %v is far below the certificate %v; expected the worst-case pair to be reasonably tight", eps, budget)
	}
}

func TestLambdaEpsilonConversions(t *testing.T) {
	loss := learn.NewClippedLoss(learn.SquaredLoss{}, 4)
	n := 200
	eps := 0.5
	lambda := LambdaForEpsilon(eps, loss, n)
	if !mathx.AlmostEqual(lambda, eps*float64(n)/8, 1e-12) {
		t.Errorf("lambda = %v", lambda)
	}
	// Estimator built with this λ must certify exactly ε.
	grid := learn.NewGrid(-1, 1, 1, 5)
	est, err := New(loss, grid.Thetas(), nil, lambda)
	if err != nil {
		t.Fatal(err)
	}
	if !mathx.AlmostEqual(est.Guarantee(n).Epsilon, eps, 1e-12) {
		t.Errorf("certified = %v", est.Guarantee(n).Epsilon)
	}
}

func TestConversionPanics(t *testing.T) {
	for i, fn := range []func(){
		func() { LambdaForEpsilon(0, learn.ZeroOneLoss{}, 10) },
		func() { LambdaForEpsilon(1, learn.SquaredLoss{}, 10) }, // unbounded
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d should panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestPosteriorMeanRiskAndTheta(t *testing.T) {
	est, d := testEstimator(t, 10)
	risks := est.Risks(d)
	st, err := est.Stats(risks)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := risks[mathx.ArgMin(risks)], risks[mathx.ArgMax(risks)]
	if pm := st.ExpEmpRisk; pm < lo || pm > hi {
		t.Errorf("posterior mean risk %v outside [%v, %v]", pm, lo, hi)
	}
	// Posterior-mean theta should lean positive for positively-correlated
	// data at a decent temperature.
	mean := est.PosteriorMeanTheta(d)
	if mean[0] <= 0 {
		t.Errorf("posterior mean theta = %v", mean)
	}
	if st.KL < 0 {
		t.Error("KL must be non-negative")
	}
}

func TestGibbsWithNonUniformPrior(t *testing.T) {
	grid := learn.NewGrid(-2, 2, 1, 9)
	prior := grid.GaussianLogPrior(0.5)
	est, err := New(learn.ZeroOneLoss{}, grid.Thetas(), prior, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	g := rng.New(11)
	d := dataset.LogisticModel{Weights: []float64{1}}.Generate(20, g)
	post, err := est.LogPosterior(est.Risks(d))
	if err != nil {
		t.Fatal(err)
	}
	// At λ→0 the posterior equals the prior.
	for i := range post {
		if !mathx.AlmostEqual(post[i], prior[i], 1e-6) {
			t.Fatalf("tiny-λ posterior should be the prior: %v vs %v", post[i], prior[i])
		}
	}
}

func TestMHSamplerGaussianTarget(t *testing.T) {
	// Sample N(3, 2²) and check moments.
	s := &MHSampler{
		LogTarget: func(x []float64) float64 {
			d := x[0] - 3
			return -d * d / 8
		},
		Step: 2.5,
	}
	g := rng.New(13)
	samples, rate, err := s.Run([]float64{0}, 2000, 30000, 2, g)
	if err != nil {
		t.Fatal(err)
	}
	if rate <= 0.1 || rate >= 0.9 {
		t.Errorf("acceptance rate %v out of healthy range", rate)
	}
	var w mathx.Welford
	for _, x := range samples {
		w.Add(x[0])
	}
	if math.Abs(w.Mean()-3) > 0.1 {
		t.Errorf("MH mean = %v", w.Mean())
	}
	if math.Abs(w.Variance()-4)/4 > 0.15 {
		t.Errorf("MH variance = %v", w.Variance())
	}
}

func TestMHSamplerValidation(t *testing.T) {
	s := &MHSampler{Step: 1}
	if _, _, err := s.Run([]float64{0}, 0, 10, 1, rng.New(1)); err != ErrBadSampler {
		t.Error("nil target")
	}
	s2 := &MHSampler{LogTarget: func([]float64) float64 { return 0 }, Step: 0}
	if _, _, err := s2.Run([]float64{0}, 0, 10, 1, rng.New(1)); err != ErrBadSampler {
		t.Error("zero step")
	}
	s3 := &MHSampler{LogTarget: func([]float64) float64 { return math.NaN() }, Step: 1}
	if _, _, err := s3.Run([]float64{0}, 0, 10, 1, rng.New(1)); err == nil {
		t.Error("NaN target at start")
	}
}

func TestContinuousGibbsConcentratesOnERM(t *testing.T) {
	// Continuous Gibbs posterior over ridge risk with large λ should
	// concentrate near the least-squares solution.
	g := rng.New(17)
	model := dataset.LinearModel{Weights: []float64{1.2}, Noise: 0.1}
	d := model.Generate(200, g)
	loss := learn.NewClippedLoss(learn.SquaredLoss{}, 9)
	target := ContinuousTarget(loss, d, 5000, BoxLogPrior(-3, 3))
	s := &MHSampler{LogTarget: target, Step: 0.2}
	samples, _, err := s.Run([]float64{0}, 3000, 5000, 2, g)
	if err != nil {
		t.Fatal(err)
	}
	var w mathx.Welford
	for _, x := range samples {
		w.Add(x[0])
	}
	if math.Abs(w.Mean()-1.2) > 0.1 {
		t.Errorf("continuous Gibbs mean = %v, want ≈ 1.2", w.Mean())
	}
}

func TestBoxLogPrior(t *testing.T) {
	p := BoxLogPrior(-1, 1)
	if p([]float64{0, 0.5}) != 0 {
		t.Error("inside box")
	}
	if !math.IsInf(p([]float64{0, 2}), -1) {
		t.Error("outside box")
	}
}

func TestGaussianLogPriorShape(t *testing.T) {
	p := GaussianLogPrior(2)
	if p([]float64{0}) != 0 {
		t.Error("peak at origin")
	}
	if !mathx.AlmostEqual(p([]float64{2}), -0.5, 1e-12) {
		t.Errorf("at sigma: %v", p([]float64{2}))
	}
}

func TestMonotoneTradeoffInLambda(t *testing.T) {
	// Larger λ (weaker privacy) must give lower posterior-expected
	// empirical risk — the tradeoff of Section 4.
	_, d := testEstimator(t, 1)
	grid := learn.NewGrid(-2, 2, 1, 17)
	var prev float64 = math.Inf(1)
	for _, lambda := range []float64{0.5, 2, 8, 32, 128} {
		est, err := New(learn.ZeroOneLoss{}, grid.Thetas(), nil, lambda)
		if err != nil {
			t.Fatal(err)
		}
		st, err := est.Stats(est.Risks(d))
		if err != nil {
			t.Fatal(err)
		}
		risk := st.ExpEmpRisk
		if risk > prev+1e-9 {
			t.Errorf("risk increased with λ: %v > %v at λ=%v", risk, prev, lambda)
		}
		prev = risk
	}
}

func TestGibbsUtilityBound(t *testing.T) {
	// Sampled empirical risk must beat ERM + UtilityBound(β) with
	// frequency at least 1−β.
	est, d := testEstimator(t, 25)
	g := rng.New(101)
	risks := est.Risks(d)
	best := risks[mathx.ArgMin(risks)]
	beta := 0.1
	bound := est.UtilityBound(beta)
	if bound <= 0 {
		t.Fatalf("bound = %v", bound)
	}
	trials := 5000
	bad := 0
	for i := 0; i < trials; i++ {
		idx, err := est.Sample(risks, g)
		if err != nil {
			t.Fatal(err)
		}
		if risks[idx] > best+bound {
			bad++
		}
	}
	if frac := float64(bad) / float64(trials); frac > beta {
		t.Errorf("utility bound violated with frequency %v > beta %v", frac, beta)
	}
	defer func() {
		if recover() == nil {
			t.Error("beta out of range should panic")
		}
	}()
	est.UtilityBound(0)
}
