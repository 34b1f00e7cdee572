package experiments

import (
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/gibbs"
	"repro/internal/learn"
	"repro/internal/mathx"
	"repro/internal/pacbayes"
	"repro/internal/rng"
)

// E3CatoniBound validates Theorem 3.1: over repeated samples, Catoni's
// bound on the Gibbs posterior's true risk holds with probability at
// least 1−δ, and the bound–risk gap shrinks with n. The true risk of
// every grid predictor is computed by Monte Carlo once per n.
func E3CatoniBound(opts Options) (*Table, error) {
	g := rng.New(opts.Seed)
	resamples := 400
	trueRiskMC := 40_000
	if opts.Quick {
		resamples = 50
		trueRiskMC = 8_000
	}
	delta := 0.05
	model := dataset.LogisticModel{Weights: []float64{2, -1.5}, Bias: 0.3}
	grid := learn.NewGrid(-2, 2, 2, 17) // 289 predictors
	loss := learn.ZeroOneLoss{}
	// True risk per grid point (independent of n).
	trueRisks := make([]float64, grid.Size())
	{
		mc := model.Generate(trueRiskMC, g.Split())
		for i, th := range grid.Thetas() {
			trueRisks[i] = learn.EmpiricalRisk(loss, th, mc)
		}
	}
	t := &Table{
		ID:      "E3",
		Title:   "Catoni PAC-Bayes bound validity (Theorem 3.1): logistic task, |Theta|=289, delta=0.05",
		Columns: []string{"n", "lambda", "mean true risk", "mean bound", "mean gap", "violation rate", "ok (rate<=delta)"},
	}
	allOK := true
	for _, n := range []int{50, 100, 200, 400} {
		lambda := math.Sqrt(float64(n)) * 2 // a standard λ ~ √n choice
		violations := 0
		var meanRisk, meanBound mathx.Welford
		for r := 0; r < resamples; r++ {
			d := model.Generate(n, g.Split())
			est, err := gibbs.New(loss, grid.Thetas(), nil, lambda)
			if err != nil {
				return nil, err
			}
			risks := est.Risks(d)
			st, err := est.Stats(risks)
			if err != nil {
				return nil, err
			}
			bound, err := pacbayes.CatoniBound(st.ExpEmpRisk, st.KL, lambda, n, delta)
			if err != nil {
				return nil, err
			}
			// Posterior-expected true risk.
			post, err := est.LogPosterior(risks)
			if err != nil {
				return nil, err
			}
			var tr mathx.KahanSum
			for i, lp := range post {
				if math.IsInf(lp, -1) {
					continue
				}
				tr.Add(math.Exp(lp) * trueRisks[i])
			}
			if tr.Sum() > bound {
				violations++
			}
			meanRisk.Add(tr.Sum())
			meanBound.Add(bound)
		}
		rate := float64(violations) / float64(resamples)
		ok := rate <= delta
		allOK = allOK && ok
		t.AddRow(fmt.Sprint(n), f(lambda), f(meanRisk.Mean()), f(meanBound.Mean()),
			f(meanBound.Mean()-meanRisk.Mean()), f(rate), fmt.Sprint(ok))
	}
	t.AddNote("expected shape: violation rate <= delta at every n (typically 0), and the bound-risk gap shrinks as n grows")
	t.AddNote("all rows ok: %v", allOK)
	return t, nil
}

// E4GibbsOptimality validates Lemma 3.2: among all posteriors over Θ, the
// Gibbs posterior minimizes the linearized PAC-Bayes objective
// E_ρ R̂ + KL(ρ‖π)/λ. It compares the Gibbs value against the closed-form
// optimum, a mirror-descent optimizer, and the best of many random
// posteriors.
func E4GibbsOptimality(opts Options) (*Table, error) {
	g := rng.New(opts.Seed)
	randomPosteriors := 1000
	optIters := 2000
	if opts.Quick {
		randomPosteriors = 150
		optIters = 300
	}
	model := dataset.LogisticModel{Weights: []float64{2, -1.5}, Bias: 0.3}
	grid := learn.NewGrid(-2, 2, 2, 17)
	loss := learn.ZeroOneLoss{}
	n := 200
	d := model.Generate(n, g.Split())
	logPrior := grid.UniformLogPrior()
	risks := learn.RiskVector(loss, grid.Thetas(), d)
	t := &Table{
		ID:      "E4",
		Title:   "Gibbs posterior optimality (Lemma 3.2): objective E[risk]+KL/lambda over |Theta|=289, n=200",
		Columns: []string{"lambda", "gibbs value", "closed-form opt", "numeric opt", "best random", "gibbs wins"},
	}
	allOK := true
	for _, lambda := range []float64{2, 10, 50, 250} {
		gibbsPost, err := pacbayes.GibbsLogPosterior(logPrior, risks, lambda)
		if err != nil {
			return nil, err
		}
		st, err := pacbayes.StatsFor(gibbsPost, logPrior, risks)
		if err != nil {
			return nil, err
		}
		gibbsVal := st.ExpEmpRisk + st.KL/lambda
		opt, err := pacbayes.GibbsOptimalValue(logPrior, risks, lambda)
		if err != nil {
			return nil, err
		}
		_, numVal, err := pacbayes.MinimizePosterior(logPrior, risks, lambda, optIters)
		if err != nil {
			return nil, err
		}
		bestRandom := math.Inf(1)
		for r := 0; r < randomPosteriors; r++ {
			logw := make([]float64, len(risks))
			for i := range logw {
				logw[i] = g.Normal(0, 2)
			}
			comp, _ := mathx.LogNormalize(logw)
			cs, err := pacbayes.StatsFor(comp, logPrior, risks)
			if err != nil {
				return nil, err
			}
			if v := cs.ExpEmpRisk + cs.KL/lambda; v < bestRandom {
				bestRandom = v
			}
		}
		wins := gibbsVal <= bestRandom+1e-12 && gibbsVal <= numVal+1e-9 && mathx.AlmostEqual(gibbsVal, opt, 1e-9)
		allOK = allOK && wins
		t.AddRow(f(lambda), f(gibbsVal), f(opt), f(numVal), f(bestRandom), fmt.Sprint(wins))
	}
	t.AddNote("expected shape: gibbs value == closed-form optimum, <= numeric optimizer, < best of %d random posteriors, at every lambda", randomPosteriors)
	t.AddNote("all rows ok: %v", allOK)
	return t, nil
}
