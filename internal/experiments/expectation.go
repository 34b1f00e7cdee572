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

// E11ExpectationBound validates Equation 1 of the paper — the
// in-expectation form of Catoni's bound:
//
//	E_Ẑ E_{θ~π̂} R(θ) ≤ [1 − exp(−(λ/n)·E_Ẑ E_π̂ R̂ − E_Ẑ KL(π̂‖π)/n)] / [1 − exp(−λ/n)]
//
// and the decomposition remark beneath it: E_Ẑ KL(π̂‖π) =
// I(Ẑ;θ) + KL(E_Ẑ π̂ ‖ π), so the expected-KL term is minimized by the
// "optimal prior" π = E_Ẑ π̂ where it equals the mutual information. All
// expectations are estimated over many resamples; the MI identity is
// verified against the average-posterior construction.
func E11ExpectationBound(opts Options) (*Table, error) {
	g := rng.New(opts.Seed)
	resamples := 600
	trueRiskMC := 40_000
	if opts.Quick {
		resamples = 80
		trueRiskMC = 8_000
	}
	model := dataset.LogisticModel{Weights: []float64{2, -1.5}, Bias: 0.3}
	grid := learn.NewGrid(-2, 2, 2, 9) // 81 predictors
	loss := learn.ZeroOneLoss{}
	logPrior := grid.UniformLogPrior()
	trueRisks := make([]float64, grid.Size())
	{
		mc := model.Generate(trueRiskMC, g.Split())
		for i, th := range grid.Thetas() {
			trueRisks[i] = learn.EmpiricalRisk(loss, th, mc)
		}
	}
	t := &Table{
		ID:      "E11",
		Title:   "Equation 1 (in-expectation Catoni bound) and the optimal-prior decomposition, |Theta|=81",
		Columns: []string{"n", "lambda", "E true risk", "Eq.1 bound", "E KL(post||unif)", "I(Z;theta)+KL(avg||unif)", "bound holds"},
	}
	allOK := true
	for _, n := range []int{60, 240} {
		lambda := 2 * math.Sqrt(float64(n))
		var expTrueRisk, expEmpRisk, expKL mathx.Welford
		// Average posterior for the decomposition check (E_Ẑ π̂).
		avgPost := make([]float64, grid.Size())
		// Mutual information term E_Ẑ KL(π̂ ‖ E_Ẑ π̂) needs two passes;
		// store each posterior compactly.
		posts := make([][]float64, 0, resamples)
		for r := 0; r < resamples; r++ {
			d := model.Generate(n, g.Split())
			est, err := gibbs.New(loss, grid.Thetas(), nil, lambda)
			if err != nil {
				return nil, err
			}
			risks := est.Risks(d)
			post, err := est.LogPosterior(risks)
			if err != nil {
				return nil, err
			}
			st, err := pacbayes.StatsFor(post, logPrior, risks)
			if err != nil {
				return nil, err
			}
			expEmpRisk.Add(st.ExpEmpRisk)
			expKL.Add(st.KL)
			var tr mathx.KahanSum
			lin := make([]float64, grid.Size())
			for i, lp := range post {
				p := math.Exp(lp)
				lin[i] = p
				avgPost[i] += p / float64(resamples)
				tr.Add(p * trueRisks[i])
			}
			expTrueRisk.Add(tr.Sum())
			posts = append(posts, lin)
		}
		bound, err := pacbayes.CatoniExpectationBound(expEmpRisk.Mean(), expKL.Mean(), lambda, n)
		if err != nil {
			return nil, err
		}
		holds := expTrueRisk.Mean() <= bound
		allOK = allOK && holds
		// Decomposition: E KL(π̂‖π) = E KL(π̂‖avg) + KL(avg‖π).
		var miTerm mathx.Welford
		for _, p := range posts {
			var kl float64
			for i := range p {
				if p[i] > 0 {
					kl += p[i] * math.Log(p[i]/avgPost[i])
				}
			}
			miTerm.Add(kl)
		}
		var klAvgPrior float64
		for i := range avgPost {
			if avgPost[i] > 0 {
				klAvgPrior += avgPost[i] * math.Log(avgPost[i]/math.Exp(logPrior[i]))
			}
		}
		decomposed := miTerm.Mean() + klAvgPrior
		if !mathx.AlmostEqual(decomposed, expKL.Mean(), 1e-6) {
			allOK = false
		}
		t.AddRow(fmt.Sprint(n), f(lambda), f(expTrueRisk.Mean()), f(bound),
			f(expKL.Mean()), f(decomposed), fmt.Sprint(holds))
	}
	t.AddNote("expected shape: Eq.1 bound dominates the resample-averaged true risk at every n; the KL column equals I+KL(avg||prior) exactly (Catoni's decomposition, Section 4)")
	t.AddNote("all rows ok: %v", allOK)
	return t, nil
}
