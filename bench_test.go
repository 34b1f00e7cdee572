package dplearn

// This file holds the benchmark harness of deliverable (d): one
// testing.B benchmark per experiment table (E1–E10 from DESIGN.md's
// per-experiment index), each regenerating its table in Quick mode and
// reporting the experiment's key scalar as a custom metric. Run with
//
//	go test -bench=. -benchmem
//
// The full-size tables are produced by cmd/dplearn-experiments.

import (
	"strconv"
	"testing"

	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/learn"
	"repro/internal/parallel"
	"repro/internal/rng"
)

// benchOpts returns deterministic quick options; the benchmark index
// varies the seed so -count>1 runs see fresh randomness.
func benchOpts(i int) experiments.Options {
	return experiments.Options{Seed: int64(1000 + i), Quick: true}
}

// lastFloatCell parses the table's last numeric cell in the given column
// of the final row, reported as a ballpark metric.
func lastFloatCell(b *testing.B, t *experiments.Table, col int) float64 {
	b.Helper()
	if len(t.Rows) == 0 {
		b.Fatal("experiment produced no rows")
	}
	row := t.Rows[len(t.Rows)-1]
	if col >= len(row) {
		b.Fatalf("column %d out of range", col)
	}
	v, err := strconv.ParseFloat(row[col], 64)
	if err != nil {
		b.Fatalf("cell %q not numeric: %v", row[col], err)
	}
	return v
}

func runExperiment(b *testing.B, id string, metricCol int, metricName string) {
	b.Helper()
	var metric float64
	for i := 0; i < b.N; i++ {
		t, err := experiments.Run(id, benchOpts(i))
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		metric = lastFloatCell(b, t, metricCol)
	}
	b.ReportMetric(metric, metricName)
}

// BenchmarkE1LaplacePrivacy regenerates E1 (Theorem 2.1 audit).
// Metric: empirical ε̂ at the largest ε row.
func BenchmarkE1LaplacePrivacy(b *testing.B) { runExperiment(b, "E1", 2, "emp_eps") }

// BenchmarkE2ExpMechPrivacy regenerates E2 (Theorem 2.2 exact audit).
// Metric: audited ε at the largest mechanism ε.
func BenchmarkE2ExpMechPrivacy(b *testing.B) { runExperiment(b, "E2", 2, "audit_eps") }

// BenchmarkE3CatoniBound regenerates E3 (Theorem 3.1 validity).
// Metric: bound-risk gap at the largest n.
func BenchmarkE3CatoniBound(b *testing.B) { runExperiment(b, "E3", 4, "bound_gap") }

// BenchmarkE4GibbsOptimality regenerates E4 (Lemma 3.2).
// Metric: the Gibbs objective value at the largest λ.
func BenchmarkE4GibbsOptimality(b *testing.B) { runExperiment(b, "E4", 1, "gibbs_obj") }

// BenchmarkE5GibbsPrivacy regenerates E5 (Theorem 4.1 exact audit).
// Metric: audited ε at the largest λ.
func BenchmarkE5GibbsPrivacy(b *testing.B) { runExperiment(b, "E5", 3, "audit_eps") }

// BenchmarkE6MIRiskTradeoff regenerates E6 (Theorem 4.2 / Figure 1).
// Metric: I(Ẑ;θ) in nats at the largest λ.
func BenchmarkE6MIRiskTradeoff(b *testing.B) { runExperiment(b, "E6", 2, "mi_nats") }

// BenchmarkE7BaselineComparison regenerates E7 (Chaudhuri et al.
// baselines). Metric: Gibbs test error at the largest (n, ε).
func BenchmarkE7BaselineComparison(b *testing.B) { runExperiment(b, "E7", 3, "gibbs_err") }

// BenchmarkE8LeakageBounds regenerates E8 (leakage caps).
// Metric: measured MI in bits at the largest ε.
func BenchmarkE8LeakageBounds(b *testing.B) { runExperiment(b, "E8", 1, "mi_bits") }

// BenchmarkE9PrivateRegression regenerates E9 (future work: regression).
// Metric: Gibbs true risk at the largest (n, ε).
func BenchmarkE9PrivateRegression(b *testing.B) { runExperiment(b, "E9", 2, "true_risk") }

// BenchmarkE10DensityEstimation regenerates E10 (future work: density
// estimation). Metric: Laplace-histogram L1 error at the largest (n, ε).
func BenchmarkE10DensityEstimation(b *testing.B) { runExperiment(b, "E10", 2, "l1_err") }

// BenchmarkA1PriorAblation regenerates ablation A1 (prior choice).
// Metric: Catoni bound under the narrowest prior.
func BenchmarkA1PriorAblation(b *testing.B) { runExperiment(b, "A1", 3, "bound") }

// BenchmarkA2LambdaSelection regenerates ablation A2 (λ selection).
// Metric: the selected bound at the largest n.
func BenchmarkA2LambdaSelection(b *testing.B) { runExperiment(b, "A2", 4, "sel_bound") }

// BenchmarkA3MCMCvsExact regenerates ablation A3 (exact vs MCMC).
// Metric: MALA's absolute error against the exact posterior mean.
func BenchmarkA3MCMCvsExact(b *testing.B) { runExperiment(b, "A3", 2, "mala_err") }

// BenchmarkA4BoundComparison regenerates ablation A4 (bound family).
// Metric: the Seeger bound at the largest n.
func BenchmarkA4BoundComparison(b *testing.B) { runExperiment(b, "A4", 4, "seeger") }

// BenchmarkA5LeakageMeasures regenerates ablation A5 (leakage measures).
// Metric: min-entropy leakage in bits at the largest ε.
func BenchmarkA5LeakageMeasures(b *testing.B) { runExperiment(b, "A5", 2, "minent_bits") }

// BenchmarkA6PermuteAndFlip regenerates ablation A6 (EM vs PF selection).
// Metric: the PF/EM quality-gap ratio at the largest ε.
func BenchmarkA6PermuteAndFlip(b *testing.B) { runExperiment(b, "A6", 3, "pf_over_em") }

// BenchmarkA7MWEM regenerates ablation A7 (MWEM synthetic data).
// Metric: MWEM max query error at the largest (n, ε).
func BenchmarkA7MWEM(b *testing.B) { runExperiment(b, "A7", 2, "max_err") }

// BenchmarkA8NoisyGD regenerates ablation A8 (iterative private GD).
// Metric: NoisyGD test error at the largest budget.
func BenchmarkA8NoisyGD(b *testing.B) { runExperiment(b, "A8", 3, "gd_err") }

// BenchmarkE11ExpectationBound regenerates E11 (Equation 1 in-expectation
// bound). Metric: the Eq.1 bound at the largest n.
func BenchmarkE11ExpectationBound(b *testing.B) { runExperiment(b, "E11", 3, "eq1_bound") }

// BenchmarkE12Reconstruction regenerates E12 (attack vs Fano limits).
// Metric: the Bayes attack accuracy at the largest ε.
func BenchmarkE12Reconstruction(b *testing.B) { runExperiment(b, "E12", 2, "attack_acc") }

// BenchmarkA9LocalVsCentral regenerates A9 (local vs central DP).
// Metric: the central Laplace L1 error at the largest ε.
func BenchmarkA9LocalVsCentral(b *testing.B) { runExperiment(b, "A9", 1, "central_l1") }

// BenchmarkA10PrivatePCA regenerates A10 (DP-PCA).
// Metric: the private/exact captured-variance ratio at the largest (n, ε).
func BenchmarkA10PrivatePCA(b *testing.B) { runExperiment(b, "A10", 4, "var_ratio") }

// BenchmarkA11SparseVector regenerates A11 (SVT precision/recall).
// Metric: recall at the largest ε.
func BenchmarkA11SparseVector(b *testing.B) { runExperiment(b, "A11", 2, "recall") }

// ---------------------------------------------------------------------
// Serial vs parallel fan-out benchmarks (internal/parallel). Compare the
// *Serial (Workers=1) and *Parallel (Workers=0 = GOMAXPROCS) variants of
// each pair; recorded runs live in results/bench_parallel.txt. Outputs
// are bit-identical across the variants — only wall-clock differs.
// ---------------------------------------------------------------------

// benchRiskSetup builds a 10,000-predictor grid (100² coefficient
// lattice) and a 1,000-example regression sample: 10M loss evaluations
// per risk vector.
func benchRiskSetup() (learn.Loss, [][]float64, *dataset.Dataset) {
	thetas := learn.NewGrid(-2, 2, 2, 100).Thetas()
	model := dataset.LinearModel{Weights: []float64{1.2, -0.6}, Noise: 0.3}
	d := model.Generate(1000, rng.New(7))
	return learn.NewClippedLoss(learn.SquaredLoss{}, 25), thetas, d
}

func benchRiskVector10k(b *testing.B, workers int) {
	loss, thetas, d := benchRiskSetup()
	opts := parallel.Options{Workers: workers}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = learn.RiskVectorOpts(loss, thetas, d, opts)
	}
}

// BenchmarkRiskVector10kSerial evaluates the 10k-θ risk grid with one
// worker.
func BenchmarkRiskVector10kSerial(b *testing.B) { benchRiskVector10k(b, 1) }

// BenchmarkRiskVector10kParallel evaluates the same grid with all CPUs.
func BenchmarkRiskVector10kParallel(b *testing.B) { benchRiskVector10k(b, 0) }

func benchLearner(b *testing.B, workers int) *Learner {
	b.Helper()
	loss, thetas, _ := benchRiskSetup()
	l, err := NewLearner(Config{
		Loss:     loss,
		Thetas:   thetas,
		Epsilon:  1,
		Parallel: parallel.Options{Workers: workers},
	})
	if err != nil {
		b.Fatal(err)
	}
	return l
}

// BenchmarkCertify10kCold certifies the 10k-θ learner with an empty risk
// cache every iteration (a fresh Learner per iteration).
func BenchmarkCertify10kCold(b *testing.B) {
	_, _, d := benchRiskSetup()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		l := benchLearner(b, 0)
		b.StartTimer()
		if _, err := l.Certify(d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCertify10kWarm certifies repeatedly on one Learner, so every
// iteration after the first makes its one risk-cache lookup a hit.
func BenchmarkCertify10kWarm(b *testing.B) {
	_, _, d := benchRiskSetup()
	l := benchLearner(b, 0)
	if _, err := l.Certify(d); err != nil { // prime the cache
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Certify(d); err != nil {
			b.Fatal(err)
		}
	}
}

func benchSweepE9(b *testing.B, workers int) {
	for i := 0; i < b.N; i++ {
		opts := experiments.Options{Seed: int64(1000 + i), Quick: true, Workers: workers}
		if _, err := experiments.Run("E9", opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepE9Serial runs the E9 regression sweep with its (n, ε)
// cells on one worker.
func BenchmarkSweepE9Serial(b *testing.B) { benchSweepE9(b, 1) }

// BenchmarkSweepE9Parallel fans the same sweep's cells across all CPUs.
func BenchmarkSweepE9Parallel(b *testing.B) { benchSweepE9(b, 0) }
