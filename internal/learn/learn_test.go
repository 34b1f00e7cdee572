package learn

import (
	"errors"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mathx"
	"repro/internal/rng"
)

func ex(y float64, xs ...float64) dataset.Example {
	return dataset.Example{X: xs, Y: y}
}

func TestZeroOneLoss(t *testing.T) {
	l := ZeroOneLoss{}
	theta := []float64{1, 0}
	if l.Loss(theta, ex(1, 2, 0)) != 0 {
		t.Error("correct classification should cost 0")
	}
	if l.Loss(theta, ex(-1, 2, 0)) != 1 {
		t.Error("misclassification should cost 1")
	}
	if l.Loss(theta, ex(1, 0, 5)) != 1 {
		t.Error("tie (margin 0) should count as error")
	}
	if l.Bound() != 1 || l.Name() != "zero-one" {
		t.Error("metadata")
	}
}

func TestLogisticLossValues(t *testing.T) {
	l := LogisticLoss{}
	// At margin 0 the loss is ln 2.
	if got := l.Loss([]float64{0}, ex(1, 1)); !mathx.AlmostEqual(got, math.Ln2, 1e-12) {
		t.Errorf("logistic at 0 = %v", got)
	}
	// Large positive margin → ~0; large negative margin → ~margin.
	if got := l.Loss([]float64{10}, ex(1, 5)); got > 1e-20 {
		t.Errorf("logistic at +50 = %v", got)
	}
	if got := l.Loss([]float64{10}, ex(-1, 5)); !mathx.AlmostEqual(got, 50, 1e-9) {
		t.Errorf("logistic at -50 = %v", got)
	}
	if !math.IsInf(l.Bound(), 1) {
		t.Error("unbounded")
	}
}

func TestHingeSquaredAbsoluteHuber(t *testing.T) {
	th := []float64{1}
	hinge := HingeLoss{}
	if got := hinge.Loss(th, ex(1, 0.5)); !mathx.AlmostEqual(got, 0.5, 1e-12) {
		t.Errorf("hinge = %v", got)
	}
	if got := hinge.Loss(th, ex(1, 2)); got != 0 {
		t.Errorf("hinge past margin = %v", got)
	}
	sq := SquaredLoss{}
	if got := sq.Loss(th, ex(3, 1)); !mathx.AlmostEqual(got, 4, 1e-12) {
		t.Errorf("squared = %v", got)
	}
	abs := AbsoluteLoss{}
	if got := abs.Loss(th, ex(3, 1)); !mathx.AlmostEqual(got, 2, 1e-12) {
		t.Errorf("absolute = %v", got)
	}
	h := HuberLoss{Delta: 1}
	if got := h.Loss(th, ex(1.5, 1)); !mathx.AlmostEqual(got, 0.125, 1e-12) {
		t.Errorf("huber quadratic = %v", got)
	}
	if got := h.Loss(th, ex(4, 1)); !mathx.AlmostEqual(got, 2.5, 1e-12) {
		t.Errorf("huber linear = %v", got)
	}
}

func TestClippedLoss(t *testing.T) {
	c := NewClippedLoss(SquaredLoss{}, 2)
	th := []float64{1}
	if got := c.Loss(th, ex(10, 1)); got != 2 {
		t.Errorf("clip = %v", got)
	}
	if got := c.Loss(th, ex(1.5, 1)); !mathx.AlmostEqual(got, 0.25, 1e-12) {
		t.Errorf("below clip = %v", got)
	}
	if c.Bound() != 2 {
		t.Error("Bound")
	}
	defer func() {
		if recover() == nil {
			t.Error("Max <= 0 should panic")
		}
	}()
	NewClippedLoss(SquaredLoss{}, 0)
}

func TestSwapSensitivity(t *testing.T) {
	l := NewClippedLoss(SquaredLoss{}, 4)
	if got := SwapSensitivity(l, 100); !mathx.AlmostEqual(got, 0.04, 1e-12) {
		t.Errorf("SwapSensitivity = %v", got)
	}
	// Empirically: replacing one example changes R̂ by at most Bound/n.
	g := rng.New(1)
	d := dataset.LinearModel{Weights: []float64{1}, Noise: 0.2}.Generate(50, g)
	theta := []float64{0.7}
	base := EmpiricalRisk(l, theta, d)
	for trial := 0; trial < 200; trial++ {
		nb := d.ReplaceOne(g.Intn(50), dataset.Example{X: []float64{g.Uniform(-1, 1)}, Y: g.Uniform(-3, 3)})
		if diff := math.Abs(EmpiricalRisk(l, theta, nb) - base); diff > SwapSensitivity(l, 50)+1e-12 {
			t.Fatalf("risk moved %v > sensitivity %v", diff, SwapSensitivity(l, 50))
		}
	}
}

func TestEmpiricalRisk(t *testing.T) {
	d := dataset.New([]dataset.Example{ex(1, 1), ex(-1, 1)})
	// θ=1: first correct, second wrong → 0-1 risk 1/2.
	if got := EmpiricalRisk(ZeroOneLoss{}, []float64{1}, d); got != 0.5 {
		t.Errorf("risk = %v", got)
	}
}

func TestRiskVectorAndERMFinite(t *testing.T) {
	g := rng.New(3)
	model := dataset.LogisticModel{Weights: []float64{3}, Bias: 0}
	d := model.Generate(400, g)
	grid := NewGrid(-2, 2, 1, 41)
	idx, risk := ERMFinite(ZeroOneLoss{}, grid.Thetas(), d)
	best := grid.At(idx)[0]
	if best <= 0 {
		t.Errorf("ERM picked θ=%v for positively-correlated data", best)
	}
	if risk > 0.35 {
		t.Errorf("ERM risk = %v too high", risk)
	}
	rv := RiskVector(ZeroOneLoss{}, grid.Thetas(), d)
	if len(rv) != grid.Size() || rv[idx] != risk {
		t.Error("RiskVector inconsistent with ERMFinite")
	}
}

func TestGridEnumeration(t *testing.T) {
	g := NewGrid(-1, 1, 2, 3)
	if g.Size() != 9 {
		t.Fatalf("Size = %d", g.Size())
	}
	// All points in box; axes hit the endpoints.
	seen := map[[2]float64]bool{}
	for _, th := range g.Thetas() {
		if len(th) != 2 {
			t.Fatal("dim")
		}
		for _, v := range th {
			if v < -1 || v > 1 {
				t.Fatal("out of box")
			}
		}
		seen[[2]float64{th[0], th[1]}] = true
	}
	if len(seen) != 9 {
		t.Fatalf("duplicate grid points: %d unique", len(seen))
	}
	if !seen[[2]float64{-1, -1}] || !seen[[2]float64{1, 1}] || !seen[[2]float64{0, 0}] {
		t.Error("expected corners and center")
	}
	if !mathx.AlmostEqual(g.MaxNorm(), math.Sqrt2, 1e-12) {
		t.Errorf("MaxNorm = %v", g.MaxNorm())
	}
}

func TestGridPriors(t *testing.T) {
	g := NewGrid(-1, 1, 1, 5)
	up := g.UniformLogPrior()
	if !mathx.AlmostEqual(mathx.LogSumExp(up), 0, 1e-12) {
		t.Error("uniform prior normalizes")
	}
	gp := g.GaussianLogPrior(0.5)
	if !mathx.AlmostEqual(mathx.LogSumExp(gp), 0, 1e-12) {
		t.Error("gaussian prior normalizes")
	}
	// Gaussian prior favors the origin.
	if gp[2] <= gp[0] { // grid: -1,-0.5,0,0.5,1 → index 2 is 0
		t.Error("gaussian prior should peak at origin")
	}
}

func TestGridPanics(t *testing.T) {
	for i, fn := range []func(){
		func() { NewGrid(1, 0, 1, 3) },
		func() { NewGrid(0, 1, 0, 3) },
		func() { NewGrid(0, 1, 8, 10) }, // 1e8 points
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

func TestGridLossBounds(t *testing.T) {
	g := NewGrid(-2, 2, 2, 5)
	// Max margin magnitude = maxNorm·1 = 2√2.
	sb := g.SquaredLossBound(1, 1)
	wantSq := (2*math.Sqrt2 + 1) * (2*math.Sqrt2 + 1)
	if !mathx.AlmostEqual(sb, wantSq, 1e-9) {
		t.Errorf("SquaredLossBound = %v, want %v", sb, wantSq)
	}
}

func TestMinimizeGDQuadratic(t *testing.T) {
	// Minimize (x−3)² + (y+1)².
	obj := func(x []float64) (float64, []float64) {
		dx, dy := x[0]-3, x[1]+1
		return dx*dx + dy*dy, []float64{2 * dx, 2 * dy}
	}
	x, err := MinimizeGD(obj, []float64{0, 0}, GDOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !mathx.AlmostEqual(x[0], 3, 1e-5) || !mathx.AlmostEqual(x[1], -1, 1e-5) {
		t.Errorf("GD minimizer = %v", x)
	}
}

func TestMinimizeGDNotConverged(t *testing.T) {
	obj := func(x []float64) (float64, []float64) {
		v := x[0]
		return v * v * v * v, []float64{4 * v * v * v}
	}
	_, err := MinimizeGD(obj, []float64{3}, GDOptions{MaxIter: 1, Tol: 1e-15})
	if !errors.Is(err, ErrNotConverged) {
		t.Errorf("expected ErrNotConverged, got %v", err)
	}
}

func TestLogisticRegressionRecovers(t *testing.T) {
	g := rng.New(7)
	model := dataset.LogisticModel{Weights: []float64{2, -1}, Bias: 0}
	d := model.Generate(3000, g)
	theta, err := LogisticRegression(d, 1e-4, GDOptions{MaxIter: 2000, Tol: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	// Direction should match the true weights (ratio ≈ -2).
	if theta[0] <= 0 || theta[1] >= 0 {
		t.Fatalf("signs wrong: %v", theta)
	}
	ratio := theta[0] / theta[1]
	if math.Abs(ratio+2) > 0.5 {
		t.Errorf("weight ratio = %v, want ≈ -2 (theta=%v)", ratio, theta)
	}
	// Training error should beat chance comfortably.
	if errRate := ClassificationError(theta, d); errRate > 0.35 {
		t.Errorf("training error = %v", errRate)
	}
}

func TestLogisticObjectiveGradientCheck(t *testing.T) {
	g := rng.New(9)
	d := dataset.LogisticModel{Weights: []float64{1, 1}, Bias: 0}.Generate(50, g)
	obj := LogisticObjective(d, 0.1)
	theta := []float64{0.3, -0.7}
	_, grad := obj(theta)
	// Finite differences.
	const h = 1e-6
	for j := range theta {
		tp := append([]float64(nil), theta...)
		tm := append([]float64(nil), theta...)
		tp[j] += h
		tm[j] -= h
		fp, _ := obj(tp)
		fm, _ := obj(tm)
		fd := (fp - fm) / (2 * h)
		if !mathx.AlmostEqual(grad[j], fd, 1e-5) {
			t.Errorf("grad[%d] = %v, finite diff = %v", j, grad[j], fd)
		}
	}
}

func TestRidgeRegressionRecovers(t *testing.T) {
	g := rng.New(11)
	model := dataset.LinearModel{Weights: []float64{1.5, -0.5}, Noise: 0.05}
	d := model.Generate(2000, g)
	theta, err := RidgeRegression(d, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(theta[0]-1.5) > 0.05 || math.Abs(theta[1]+0.5) > 0.05 {
		t.Errorf("ridge = %v", theta)
	}
	if mse := MeanSquaredError(theta, d); mse > 0.01 {
		t.Errorf("MSE = %v", mse)
	}
}

func TestRidgeShrinkage(t *testing.T) {
	g := rng.New(13)
	d := dataset.LinearModel{Weights: []float64{2}, Noise: 0.1}.Generate(100, g)
	small, _ := RidgeRegression(d, 1e-6)
	big, _ := RidgeRegression(d, 100)
	if mathx.L2Norm(big) >= mathx.L2Norm(small) {
		t.Error("larger lambda must shrink coefficients")
	}
}

func TestClassifyLinear(t *testing.T) {
	if ClassifyLinear([]float64{1}, []float64{2}) != 1 {
		t.Error("positive")
	}
	if ClassifyLinear([]float64{1}, []float64{-2}) != -1 {
		t.Error("negative")
	}
	if ClassifyLinear([]float64{1}, []float64{0}) != -1 {
		t.Error("tie maps to -1")
	}
}

func TestProjectL2(t *testing.T) {
	x := []float64{3, 4}
	ProjectL2(x, 1)
	if !mathx.AlmostEqual(mathx.L2Norm(x), 1, 1e-12) {
		t.Errorf("projected norm = %v", mathx.L2Norm(x))
	}
	y := []float64{0.1, 0.1}
	ProjectL2(y, 1)
	if y[0] != 0.1 {
		t.Error("inside ball must be untouched")
	}
}

func TestOutputPerturbationLogistic(t *testing.T) {
	g := rng.New(17)
	model := dataset.LogisticModel{Weights: []float64{2, -1}, Bias: 0}
	d := model.Generate(2000, g).NormalizeRows()
	lambda := 0.01
	// Huge ε: should be close to the non-private solution.
	thetaBig, err := OutputPerturbationLogistic(d, lambda, 1e6, GDOptions{MaxIter: 1000}, g)
	if err != nil {
		t.Fatal(err)
	}
	nonPriv, _ := LogisticRegression(d, lambda, GDOptions{MaxIter: 1000})
	diff := 0.0
	for i := range thetaBig {
		diff += math.Abs(thetaBig[i] - nonPriv[i])
	}
	if diff > 0.01 {
		t.Errorf("huge-ε output perturbation far from ERM: diff=%v", diff)
	}
	// Small ε adds substantial noise on average.
	var w mathx.Welford
	for trial := 0; trial < 50; trial++ {
		th, err := OutputPerturbationLogistic(d, lambda, 0.1, GDOptions{MaxIter: 300}, g)
		if err != nil {
			t.Fatal(err)
		}
		d2 := 0.0
		for i := range th {
			d2 += (th[i] - nonPriv[i]) * (th[i] - nonPriv[i])
		}
		w.Add(math.Sqrt(d2))
	}
	wantScale := 2 / (float64(d.Len()) * lambda * 0.1) // scale = 2/(nλε)
	// Mean gamma(d=2, scale) magnitude = 2·scale.
	if math.Abs(w.Mean()-2*wantScale)/(2*wantScale) > 0.3 {
		t.Errorf("noise magnitude mean = %v, want ≈ %v", w.Mean(), 2*wantScale)
	}
}

func TestOutputPerturbationValidation(t *testing.T) {
	g := rng.New(19)
	d := dataset.LogisticModel{Weights: []float64{1}}.Generate(10, g)
	if _, err := OutputPerturbationLogistic(d, 0, 1, GDOptions{}, g); err == nil {
		t.Error("lambda=0 must error")
	}
	if _, err := OutputPerturbationLogistic(d, 0.1, 0, GDOptions{}, g); err == nil {
		t.Error("epsilon=0 must error")
	}
}

func TestObjectivePerturbationLogistic(t *testing.T) {
	g := rng.New(23)
	model := dataset.LogisticModel{Weights: []float64{2, -1}, Bias: 0}
	d := model.Generate(2000, g).NormalizeRows()
	test := model.Generate(2000, g).NormalizeRows()
	lambda := 0.01
	// Large ε ≈ non-private accuracy.
	th, err := ObjectivePerturbationLogistic(d, lambda, 100, GDOptions{MaxIter: 1000}, g)
	if err != nil {
		t.Fatal(err)
	}
	nonPriv, _ := LogisticRegression(d, lambda, GDOptions{MaxIter: 1000})
	if ClassificationError(th, test) > ClassificationError(nonPriv, test)+0.05 {
		t.Errorf("large-ε objective perturbation much worse than ERM: %v vs %v",
			ClassificationError(th, test), ClassificationError(nonPriv, test))
	}
	// Small ε still runs (adjusted Δ path) and returns finite params.
	thSmall, err := ObjectivePerturbationLogistic(d, 1e-6, 0.05, GDOptions{MaxIter: 300}, g)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range thSmall {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("non-finite parameter")
		}
	}
	if _, err := ObjectivePerturbationLogistic(d, 0, 1, GDOptions{}, g); err == nil {
		t.Error("lambda=0 must error")
	}
}

func TestTrueRiskMC(t *testing.T) {
	g := rng.New(29)
	model := dataset.LogisticModel{Weights: []float64{5}, Bias: 0}
	gen := func() dataset.Example {
		d := model.Generate(1, g)
		return d.Examples[0]
	}
	// θ aligned with the truth: risk below 1/2. θ = 0 (ties): risk 1.
	risk := TrueRiskMC(ZeroOneLoss{}, []float64{1}, gen, 20000)
	if risk > 0.4 {
		t.Errorf("aligned risk = %v", risk)
	}
}

func TestRiskVectorParallelMatchesSequential(t *testing.T) {
	// Force the parallel path (large |Θ|·n) and compare against a direct
	// sequential computation.
	g := rng.New(99)
	d := dataset.LogisticModel{Weights: []float64{1, -1}}.Generate(300, g)
	grid := NewGrid(-2, 2, 2, 17) // 289 · 300 > 2^14 → parallel path
	par := RiskVector(ZeroOneLoss{}, grid.Thetas(), d)
	seq := make([]float64, grid.Size())
	for i, th := range grid.Thetas() {
		seq[i] = EmpiricalRisk(ZeroOneLoss{}, th, d)
	}
	for i := range seq {
		if par[i] != seq[i] {
			t.Fatalf("parallel[%d] = %v != sequential %v", i, par[i], seq[i])
		}
	}
}

func BenchmarkRiskVectorParallel(b *testing.B) {
	g := rng.New(1)
	d := dataset.LogisticModel{Weights: []float64{1, -1}}.Generate(2000, g)
	grid := NewGrid(-2, 2, 2, 17)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = RiskVector(ZeroOneLoss{}, grid.Thetas(), d)
	}
}
