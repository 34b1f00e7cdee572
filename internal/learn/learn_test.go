package learn

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mathx"
	"repro/internal/parallel"
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

// genericZeroOne is ZeroOneLoss under a type that EmpiricalRisk's
// counting loop does not recognise, so it runs the generic Kahan loop
// over Loss: the reference that loop must match bit for bit.
type genericZeroOne struct{ ZeroOneLoss }

// TestRiskVectorParallelMatchesSequential pins the zero-one risk, the
// served quality vector, bit for bit: EmpiricalRisk's counting loop and
// RiskVectorOpts at one worker and at all CPUs against the generic Kahan
// loop, over dims 1–4 and n on both sides of the 1<<14 serial cutoff.
// θ = 0 and all-zero rows tie (dot 0, an error), labels are 0 and ±1,
// and features near ±1e308 overflow the products so the compensated dot
// is NaN (also an error). A ragged row panics with mathx.Dot's message
// on both loops and surfaces from RiskVectorCtx as a WorkerError.
func TestRiskVectorParallelMatchesSequential(t *testing.T) {
	for _, tc := range []struct{ dim, points int }{{1, 17}, {2, 9}, {3, 5}, {4, 5}} {
		for _, n := range []int{1, 24, 500, 2000} {
			g := rng.New(int64(99 + 10*tc.dim + n))
			rows := make([]dataset.Example, n)
			for i := range rows {
				x := make([]float64, tc.dim)
				kind := g.Intn(3) // 0: ordinary, 1: all zero, 2: near ±1e308
				for j := range x {
					switch kind {
					case 0:
						x[j] = g.Normal(0, 1)
					case 2:
						x[j] = (1 + g.Float64()*0.7) * 1e308
						if g.Bernoulli(0.5) {
							x[j] = -x[j]
						}
					}
				}
				rows[i] = dataset.Example{X: x, Y: float64(g.Intn(3) - 1)}
			}
			d := dataset.New(rows)
			thetas := append(NewGrid(-2, 2, tc.dim, tc.points).Thetas(), make([]float64, tc.dim))
			serial := RiskVectorOpts(ZeroOneLoss{}, thetas, d, parallel.Options{Workers: 1})
			par := RiskVectorOpts(ZeroOneLoss{}, thetas, d, parallel.Options{})
			for i, th := range thetas {
				want := math.Float64bits(EmpiricalRisk(genericZeroOne{}, th, d))
				for path, got := range map[string]float64{
					"EmpiricalRisk":            EmpiricalRisk(ZeroOneLoss{}, th, d),
					"RiskVectorOpts/Workers=1": serial[i],
					"RiskVectorOpts/Workers=0": par[i],
				} {
					if math.Float64bits(got) != want {
						t.Fatalf("dim=%d n=%d θ[%d]=%v: %s = %v (%#x), generic Kahan loop %v (%#x)",
							tc.dim, n, i, th, path, got, math.Float64bits(got), math.Float64frombits(want), want)
					}
				}
			}
			if r := serial[len(thetas)-1]; r != 1 { //dplint:ignore floateq θ = 0 ties on every row, so its risk is exactly 1
				t.Fatalf("dim=%d n=%d: risk of θ = 0 is %v, want 1 (ties are errors)", tc.dim, n, r)
			}
		}
	}

	ragged := dataset.New([]dataset.Example{ex(1, 1, 2), ex(-1, 1, 2, 3)})
	theta := []float64{1, -1}
	for _, l := range []Loss{ZeroOneLoss{}, genericZeroOne{}} {
		func() {
			defer func() {
				if r := recover(); r != "mathx: Dot length mismatch" {
					t.Errorf("%T on a ragged row panicked with %v, want mathx.Dot's length mismatch", l, r)
				}
			}()
			EmpiricalRisk(l, theta, ragged)
		}()
		_, err := RiskVectorCtx(context.Background(), l, [][]float64{theta}, ragged, parallel.Options{})
		var we *parallel.WorkerError
		if !errors.As(err, &we) || we.Value != "mathx: Dot length mismatch" {
			t.Errorf("%T: RiskVectorCtx on a ragged row returned %v, want a WorkerError carrying mathx.Dot's length mismatch", l, err)
		}
	}
}

// FuzzZeroOneRisk: EmpiricalRisk's counting loop and the generic Kahan
// loop agree bit for bit on any θ, rows and labels, whatever their
// float bits — ±0, subnormals, ±Inf and NaN included. raw is read as
// little-endian float64 words: θ first, then rows of dim features and a
// label.
func FuzzZeroOneRisk(f *testing.F) {
	words := func(xs ...float64) []byte {
		b := make([]byte, 0, 8*len(xs))
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	negZero, tiny, inf, nan := math.Copysign(0, -1), math.SmallestNonzeroFloat64, math.Inf(1), math.NaN()
	f.Add(uint8(1), words(1, 2, 1, -3, -1, 0, 1, 4, 0))
	f.Add(uint8(2), words(0, negZero, 1, 2, 1, 0, 0, -1, negZero, 5, 1))
	f.Add(uint8(2), words(tiny, -tiny, tiny, tiny, 1, -tiny, 1e308, -1, 4e-310, 3, negZero))
	f.Add(uint8(3), words(2, -2, 1, 1e308, 1e308, -1e308, 1, inf, 0, 1, 1, nan, nan, 1, 1, 1, -1, 1, -inf))
	f.Fuzz(func(t *testing.T, dim uint8, raw []byte) {
		k := 1 + int(dim%4)
		vals := make([]float64, len(raw)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		if len(vals) < 2*k+1 {
			return // no room for θ and one row
		}
		theta := vals[:k]
		var rows []dataset.Example
		for rest := vals[k:]; len(rest) >= k+1; rest = rest[k+1:] {
			rows = append(rows, dataset.Example{X: rest[:k], Y: rest[k]})
		}
		d := dataset.New(rows)
		got, want := EmpiricalRisk(ZeroOneLoss{}, theta, d), EmpiricalRisk(genericZeroOne{}, theta, d)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("θ=%v rows=%v: counting loop %v (%#x), generic Kahan loop %v (%#x)",
				theta, rows, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	})
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

// BenchmarkRiskVectorZeroOne900x500Serial times the served risk grid's
// shape: the zero-one risk of 900 predictors (a 30×30 grid) on 500
// rows, on one worker.
func BenchmarkRiskVectorZeroOne900x500Serial(b *testing.B) { benchRiskVectorZeroOne900x500(b, 1) }

// BenchmarkRiskVectorZeroOne900x500Parallel is the same grid on every
// CPU.
func BenchmarkRiskVectorZeroOne900x500Parallel(b *testing.B) { benchRiskVectorZeroOne900x500(b, 0) }

func benchRiskVectorZeroOne900x500(b *testing.B, workers int) {
	g := rng.New(1)
	d := dataset.LogisticModel{Weights: []float64{1, -1}}.Generate(500, g)
	thetas := NewGrid(-2, 2, 2, 30).Thetas()
	opts := parallel.Options{Workers: workers}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = RiskVectorOpts(ZeroOneLoss{}, thetas, d, opts)
	}
}
