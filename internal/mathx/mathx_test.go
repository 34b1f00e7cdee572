package mathx

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestLogSumExpBasic(t *testing.T) {
	tests := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, math.Inf(-1)},
		{"single", []float64{3}, 3},
		{"two equal", []float64{0, 0}, math.Ln2},
		{"with neg inf", []float64{math.Inf(-1), 1}, 1},
		{"all neg inf", []float64{math.Inf(-1), math.Inf(-1)}, math.Inf(-1)},
		{"large values", []float64{1000, 1000}, 1000 + math.Ln2},
		{"very negative", []float64{-1000, -1000}, -1000 + math.Ln2},
	}
	for _, tc := range tests {
		got := LogSumExp(tc.xs)
		if !AlmostEqual(got, tc.want, 1e-12) && !(math.IsInf(got, -1) && math.IsInf(tc.want, -1)) {
			t.Errorf("%s: LogSumExp(%v) = %v, want %v", tc.name, tc.xs, got, tc.want)
		}
	}
}

func TestLogSumExpPosInf(t *testing.T) {
	if got := LogSumExp([]float64{1, math.Inf(1)}); !math.IsInf(got, 1) {
		t.Errorf("LogSumExp with +Inf = %v, want +Inf", got)
	}
}

func TestLogSumExpShiftInvariance(t *testing.T) {
	// log sum exp(x + c) = c + log sum exp(x)
	f := func(a, b, c float64) bool {
		a = math.Mod(a, 50)
		b = math.Mod(b, 50)
		c = math.Mod(c, 50)
		lhs := LogSumExp([]float64{a + c, b + c})
		rhs := c + LogSumExp([]float64{a, b})
		return AlmostEqual(lhs, rhs, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLogAddExpMatchesLogSumExp(t *testing.T) {
	f := func(a, b float64) bool {
		a = math.Mod(a, 100)
		b = math.Mod(b, 100)
		return AlmostEqual(LogAddExp(a, b), LogSumExp([]float64{a, b}), 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLog1mExp(t *testing.T) {
	for _, x := range []float64{-0.1, -0.5, -math.Ln2, -1, -5, -50} {
		want := math.Log(1 - math.Exp(x))
		got := Log1mExp(x)
		if !AlmostEqual(got, want, 1e-9) {
			t.Errorf("Log1mExp(%v) = %v, want %v", x, got, want)
		}
	}
	if !math.IsInf(Log1mExp(0), -1) {
		t.Error("Log1mExp(0) should be -Inf")
	}
	// Near zero the naive formula log(1-exp(x)) suffers catastrophic
	// cancellation; the accurate value is log(-expm1(x)) ≈ log(-x).
	if got, want := Log1mExp(-1e-10), math.Log(1e-10); !AlmostEqual(got, want, 1e-9) {
		t.Errorf("Log1mExp(-1e-10) = %v, want ≈ %v", got, want)
	}
	if !math.IsNaN(Log1mExp(0.5)) {
		t.Error("Log1mExp(positive) should be NaN")
	}
}

func TestLogSubExp(t *testing.T) {
	got := LogSubExp(math.Log(5), math.Log(3))
	if !AlmostEqual(got, math.Log(2), 1e-12) {
		t.Errorf("LogSubExp(log5, log3) = %v, want log2", got)
	}
	if !math.IsInf(LogSubExp(1, 1), -1) {
		t.Error("LogSubExp(a, a) should be -Inf")
	}
	if !math.IsNaN(LogSubExp(0, 1)) {
		t.Error("LogSubExp(a<b) should be NaN")
	}
}

func TestLogNormalize(t *testing.T) {
	xs := []float64{1, 2, 3}
	norm, logZ := LogNormalize(xs)
	if !AlmostEqual(LogSumExp(norm), 0, 1e-12) {
		t.Errorf("normalized log-weights sum to %v in log space, want 0", LogSumExp(norm))
	}
	if !AlmostEqual(logZ, LogSumExp(xs), 1e-12) {
		t.Errorf("logZ = %v, want %v", logZ, LogSumExp(xs))
	}
	// degenerate all -Inf
	norm2, logZ2 := LogNormalize([]float64{math.Inf(-1), math.Inf(-1)})
	if !math.IsInf(logZ2, -1) {
		t.Error("logZ of all -Inf should be -Inf")
	}
	for _, v := range norm2 {
		if !math.IsInf(v, -1) {
			t.Error("normalized all -Inf should stay -Inf")
		}
	}
}

func TestExpNormalize(t *testing.T) {
	p := ExpNormalize([]float64{0, 0, 0, 0})
	for _, v := range p {
		if !AlmostEqual(v, 0.25, 1e-12) {
			t.Errorf("uniform ExpNormalize gave %v, want 0.25", v)
		}
	}
	sum := SumSlice(ExpNormalize([]float64{-3, 7, 0.5, 2}))
	if !AlmostEqual(sum, 1, 1e-12) {
		t.Errorf("ExpNormalize sums to %v, want 1", sum)
	}
	z := ExpNormalize([]float64{math.Inf(-1)})
	if z[0] != 0 {
		t.Error("ExpNormalize of -Inf should be 0")
	}
}

func TestSigmoidProperties(t *testing.T) {
	if got := Sigmoid(0); !AlmostEqual(got, 0.5, 1e-15) {
		t.Errorf("Sigmoid(0) = %v", got)
	}
	if got := Sigmoid(1000); got != 1 {
		t.Errorf("Sigmoid(1000) = %v, want 1", got)
	}
	if got := Sigmoid(-1000); got != 0 {
		t.Errorf("Sigmoid(-1000) = %v, want 0", got)
	}
	// symmetry: sigmoid(-x) = 1 - sigmoid(x)
	f := func(x float64) bool {
		x = math.Mod(x, 100)
		return AlmostEqual(Sigmoid(-x), 1-Sigmoid(x), 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLogSigmoid(t *testing.T) {
	for _, x := range []float64{-30, -1, 0, 1, 30} {
		want := math.Log(Sigmoid(x))
		if !AlmostEqual(LogSigmoid(x), want, 1e-12) {
			t.Errorf("LogSigmoid(%v) = %v, want %v", x, LogSigmoid(x), want)
		}
	}
	// No overflow at extreme negatives: log sigmoid(-1000) ~ -1000.
	if got := LogSigmoid(-1000); !AlmostEqual(got, -1000, 1e-9) {
		t.Errorf("LogSigmoid(-1000) = %v", got)
	}
}

func TestLogitInvertsSigmoid(t *testing.T) {
	for _, p := range []float64{0.01, 0.25, 0.5, 0.9, 0.999} {
		if got := Sigmoid(Logit(p)); !AlmostEqual(got, p, 1e-12) {
			t.Errorf("Sigmoid(Logit(%v)) = %v", p, got)
		}
	}
}

func TestXLogX(t *testing.T) {
	if XLogX(0) != 0 {
		t.Error("XLogX(0) must be 0")
	}
	if !AlmostEqual(XLogX(math.E), math.E, 1e-12) {
		t.Error("XLogX(e) should be e")
	}
}

func TestXLogY(t *testing.T) {
	if XLogY(0, 0) != 0 {
		t.Error("XLogY(0,0) must be 0")
	}
	if !math.IsInf(XLogY(1, 0), -1) {
		t.Error("XLogY(1,0) must be -Inf")
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Error("Clamp misbehaves")
	}
	defer func() {
		if recover() == nil {
			t.Error("Clamp(lo>hi) should panic")
		}
	}()
	Clamp(0, 1, 0)
}

func TestNormalCDFKnownValues(t *testing.T) {
	tests := []struct{ x, want float64 }{
		{0, 0.5},
		{1.959963984540054, 0.975},
		{-1.959963984540054, 0.025},
		{3, 0.9986501019683699},
	}
	for _, tc := range tests {
		if got := NormalCDF(tc.x); !AlmostEqual(got, tc.want, 1e-9) {
			t.Errorf("NormalCDF(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
}

func TestNormalQuantileInvertsCDF(t *testing.T) {
	for _, p := range []float64{0.001, 0.025, 0.5, 0.9, 0.999} {
		x := NormalQuantile(p)
		if !AlmostEqual(NormalCDF(x), p, 1e-9) {
			t.Errorf("NormalCDF(NormalQuantile(%v)) = %v", p, NormalCDF(x))
		}
	}
	if !math.IsInf(NormalQuantile(0), -1) || !math.IsInf(NormalQuantile(1), 1) {
		t.Error("NormalQuantile endpoints")
	}
	if !math.IsNaN(NormalQuantile(1.5)) {
		t.Error("NormalQuantile(1.5) should be NaN")
	}
}

func TestKahanSumPrecision(t *testing.T) {
	// Sum 1 + 1e-16 repeated: naive summation loses the small terms.
	var k KahanSum
	k.Add(1)
	for i := 0; i < 1_000_000; i++ {
		k.Add(1e-16)
	}
	want := 1 + 1e-10
	if !AlmostEqual(k.Sum(), want, 1e-12) {
		t.Errorf("KahanSum = %.18f, want %.18f", k.Sum(), want)
	}
}

func TestWelford(t *testing.T) {
	var w Welford
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	for _, x := range xs {
		w.Add(x)
	}
	if !AlmostEqual(w.Mean(), 5, 1e-12) {
		t.Errorf("Mean = %v", w.Mean())
	}
	if !AlmostEqual(w.PopulationVariance(), 4, 1e-12) {
		t.Errorf("PopulationVariance = %v", w.PopulationVariance())
	}
	if !AlmostEqual(w.Variance(), 32.0/7.0, 1e-12) {
		t.Errorf("Variance = %v", w.Variance())
	}
	var empty Welford
	if !math.IsNaN(empty.Variance()) || !math.IsNaN(empty.PopulationVariance()) {
		t.Error("empty Welford variance should be NaN")
	}
}

func TestWelfordMatchesDirect(t *testing.T) {
	g := rng.New(7)
	xs := make([]float64, 500)
	var w Welford
	for i := range xs {
		xs[i] = g.Normal(1, 3)
		w.Add(xs[i])
	}
	mean := SumSlice(xs) / float64(len(xs))
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	if !AlmostEqual(w.Mean(), mean, 1e-10) {
		t.Errorf("mean mismatch: %v vs %v", w.Mean(), mean)
	}
	if !AlmostEqual(w.Variance(), ss/float64(len(xs)-1), 1e-10) {
		t.Errorf("variance mismatch: %v vs %v", w.Variance(), ss/float64(len(xs)-1))
	}
}

func TestBisect(t *testing.T) {
	root, err := Bisect(func(x float64) float64 { return x*x - 2 }, 0, 2, 1e-12, 200)
	if err != nil {
		t.Fatal(err)
	}
	if !AlmostEqual(root, math.Sqrt2, 1e-10) {
		t.Errorf("Bisect sqrt2 = %v", root)
	}
	if _, err := Bisect(func(x float64) float64 { return 1 }, 0, 1, 1e-12, 100); err != ErrBadBracket {
		t.Errorf("expected ErrBadBracket, got %v", err)
	}
	// Root at an endpoint.
	r, err := Bisect(func(x float64) float64 { return x }, 0, 1, 1e-12, 100)
	if err != nil || r != 0 {
		t.Errorf("endpoint root: %v, %v", r, err)
	}
}

func TestGoldenSection(t *testing.T) {
	min, err := GoldenSection(func(x float64) float64 { return (x - 1.5) * (x - 1.5) }, -10, 10, 1e-10, 500)
	if err != nil {
		t.Fatal(err)
	}
	if !AlmostEqual(min, 1.5, 1e-7) {
		t.Errorf("GoldenSection = %v, want 1.5", min)
	}
	if _, err := GoldenSection(nil, 1, 0, 1e-10, 10); err != ErrBadBracket {
		t.Errorf("expected ErrBadBracket, got %v", err)
	}
}

func TestLinspace(t *testing.T) {
	got := Linspace(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	for i := range want {
		if !AlmostEqual(got[i], want[i], 1e-15) {
			t.Errorf("Linspace[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if Linspace(0, 1, 0) != nil {
		t.Error("Linspace(n=0) should be nil")
	}
	if one := Linspace(3, 9, 1); len(one) != 1 || one[0] != 3 {
		t.Error("Linspace(n=1)")
	}
	// exact endpoints
	pts := Linspace(0.1, 0.7, 7)
	if pts[0] != 0.1 || pts[6] != 0.7 {
		t.Error("Linspace endpoints not exact")
	}
}

func TestLogspace(t *testing.T) {
	got := Logspace(0.01, 100, 5)
	want := []float64{0.01, 0.1, 1, 10, 100}
	for i := range want {
		if !AlmostEqual(got[i], want[i], 1e-10) {
			t.Errorf("Logspace[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Logspace with non-positive endpoint should panic")
		}
	}()
	Logspace(0, 1, 3)
}

func TestMinMaxArgMinArgMax(t *testing.T) {
	xs := []float64{3, -1, 4, -1, 5}
	if ArgMax(xs) != 4 {
		t.Errorf("ArgMax = %d", ArgMax(xs))
	}
	if ArgMin(xs) != 1 {
		t.Errorf("ArgMin = %d (want first occurrence)", ArgMin(xs))
	}
}

func TestNorms(t *testing.T) {
	xs := []float64{3, -4}
	if !AlmostEqual(L2Norm(xs), 5, 1e-12) {
		t.Errorf("L2Norm = %v", L2Norm(xs))
	}
	// L2Norm must not overflow on huge components.
	big := []float64{1e200, 1e200}
	if math.IsInf(L2Norm(big), 1) {
		t.Error("L2Norm overflow")
	}
	if !AlmostEqual(L2Norm(big), 1e200*math.Sqrt2, 1e-12) {
		t.Errorf("L2Norm big = %v", L2Norm(big))
	}
}

func TestDot(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); !AlmostEqual(got, 32, 1e-12) {
		t.Errorf("Dot = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("Dot length mismatch should panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestAlmostEqual(t *testing.T) {
	if !AlmostEqual(1, 1+1e-13, 1e-12) {
		t.Error("should be almost equal")
	}
	if AlmostEqual(1, 1.1, 1e-12) {
		t.Error("should not be almost equal")
	}
	if !AlmostEqual(1e20, 1e20+1, 1e-12) {
		t.Error("relative comparison for large magnitudes")
	}
}
