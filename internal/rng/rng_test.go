package rng

import (
	"math"
	"testing"

	"repro/internal/mathx"
)

const (
	momentSamples = 200_000
	momentTol     = 0.05 // relative tolerance for Monte-Carlo moment checks
)

func sampleMoments(n int, draw func() float64) (mean, variance float64) {
	var w mathx.Welford
	for i := 0; i < n; i++ {
		w.Add(draw())
	}
	return w.Mean(), w.Variance()
}

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("equal seeds must produce equal streams")
		}
	}
	c := New(43)
	same := true
	a = New(42)
	for i := 0; i < 10; i++ {
		if a.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds should produce different streams")
	}
}

func TestSplitIsDeterministic(t *testing.T) {
	a, b := New(1).Split(), New(1).Split()
	for i := 0; i < 50; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("Split of equal parents must match")
		}
	}
}

func TestUniformRange(t *testing.T) {
	g := New(5)
	for i := 0; i < 10000; i++ {
		x := g.Uniform(-2, 3)
		if x < -2 || x >= 3 {
			t.Fatalf("Uniform out of range: %v", x)
		}
	}
}

func TestBernoulliFrequency(t *testing.T) {
	g := New(7)
	for _, p := range []float64{0.1, 0.5, 0.9} {
		count := 0
		n := 100_000
		for i := 0; i < n; i++ {
			if g.Bernoulli(p) {
				count++
			}
		}
		freq := float64(count) / float64(n)
		if math.Abs(freq-p) > 0.01 {
			t.Errorf("Bernoulli(%v) frequency %v", p, freq)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	g := New(11)
	mean, variance := sampleMoments(momentSamples, func() float64 { return g.Normal(3, 2) })
	if math.Abs(mean-3) > 0.05 {
		t.Errorf("Normal mean = %v", mean)
	}
	if math.Abs(variance-4)/4 > momentTol {
		t.Errorf("Normal variance = %v", variance)
	}
}

func TestExponentialMoments(t *testing.T) {
	g := New(13)
	rate := 2.5
	mean, variance := sampleMoments(momentSamples, func() float64 { return g.Exponential(rate) })
	if math.Abs(mean-1/rate)/(1/rate) > momentTol {
		t.Errorf("Exponential mean = %v, want %v", mean, 1/rate)
	}
	wantVar := 1 / (rate * rate)
	if math.Abs(variance-wantVar)/wantVar > momentTol {
		t.Errorf("Exponential variance = %v, want %v", variance, wantVar)
	}
}

func TestExponentialPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Exponential(rate<=0) should panic")
		}
	}()
	New(1).Exponential(0)
}

func TestLaplaceMoments(t *testing.T) {
	g := New(17)
	loc, scale := 1.0, 0.7
	mean, variance := sampleMoments(momentSamples, func() float64 { return g.Laplace(loc, scale) })
	if math.Abs(mean-loc) > 0.02 {
		t.Errorf("Laplace mean = %v", mean)
	}
	wantVar := 2 * scale * scale
	if math.Abs(variance-wantVar)/wantVar > momentTol {
		t.Errorf("Laplace variance = %v, want %v", variance, wantVar)
	}
}

func TestLaplaceCDF(t *testing.T) {
	// Empirical CDF at 0 for Laplace(0, b) must be 1/2; at b it is 1 - e^{-1}/2.
	g := New(19)
	b := 1.3
	n := 200_000
	atZero, atB := 0, 0
	for i := 0; i < n; i++ {
		x := g.Laplace(0, b)
		if x <= 0 {
			atZero++
		}
		if x <= b {
			atB++
		}
	}
	f0 := float64(atZero) / float64(n)
	fb := float64(atB) / float64(n)
	if math.Abs(f0-0.5) > 0.01 {
		t.Errorf("Laplace CDF(0) = %v", f0)
	}
	want := 1 - math.Exp(-1)/2
	if math.Abs(fb-want) > 0.01 {
		t.Errorf("Laplace CDF(b) = %v, want %v", fb, want)
	}
}

func TestLaplacePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Laplace(scale<=0) should panic")
		}
	}()
	New(1).Laplace(0, -1)
}

func TestGeometricPMF(t *testing.T) {
	g := New(23)
	p := 0.3
	n := 200_000
	counts := make([]int, 20)
	for i := 0; i < n; i++ {
		k := g.geometric(p)
		if k < 0 {
			t.Fatalf("negative geometric draw %d", k)
		}
		if int(k) < len(counts) {
			counts[k]++
		}
	}
	for k := 0; k < 8; k++ {
		want := p * math.Pow(1-p, float64(k))
		got := float64(counts[k]) / float64(n)
		if math.Abs(got-want) > 0.01 {
			t.Errorf("Geometric pmf(%d) = %v, want %v", k, got, want)
		}
	}
}

func TestTwoSidedGeometricSymmetryAndPMF(t *testing.T) {
	g := New(29)
	scale := 1.5
	alpha := math.Exp(-1 / scale)
	n := 300_000
	counts := map[int64]int{}
	for i := 0; i < n; i++ {
		counts[g.TwoSidedGeometric(scale)]++
	}
	// P(X=k) = (1-α)/(1+α) · α^|k|
	norm := (1 - alpha) / (1 + alpha)
	for _, k := range []int64{-3, -2, -1, 0, 1, 2, 3} {
		want := norm * math.Pow(alpha, math.Abs(float64(k)))
		got := float64(counts[k]) / float64(n)
		if math.Abs(got-want) > 0.01 {
			t.Errorf("TwoSidedGeometric pmf(%d) = %v, want %v", k, got, want)
		}
	}
	// Symmetry
	if math.Abs(float64(counts[1]-counts[-1]))/float64(n) > 0.01 {
		t.Error("TwoSidedGeometric not symmetric")
	}
}

func TestGammaMoments(t *testing.T) {
	g := New(31)
	for _, tc := range []struct{ shape, scale float64 }{{2.5, 1.2}, {0.5, 2.0}, {9, 0.25}} {
		mean, variance := sampleMoments(momentSamples, func() float64 { return g.Gamma(tc.shape, tc.scale) })
		wantMean := tc.shape * tc.scale
		wantVar := tc.shape * tc.scale * tc.scale
		if math.Abs(mean-wantMean)/wantMean > momentTol {
			t.Errorf("Gamma(%v,%v) mean = %v, want %v", tc.shape, tc.scale, mean, wantMean)
		}
		if math.Abs(variance-wantVar)/wantVar > 2*momentTol {
			t.Errorf("Gamma(%v,%v) variance = %v, want %v", tc.shape, tc.scale, variance, wantVar)
		}
	}
}

func TestBetaMoments(t *testing.T) {
	g := New(37)
	a, b := 2.0, 5.0
	mean, variance := sampleMoments(momentSamples, func() float64 { return g.Beta(a, b) })
	wantMean := a / (a + b)
	wantVar := a * b / ((a + b) * (a + b) * (a + b + 1))
	if math.Abs(mean-wantMean)/wantMean > momentTol {
		t.Errorf("Beta mean = %v, want %v", mean, wantMean)
	}
	if math.Abs(variance-wantVar)/wantVar > 2*momentTol {
		t.Errorf("Beta variance = %v, want %v", variance, wantVar)
	}
}

func TestCategoricalFrequencies(t *testing.T) {
	g := New(41)
	weights := []float64{1, 2, 3, 4}
	n := 200_000
	counts := make([]int, 4)
	for i := 0; i < n; i++ {
		counts[g.Categorical(weights)]++
	}
	for i, w := range weights {
		want := w / 10
		got := float64(counts[i]) / float64(n)
		if math.Abs(got-want) > 0.01 {
			t.Errorf("Categorical freq[%d] = %v, want %v", i, got, want)
		}
	}
}

func TestCategoricalLogMatchesLinear(t *testing.T) {
	g := New(43)
	weights := []float64{0.5, 1.5, 3}
	logw := make([]float64, len(weights))
	for i, w := range weights {
		logw[i] = math.Log(w) - 700 // deep underflow territory for exp()
	}
	n := 200_000
	counts := make([]int, len(weights))
	for i := 0; i < n; i++ {
		counts[g.CategoricalLog(logw)]++
	}
	total := 5.0
	for i, w := range weights {
		want := w / total
		got := float64(counts[i]) / float64(n)
		if math.Abs(got-want) > 0.01 {
			t.Errorf("CategoricalLog freq[%d] = %v, want %v", i, got, want)
		}
	}
}

func TestCategoricalLogNegInfExcluded(t *testing.T) {
	g := New(47)
	logw := []float64{math.Inf(-1), 0, math.Inf(-1)}
	for i := 0; i < 1000; i++ {
		if got := g.CategoricalLog(logw); got != 1 {
			t.Fatalf("sampled excluded index %d", got)
		}
	}
}

func TestCategoricalPanics(t *testing.T) {
	cases := []func(){
		func() { New(1).Categorical(nil) },
		func() { New(1).Categorical([]float64{-1, 2}) },
		func() { New(1).Categorical([]float64{0, 0}) },
		func() { New(1).CategoricalLog(nil) },
		func() { New(1).CategoricalLog([]float64{math.Inf(-1)}) },
		func() { NewAlias(nil) },
		func() { NewAlias([]float64{0}) },
	}
	for i, fn := range cases {
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

func TestAliasMatchesCategorical(t *testing.T) {
	g := New(53)
	weights := []float64{5, 0, 1, 2, 8, 0.5}
	a := NewAlias(weights)
	n := 300_000
	counts := make([]int, len(weights))
	for i := 0; i < n; i++ {
		counts[a.Sample(g)]++
	}
	total := mathx.SumSlice(weights)
	for i, w := range weights {
		want := w / total
		got := float64(counts[i]) / float64(n)
		if math.Abs(got-want) > 0.01 {
			t.Errorf("Alias freq[%d] = %v, want %v", i, got, want)
		}
	}
	if counts[1] != 0 {
		t.Error("zero-weight category was sampled")
	}
}

func TestPermIsPermutation(t *testing.T) {
	g := New(59)
	p := g.Perm(10)
	seen := make([]bool, 10)
	for _, v := range p {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("invalid permutation %v", p)
		}
		seen[v] = true
	}
}

func TestShuffle(t *testing.T) {
	g := New(61)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	orig := append([]int(nil), xs...)
	g.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	sum := 0
	for _, x := range xs {
		sum += x
	}
	if sum != 28 {
		t.Errorf("shuffle changed contents: %v (orig %v)", xs, orig)
	}
}

func TestGammaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Gamma(shape<=0) should panic")
		}
	}()
	New(1).Gamma(0, 1)
}

func BenchmarkLaplace(b *testing.B) {
	g := New(1)
	for i := 0; i < b.N; i++ {
		_ = g.Laplace(0, 1)
	}
}

func BenchmarkCategoricalLog(b *testing.B) {
	g := New(1)
	logw := make([]float64, 256)
	for i := range logw {
		logw[i] = -float64(i) * 0.01
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.CategoricalLog(logw)
	}
}

func BenchmarkAliasSample(b *testing.B) {
	g := New(1)
	w := make([]float64, 256)
	for i := range w {
		w[i] = float64(i + 1)
	}
	a := NewAlias(w)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.Sample(g)
	}
}
