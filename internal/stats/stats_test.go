package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/mathx"
	"repro/internal/rng"
)

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if !mathx.AlmostEqual(Mean(xs), 5, 1e-12) {
		t.Errorf("Mean = %v", Mean(xs))
	}
	if !mathx.AlmostEqual(Variance(xs), 32.0/7.0, 1e-12) {
		t.Errorf("Variance = %v", Variance(xs))
	}
}

func TestMeanPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Mean(empty) should panic")
		}
	}()
	Mean(nil)
}

func TestQuantileKnown(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	tests := []struct{ p, want float64 }{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75}, {1.0 / 3.0, 2},
	}
	for _, tc := range tests {
		if got := Quantile(xs, tc.p); !mathx.AlmostEqual(got, tc.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if Quantile([]float64{7}, 0.3) != 7 {
		t.Error("single-element quantile")
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	_ = Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Quantile mutated its input")
	}
}

func TestMedianOddEven(t *testing.T) {
	if Quantile([]float64{5, 1, 3}, 0.5) != 3 {
		t.Error("odd median")
	}
	if Quantile([]float64{1, 2, 3, 4}, 0.5) != 2.5 {
		t.Error("even median")
	}
}

func TestECDF(t *testing.T) {
	e, err := NewECDF([]float64{1, 2, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct{ x, want float64 }{
		{0, 0}, {1, 0.25}, {1.5, 0.25}, {2, 0.75}, {3, 1}, {10, 1},
	}
	for _, tc := range tests {
		if got := e.At(tc.x); !mathx.AlmostEqual(got, tc.want, 1e-12) {
			t.Errorf("ECDF(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
	if _, err := NewECDF(nil); err != ErrEmpty {
		t.Errorf("expected ErrEmpty, got %v", err)
	}
}

func TestECDFMonotoneProperty(t *testing.T) {
	g := rng.New(3)
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = g.Normal(0, 2)
	}
	e, err := NewECDF(xs)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b float64) bool {
		a, b = math.Mod(a, 10), math.Mod(b, 10)
		if a > b {
			a, b = b, a
		}
		return e.At(a) <= e.At(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKSStatisticIdentical(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if got := KSStatistic(xs, xs); got != 0 {
		t.Errorf("KS of identical samples = %v", got)
	}
}

func TestKSStatisticDisjoint(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{10, 11, 12}
	if got := KSStatistic(a, b); !mathx.AlmostEqual(got, 1, 1e-12) {
		t.Errorf("KS of disjoint samples = %v, want 1", got)
	}
}

func TestKSStatisticShifted(t *testing.T) {
	// Two large Gaussian samples with different means: KS should be
	// near the analytic value |Φ(x*) − Φ(x*−1)| maximized around 0.38.
	g := rng.New(5)
	n := 20000
	a := make([]float64, n)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		a[i] = g.Normal(0, 1)
		b[i] = g.Normal(1, 1)
	}
	d := KSStatistic(a, b)
	want := 2*mathx.NormalCDF(0.5) - 1 // sup_x |Φ(x)−Φ(x−1)| at x=1/2
	if math.Abs(d-want) > 0.02 {
		t.Errorf("KS = %v, want ≈ %v", d, want)
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, x := range []float64{0, 1, 2.5, 5, 9.99} {
		h.Add(x)
	}
	if h.Total() != 5 {
		t.Errorf("Total = %v", h.Total())
	}
	if len(h.Counts) != 5 || h.BinWidth() != 2 {
		t.Error("bins/width")
	}
	if h.Counts[0] != 2 { // 0 and 1
		t.Errorf("bin0 = %v", h.Counts[0])
	}
	if h.Counts[1] != 1 { // 2.5
		t.Errorf("bin1 = %v", h.Counts[1])
	}
	if h.Counts[2] != 1 { // 5
		t.Errorf("bin2 = %v", h.Counts[2])
	}
	if h.Counts[4] != 1 { // 9.99
		t.Errorf("bin4 = %v", h.Counts[4])
	}
}

func TestHistogramClamping(t *testing.T) {
	h := NewHistogram(0, 1, 4)
	h.Add(-5)
	h.Add(7)
	if h.Counts[0] != 1 || h.Counts[3] != 1 {
		t.Errorf("clamping failed: %v", h.Counts)
	}
	if h.Total() != 2 {
		t.Error("Total must count clamped values")
	}
}

func TestHistogramProbabilitiesAndDensity(t *testing.T) {
	h := NewHistogram(0, 2, 2)
	for _, x := range []float64{0.5, 0.5, 1.5, 1.5} {
		h.Add(x)
	}
	p := h.Probabilities()
	if !mathx.AlmostEqual(p[0], 0.5, 1e-12) || !mathx.AlmostEqual(p[1], 0.5, 1e-12) {
		t.Errorf("probabilities %v", p)
	}
	d := h.Density()
	// Integral = sum(d_i * width) must be 1.
	integral := (d[0] + d[1]) * h.BinWidth()
	if !mathx.AlmostEqual(integral, 1, 1e-12) {
		t.Errorf("density integral = %v", integral)
	}
	empty := NewHistogram(0, 1, 3)
	for _, v := range empty.Probabilities() {
		if v != 0 {
			t.Error("empty histogram probabilities should be zero")
		}
	}
}

func TestHistogramBinCenter(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	if !mathx.AlmostEqual(h.BinCenter(0), 1, 1e-12) || !mathx.AlmostEqual(h.BinCenter(4), 9, 1e-12) {
		t.Errorf("BinCenter: %v, %v", h.BinCenter(0), h.BinCenter(4))
	}
}

func TestHistogramClone(t *testing.T) {
	h := NewHistogram(0, 1, 2)
	h.Add(0.1)
	c := h.Clone()
	c.Add(0.9)
	if h.Total() != 1 || c.Total() != 2 {
		t.Error("Clone should be independent")
	}
}

func TestHistogramPanics(t *testing.T) {
	for i, fn := range []func(){
		func() { NewHistogram(0, 1, 0) },
		func() { NewHistogram(1, 0, 3) },
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

func TestFreedmanDiaconisBins(t *testing.T) {
	g := rng.New(9)
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = g.Normal(0, 1)
	}
	bins := FreedmanDiaconisBins(xs, 100)
	if bins < 10 || bins > 60 {
		t.Errorf("FD bins = %d, expected a few dozen for n=1000 normal", bins)
	}
	if FreedmanDiaconisBins([]float64{1}, 100) != 1 {
		t.Error("single point should give 1 bin")
	}
	if FreedmanDiaconisBins([]float64{2, 2, 2}, 100) != 1 {
		t.Error("constant sample should give 1 bin")
	}
	if got := FreedmanDiaconisBins(xs, 5); got != 5 {
		t.Errorf("maxBins clamp: %d", got)
	}
}

func TestBootstrapCICoversMean(t *testing.T) {
	// For a N(3,1) sample of size 200, a 95% bootstrap CI for the mean
	// should (almost always, with a fixed seed) contain 3 and be narrow.
	g := rng.New(11)
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = g.Normal(3, 1)
	}
	lo, hi := BootstrapCI(xs, Mean, 0.95, 2000, g)
	if lo > 3 || hi < 3 {
		t.Errorf("CI [%v, %v] misses the true mean (flaky only if seed changes)", lo, hi)
	}
	if hi-lo > 0.5 {
		t.Errorf("CI too wide: [%v, %v]", lo, hi)
	}
	if lo >= hi {
		t.Error("CI endpoints out of order")
	}
}

func TestSummarize(t *testing.T) {
	s, err := Summarize([]float64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Med != 3 {
		t.Errorf("Summary = %+v", s)
	}
	if !mathx.AlmostEqual(s.Mean, 3, 1e-12) {
		t.Errorf("Mean = %v", s.Mean)
	}
	if _, err := Summarize(nil); err != ErrEmpty {
		t.Errorf("expected ErrEmpty, got %v", err)
	}
	one, err := Summarize([]float64{42})
	if err != nil || !math.IsNaN(one.StdDev) {
		t.Error("single-observation summary should have NaN sd")
	}
}

func TestQuantileAgainstSortProperty(t *testing.T) {
	// Quantile(xs, k/(n-1)) must equal the k-th order statistic.
	g := rng.New(13)
	xs := make([]float64, 37)
	for i := range xs {
		xs[i] = g.Normal(0, 5)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for k := 0; k < len(xs); k++ {
		p := float64(k) / float64(len(xs)-1)
		if got := Quantile(xs, p); !mathx.AlmostEqual(got, sorted[k], 1e-9) {
			t.Errorf("Quantile(%v) = %v, want order statistic %v", p, got, sorted[k])
		}
	}
}
