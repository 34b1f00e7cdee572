package mechanism

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mathx"
	"repro/internal/rng"
)

func binaryData(bits ...int) *dataset.Dataset {
	return dataset.BernoulliTable{P: 0.5}.FromBits(bits)
}

// empiricalL1Sensitivity estimates the L1 sensitivity of q by sampling
// trials random neighbor pairs: datasets drawn by gen with one record
// replaced by another generated record. It is a lower bound on the
// global sensitivity, the oracle for the hand-derived constants below.
func empiricalL1Sensitivity(q func(*dataset.Dataset) []float64, gen func(*rng.RNG) *dataset.Dataset, trials int, g *rng.RNG) float64 {
	var maxDiff float64
	for t := 0; t < trials; t++ {
		d := gen(g)
		if d.Len() == 0 {
			continue
		}
		alt := gen(g)
		i := g.Intn(d.Len())
		nb := d.ReplaceOne(i, alt.Examples[g.Intn(alt.Len())])
		a, b := q(d), q(nb)
		var diff float64
		for k := range a {
			diff += math.Abs(a[k] - b[k])
		}
		if diff > maxDiff {
			maxDiff = diff
		}
	}
	return maxDiff
}

func TestGuaranteeString(t *testing.T) {
	if got := (Guarantee{Epsilon: 1}).String(); got != "1-DP" {
		t.Errorf("String = %q", got)
	}
	if got := (Guarantee{Epsilon: 0.5, Delta: 1e-6}).String(); got != "(0.5, 1e-06)-DP" {
		t.Errorf("String = %q", got)
	}
}

func TestCountQuery(t *testing.T) {
	d := binaryData(1, 0, 1, 1)
	q := CountQuery(func(e dataset.Example) bool { return e.X[0] == 1 })
	if got := q.F(d); got[0] != 3 {
		t.Errorf("count = %v", got)
	}
	if q.L1Sensitivity != 1 {
		t.Error("count sensitivity must be 1")
	}
}

func TestCountQuerySensitivityEmpirical(t *testing.T) {
	g := rng.New(1)
	q := CountQuery(func(e dataset.Example) bool { return e.X[0] == 1 })
	gen := func(h *rng.RNG) *dataset.Dataset {
		return dataset.BernoulliTable{P: 0.5}.Generate(20, h)
	}
	emp := empiricalL1Sensitivity(q.F, gen, 500, g)
	if emp > q.L1Sensitivity+1e-12 {
		t.Errorf("empirical sensitivity %v exceeds claimed %v", emp, q.L1Sensitivity)
	}
}

func TestBoundedMeanQuery(t *testing.T) {
	d := dataset.New([]dataset.Example{
		{X: []float64{0.2}}, {X: []float64{0.8}}, {X: []float64{5}}, // 5 clamps to 1
	})
	q := BoundedMeanQuery(0, 0, 1, 3)
	got := q.F(d)[0]
	if !mathx.AlmostEqual(got, 2.0/3, 1e-12) {
		t.Errorf("bounded mean = %v", got)
	}
	if !mathx.AlmostEqual(q.L1Sensitivity, 1.0/3, 1e-12) {
		t.Errorf("sensitivity = %v", q.L1Sensitivity)
	}
}

func TestBoundedMeanSensitivityEmpirical(t *testing.T) {
	g := rng.New(2)
	n := 15
	q := BoundedMeanQuery(0, 0, 1, n)
	gen := func(h *rng.RNG) *dataset.Dataset {
		d := &dataset.Dataset{}
		for i := 0; i < n; i++ {
			d.Append(dataset.Example{X: []float64{h.Float64()}})
		}
		return d
	}
	emp := empiricalL1Sensitivity(q.F, gen, 1000, g)
	if emp > q.L1Sensitivity+1e-12 {
		t.Errorf("empirical sensitivity %v exceeds claimed %v", emp, q.L1Sensitivity)
	}
}

func TestHistogramQuerySensitivity(t *testing.T) {
	g := rng.New(3)
	q := HistogramQuery(0, 5, 0, 1)
	gen := func(h *rng.RNG) *dataset.Dataset {
		d := &dataset.Dataset{}
		for i := 0; i < 12; i++ {
			d.Append(dataset.Example{X: []float64{h.Float64()}})
		}
		return d
	}
	emp := empiricalL1Sensitivity(q.F, gen, 1000, g)
	if emp > q.L1Sensitivity+1e-12 {
		t.Errorf("empirical sensitivity %v exceeds claimed %v", emp, q.L1Sensitivity)
	}
	d := gen(g)
	counts := q.F(d)
	if mathx.SumSlice(counts) != 12 {
		t.Error("histogram total must equal n")
	}
}

func TestLaplaceValidation(t *testing.T) {
	q := CountQuery(func(dataset.Example) bool { return true })
	if _, err := NewLaplace(q, 0); err != ErrInvalidEpsilon {
		t.Error("epsilon validation")
	}
	bad := q
	bad.L1Sensitivity = 0
	if _, err := NewLaplace(bad, 1); err != ErrInvalidSensitivity {
		t.Error("sensitivity validation")
	}
}

func TestLaplaceScaleAndUnbiasedness(t *testing.T) {
	q := CountQuery(func(e dataset.Example) bool { return e.X[0] == 1 })
	m, err := NewLaplace(q, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if m.Scale() != 2 {
		t.Errorf("Scale = %v, want Δ/ε = 2", m.Scale())
	}
	if m.Guarantee().Epsilon != 0.5 {
		t.Error("Guarantee")
	}
	d := binaryData(1, 1, 1, 0, 0)
	g := rng.New(5)
	var w mathx.Welford
	for i := 0; i < 100_000; i++ {
		w.Add(m.Release(d, g)[0])
	}
	if math.Abs(w.Mean()-3) > 0.05 {
		t.Errorf("noisy count mean = %v, want 3", w.Mean())
	}
	// Variance of Lap(b) is 2b² = 8.
	if math.Abs(w.Variance()-8)/8 > 0.05 {
		t.Errorf("noisy count variance = %v, want 8", w.Variance())
	}
}

func TestGaussianValidationAndMoments(t *testing.T) {
	q := CountQuery(func(dataset.Example) bool { return true })
	if _, err := NewGaussian(q, 2, 1e-5); err == nil {
		t.Error("ε > 1 must be rejected")
	}
	if _, err := NewGaussian(q, 0.5, 0); err == nil {
		t.Error("δ = 0 must be rejected")
	}
	m, err := NewGaussian(q, 0.5, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	wantSigma := math.Sqrt(2*math.Log(1.25e5)) / 0.5
	if !mathx.AlmostEqual(m.Sigma(), wantSigma, 1e-12) {
		t.Errorf("Sigma = %v, want %v", m.Sigma(), wantSigma)
	}
	d := binaryData(1, 1)
	g := rng.New(7)
	var w mathx.Welford
	for i := 0; i < 50_000; i++ {
		w.Add(m.Release(d, g)[0])
	}
	if math.Abs(w.Mean()-2) > 0.3 {
		t.Errorf("gaussian release mean = %v", w.Mean())
	}
}

func TestGeometricIntegerOutputs(t *testing.T) {
	q := func(d *dataset.Dataset) int64 { return int64(dataset.CountOnes(d)) }
	m, err := NewGeometric(q, 1, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	d := binaryData(1, 0, 1)
	g := rng.New(9)
	var w mathx.Welford
	for i := 0; i < 100_000; i++ {
		w.Add(float64(m.Release(d, g)))
	}
	if math.Abs(w.Mean()-2) > 0.05 {
		t.Errorf("geometric release mean = %v, want 2", w.Mean())
	}
	if _, err := NewGeometric(q, 0, 1); err != ErrInvalidSensitivity {
		t.Error("sensitivity validation")
	}
	if _, err := NewGeometric(q, 1, -1); err != ErrInvalidEpsilon {
		t.Error("epsilon validation")
	}
}

func TestRandomizedResponse(t *testing.T) {
	m, err := NewRandomizedResponse(math.Log(3)) // p = 3/4
	if err != nil {
		t.Fatal(err)
	}
	g := rng.New(11)
	// 30% ones.
	bits := make([]bool, 50_000)
	for i := range bits {
		bits[i] = g.Bernoulli(0.3)
	}
	// A released bit is 1 w.p. 0.3·p + 0.7·(1−p) = 0.4.
	var ones float64
	for _, b := range m.Release(bits, g) {
		if b {
			ones++
		}
	}
	if f := ones / float64(len(bits)); math.Abs(f-0.4) > 0.01 {
		t.Errorf("released frequency of ones = %v, want ≈ 0.4", f)
	}
	if _, err := NewRandomizedResponse(0); err != ErrInvalidEpsilon {
		t.Error("validation")
	}
}

func TestExponentialLogProbabilities(t *testing.T) {
	// Quality = count of ones minus candidate index (arbitrary but simple).
	quality := func(d *dataset.Dataset, u int) float64 {
		return float64(dataset.CountOnes(d) - u)
	}
	m, err := NewExponential(quality, 3, 1, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	d := binaryData(1, 1, 0)
	logp := m.LogProbabilities(d)
	if !mathx.AlmostEqual(mathx.LogSumExp(logp), 0, 1e-12) {
		t.Error("log-probabilities must normalize")
	}
	// Exact ratios: p(u)/p(u+1) = exp(ε·1).
	if !mathx.AlmostEqual(logp[0]-logp[1], 0.8, 1e-12) {
		t.Errorf("log ratio = %v, want ε", logp[0]-logp[1])
	}
}

func TestExponentialExactPrivacy(t *testing.T) {
	// Theorem 2.2: for all neighbors and all outputs,
	// p_D(u) <= exp(2εΔq) p_D'(u). Verify exactly on the median quality.
	g := rng.New(13)
	grid := mathx.Linspace(0, 1, 21)
	m, _, err := PrivateMedian(0, grid, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	budget := m.Guarantee().Epsilon // 2εΔq = 1.4
	if !mathx.AlmostEqual(budget, 1.4, 1e-12) {
		t.Fatalf("guarantee = %v", budget)
	}
	for trial := 0; trial < 50; trial++ {
		d := &dataset.Dataset{}
		for i := 0; i < 11; i++ {
			d.Append(dataset.Example{X: []float64{g.Float64()}})
		}
		nb := d.ReplaceOne(g.Intn(11), dataset.Example{X: []float64{g.Float64()}})
		p1 := m.LogProbabilities(d)
		p2 := m.LogProbabilities(nb)
		for u := range p1 {
			if diff := math.Abs(p1[u] - p2[u]); diff > budget+1e-9 {
				t.Fatalf("privacy violated: |log ratio| = %v > %v", diff, budget)
			}
		}
	}
}

func TestExponentialUtility(t *testing.T) {
	// Private median of a sample concentrated at 0.5 should usually land
	// near 0.5 with a healthy ε.
	g := rng.New(17)
	grid := mathx.Linspace(0, 1, 41)
	m, vals, err := PrivateMedian(0, grid, 5)
	if err != nil {
		t.Fatal(err)
	}
	d := &dataset.Dataset{}
	for i := 0; i < 101; i++ {
		d.Append(dataset.Example{X: []float64{g.Normal(0.5, 0.05)}})
	}
	hits := 0
	trials := 2000
	for i := 0; i < trials; i++ {
		u := m.Release(d, g)
		if math.Abs(vals[u]-0.5) <= 0.1 {
			hits++
		}
	}
	if frac := float64(hits) / float64(trials); frac < 0.9 {
		t.Errorf("private median near truth only %v of the time", frac)
	}
	// Utility bound should be positive and finite.
	if b := m.UtilityBound(0.05); b <= 0 || math.IsInf(b, 0) {
		t.Errorf("UtilityBound = %v", b)
	}
}

func TestExponentialValidation(t *testing.T) {
	q := func(*dataset.Dataset, int) float64 { return 0 }
	if _, err := NewExponential(q, 0, 1, 1); err == nil {
		t.Error("zero candidates")
	}
	if _, err := NewExponential(q, 2, 0, 1); err != ErrInvalidSensitivity {
		t.Error("sensitivity")
	}
	if _, err := NewExponential(q, 2, 1, 0); err != ErrInvalidEpsilon {
		t.Error("epsilon")
	}
	m, _ := NewExponential(q, 2, 1, 1)
	defer func() {
		if recover() == nil {
			t.Error("UtilityBound(beta>=1) should panic")
		}
	}()
	m.UtilityBound(1)
}

func TestPrivateMode(t *testing.T) {
	g := rng.New(19)
	m, vals, err := PrivateMode(0, []float64{0, 1, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	d := &dataset.Dataset{}
	for i := 0; i < 60; i++ {
		d.Append(dataset.Example{X: []float64{1}}) // heavy mode at 1
	}
	for i := 0; i < 20; i++ {
		d.Append(dataset.Example{X: []float64{2}})
	}
	hits := 0
	for i := 0; i < 500; i++ {
		if vals[m.Release(d, g)] == 1 {
			hits++
		}
	}
	if hits < 480 {
		t.Errorf("mode recovered only %d/500", hits)
	}
}

func TestReportNoisyMax(t *testing.T) {
	g := rng.New(23)
	quality := func(d *dataset.Dataset, u int) float64 {
		if u == 2 {
			return 50 // clear winner
		}
		return 0
	}
	m, err := NewReportNoisyMax(quality, 5, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	d := binaryData(1)
	hits := 0
	for i := 0; i < 1000; i++ {
		if m.Release(d, g) == 2 {
			hits++
		}
	}
	if hits < 990 {
		t.Errorf("noisy max picked the winner only %d/1000", hits)
	}
	if m.Guarantee().Epsilon != 1 {
		t.Error("guarantee")
	}
	if _, err := NewReportNoisyMax(quality, 0, 1, 1); err == nil {
		t.Error("zero candidates")
	}
}

func TestAccountantBasic(t *testing.T) {
	var a Accountant
	a.Spend(Guarantee{Epsilon: 0.5})
	a.Spend(Guarantee{Epsilon: 0.25, Delta: 1e-6})
	got := a.BasicComposition()
	if !mathx.AlmostEqual(got.Epsilon, 0.75, 1e-12) || !mathx.AlmostEqual(got.Delta, 1e-6, 1e-12) {
		t.Errorf("basic = %+v", got)
	}
	if a.Count() != 2 {
		t.Error("Count")
	}
	a.Reset()
	if a.Count() != 0 || a.BasicComposition().Epsilon != 0 {
		t.Error("Reset")
	}
}

func TestAccountantAdvanced(t *testing.T) {
	var a Accountant
	eps := 0.1
	k := 100
	for i := 0; i < k; i++ {
		a.Spend(Guarantee{Epsilon: eps})
	}
	adv, err := a.AdvancedComposition(1e-5)
	if err != nil {
		t.Fatal(err)
	}
	want := eps*math.Sqrt(2*float64(k)*math.Log(1e5)) + float64(k)*eps*(math.Exp(eps)-1)
	if !mathx.AlmostEqual(adv.Epsilon, want, 1e-12) {
		t.Errorf("advanced = %v, want %v", adv.Epsilon, want)
	}
	// For many small-ε mechanisms, advanced must beat basic.
	if adv.Epsilon >= a.BasicComposition().Epsilon {
		t.Error("advanced composition should be tighter here")
	}
	best := a.BestComposition(1e-5)
	if best.Epsilon != adv.Epsilon {
		t.Error("BestComposition should pick advanced")
	}
}

func TestAccountantAdvancedErrors(t *testing.T) {
	var a Accountant
	a.Spend(Guarantee{Epsilon: 0.1})
	a.Spend(Guarantee{Epsilon: 0.2})
	if _, err := a.AdvancedComposition(1e-5); err == nil {
		t.Error("heterogeneous ε must error")
	}
	var b Accountant
	b.Spend(Guarantee{Epsilon: 0.1, Delta: 1e-9})
	if _, err := b.AdvancedComposition(1e-5); err == nil {
		t.Error("impure guarantee must error")
	}
	var c Accountant
	c.Spend(Guarantee{Epsilon: 0.1})
	if _, err := c.AdvancedComposition(0); err == nil {
		t.Error("invalid slack must error")
	}
	// Empty accountant: ε = 0.
	var e Accountant
	g, err := e.AdvancedComposition(1e-5)
	if err != nil || g.Epsilon != 0 {
		t.Errorf("empty advanced = %+v, %v", g, err)
	}
	// BestComposition falls back to basic on error.
	if a.BestComposition(1e-5).Epsilon != a.BasicComposition().Epsilon {
		t.Error("fallback to basic")
	}
	// The first spend that breaks the precondition names the error, and
	// no later spend changes it.
	impureErr := "mechanism: advanced composition implemented for pure ε-DP only"
	heteroErr := "mechanism: advanced composition implemented for homogeneous ε only"
	var f Accountant
	f.Spend(Guarantee{Epsilon: 0.1})
	f.Spend(Guarantee{Epsilon: 0.1, Delta: 1e-9})
	f.Spend(Guarantee{Epsilon: 0.3})
	if _, err := f.AdvancedComposition(1e-5); err == nil || err.Error() != impureErr {
		t.Errorf("impure then heterogeneous: got %v, want the pure-ε error", err)
	}
	var h Accountant
	h.Spend(Guarantee{Epsilon: 0.1})
	h.Spend(Guarantee{Epsilon: 0.3})
	h.Spend(Guarantee{Epsilon: 0.1, Delta: 1e-9})
	if _, err := h.AdvancedComposition(1e-5); err == nil || err.Error() != heteroErr {
		t.Errorf("heterogeneous then impure: got %v, want the homogeneous-ε error", err)
	}
	// Reset clears the recorded violation and the first ε: the next
	// homogeneous history composes as on a fresh accountant.
	h.Reset()
	var fresh Accountant
	for _, acct := range []*Accountant{&h, &fresh} {
		acct.Spend(Guarantee{Epsilon: 0.3})
		acct.Spend(Guarantee{Epsilon: 0.3})
	}
	got, err := h.AdvancedComposition(1e-5)
	want, wantErr := fresh.AdvancedComposition(1e-5)
	if err != nil || wantErr != nil || got != want {
		t.Errorf("after Reset: got %+v, %v; want %+v, %v", got, err, want, wantErr)
	}
}

func TestParallelComposition(t *testing.T) {
	got := ParallelComposition([]Guarantee{
		{Epsilon: 0.5},
		{Epsilon: 1.5, Delta: 1e-7},
		{Epsilon: 1.0},
	})
	if got.Epsilon != 1.5 || got.Delta != 1e-7 {
		t.Errorf("parallel = %+v", got)
	}
}
