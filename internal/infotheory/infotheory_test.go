package infotheory

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mathx"
	"repro/internal/rng"
)

func TestEntropyKnown(t *testing.T) {
	h, err := Entropy([]float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if !mathx.AlmostEqual(h, math.Ln2, 1e-12) {
		t.Errorf("H(fair coin) = %v, want ln2", h)
	}
	// Deterministic distribution has zero entropy.
	h0, err := Entropy([]float64{1, 0, 0})
	if err != nil || h0 != 0 {
		t.Errorf("H(deterministic) = %v", h0)
	}
	// Uniform over k has entropy log k.
	h4, _ := Entropy([]float64{1, 1, 1, 1})
	if !mathx.AlmostEqual(h4, math.Log(4), 1e-12) {
		t.Errorf("H(uniform 4) = %v", h4)
	}
}

func TestEntropyInvalid(t *testing.T) {
	if _, err := Entropy(nil); err != ErrInvalidDistribution {
		t.Error("empty")
	}
	if _, err := Entropy([]float64{-0.1, 1.1}); err != ErrInvalidDistribution {
		t.Error("negative")
	}
	if _, err := Entropy([]float64{0, 0}); err != ErrInvalidDistribution {
		t.Error("zero mass")
	}
}

func TestEntropyMaxAtUniformProperty(t *testing.T) {
	// Entropy of any distribution on k outcomes is at most log k.
	f := func(a, b, c, d uint8) bool {
		p := []float64{float64(a) + 1, float64(b) + 1, float64(c) + 1, float64(d) + 1}
		h, err := Entropy(p)
		if err != nil {
			return false
		}
		return h <= math.Log(4)+1e-12 && h >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKLKnownValue(t *testing.T) {
	p := []float64{0.75, 0.25}
	q := []float64{0.5, 0.5}
	want := 0.75*math.Log(1.5) + 0.25*math.Log(0.5)
	got, err := KL(p, q)
	if err != nil {
		t.Fatal(err)
	}
	if !mathx.AlmostEqual(got, want, 1e-12) {
		t.Errorf("KL = %v, want %v", got, want)
	}
}

func TestKLProperties(t *testing.T) {
	// Self-divergence is zero; divergence is non-negative (Gibbs).
	f := func(a, b, c uint8) bool {
		p := []float64{float64(a) + 1, float64(b) + 1, float64(c) + 1}
		q := []float64{float64(c) + 1, float64(a) + 1, float64(b) + 1}
		dpp, err1 := KL(p, p)
		dpq, err2 := KL(p, q)
		return err1 == nil && err2 == nil && mathx.AlmostEqual(dpp, 0, 1e-12) && dpq >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKLAbsoluteContinuity(t *testing.T) {
	p := []float64{0.5, 0.5}
	q := []float64{1, 0}
	if _, err := KL(p, q); err != ErrNotAbsolutelyContinuous {
		t.Errorf("expected ErrNotAbsolutelyContinuous, got %v", err)
	}
	inf, err := KLAllowInf(p, q)
	if err != nil || !math.IsInf(inf, 1) {
		t.Errorf("KLAllowInf = %v, %v", inf, err)
	}
	// Zero mass in p where q has none is fine.
	d, err := KL([]float64{1, 0}, []float64{0.5, 0.5})
	if err != nil || !mathx.AlmostEqual(d, math.Ln2, 1e-12) {
		t.Errorf("KL = %v, %v", d, err)
	}
}

func TestKLLogSpaceMatchesLinear(t *testing.T) {
	p := []float64{0.2, 0.3, 0.5}
	q := []float64{0.4, 0.4, 0.2}
	want, err := KL(p, q)
	if err != nil {
		t.Fatal(err)
	}
	logP := make([]float64, 3)
	logQ := make([]float64, 3)
	for i := range p {
		logP[i] = math.Log(p[i]) - 300 // arbitrary unnormalized shift
		logQ[i] = math.Log(q[i]) + 200
	}
	got, err := KLLogSpace(logP, logQ)
	if err != nil {
		t.Fatal(err)
	}
	if !mathx.AlmostEqual(got, want, 1e-10) {
		t.Errorf("KLLogSpace = %v, want %v", got, want)
	}
	// -Inf handling
	if _, err := KLLogSpace([]float64{0, math.Inf(-1)}, []float64{math.Inf(-1), 0}); err != ErrNotAbsolutelyContinuous {
		t.Errorf("expected ErrNotAbsolutelyContinuous, got %v", err)
	}
}

func TestJSProperties(t *testing.T) {
	p := []float64{1, 0}
	q := []float64{0, 1}
	// JS of disjoint distributions is ln 2.
	d, err := JS(p, q)
	if err != nil {
		t.Fatal(err)
	}
	if !mathx.AlmostEqual(d, math.Ln2, 1e-12) {
		t.Errorf("JS(disjoint) = %v", d)
	}
	// Symmetry.
	a := []float64{0.3, 0.7}
	b := []float64{0.6, 0.4}
	d1, _ := JS(a, b)
	d2, _ := JS(b, a)
	if !mathx.AlmostEqual(d1, d2, 1e-12) {
		t.Error("JS not symmetric")
	}
	if d0, _ := JS(a, a); !mathx.AlmostEqual(d0, 0, 1e-12) {
		t.Error("JS self not zero")
	}
}

func TestTotalVariation(t *testing.T) {
	d, err := TotalVariation([]float64{1, 0}, []float64{0, 1})
	if err != nil || !mathx.AlmostEqual(d, 1, 1e-12) {
		t.Errorf("TV disjoint = %v", d)
	}
	d2, _ := TotalVariation([]float64{0.5, 0.5}, []float64{0.5, 0.5})
	if d2 != 0 {
		t.Errorf("TV self = %v", d2)
	}
}

func TestJointMarginalsAndMI(t *testing.T) {
	// Independent: I = 0.
	indep, err := NewJoint([][]float64{
		{0.25, 0.25},
		{0.25, 0.25},
	})
	if err != nil {
		t.Fatal(err)
	}
	if mi := indep.MutualInformation(); !mathx.AlmostEqual(mi, 0, 1e-12) {
		t.Errorf("MI of independent = %v", mi)
	}
	// Perfectly correlated: I = ln 2.
	corr, err := NewJoint([][]float64{
		{0.5, 0},
		{0, 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if mi := corr.MutualInformation(); !mathx.AlmostEqual(mi, math.Ln2, 1e-12) {
		t.Errorf("MI of correlated = %v", mi)
	}
	mx := corr.MarginalX()
	my := corr.MarginalY()
	for i := range mx {
		if !mathx.AlmostEqual(mx[i], 0.5, 1e-12) || !mathx.AlmostEqual(my[i], 0.5, 1e-12) {
			t.Error("marginals")
		}
	}
}

func TestMIChainIdentity(t *testing.T) {
	// I(X;Y) = H(Y) − H(Y|X) on a random joint table.
	g := rng.New(3)
	table := make([][]float64, 4)
	for i := range table {
		table[i] = make([]float64, 5)
		for j := range table[i] {
			table[i][j] = g.Float64()
		}
	}
	j, err := NewJoint(table)
	if err != nil {
		t.Fatal(err)
	}
	hy, err := Entropy(j.MarginalY())
	if err != nil {
		t.Fatal(err)
	}
	lhs := j.MutualInformation()
	rhs := hy - j.ConditionalEntropyYGivenX()
	if !mathx.AlmostEqual(lhs, rhs, 1e-10) {
		t.Errorf("chain rule: I=%v, H(Y)-H(Y|X)=%v", lhs, rhs)
	}
}

func TestNewJointValidation(t *testing.T) {
	if _, err := NewJoint(nil); err == nil {
		t.Error("empty table")
	}
	if _, err := NewJoint([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("ragged table")
	}
	if _, err := NewJoint([][]float64{{-1, 2}}); err != ErrInvalidDistribution {
		t.Error("negative entry")
	}
	if _, err := NewJoint([][]float64{{0, 0}}); err != ErrInvalidDistribution {
		t.Error("zero mass")
	}
}

func TestJointFromChannel(t *testing.T) {
	// Binary symmetric channel with crossover 0.1, uniform input.
	w := [][]float64{
		{0.9, 0.1},
		{0.1, 0.9},
	}
	j, err := JointFromChannel([]float64{0.5, 0.5}, w)
	if err != nil {
		t.Fatal(err)
	}
	// I(X;Y) = ln2 − H(0.1)
	hFlip := -(0.1*math.Log(0.1) + 0.9*math.Log(0.9))
	want := math.Ln2 - hFlip
	if got := j.MutualInformation(); !mathx.AlmostEqual(got, want, 1e-12) {
		t.Errorf("BSC MI = %v, want %v", got, want)
	}
	if _, err := JointFromChannel([]float64{1}, w); err == nil {
		t.Error("row count mismatch should error")
	}
}

func TestDataProcessingInequality(t *testing.T) {
	// Processing Y through a second channel cannot increase MI:
	// I(X; Z) <= I(X; Y) for Z = channel2(Y).
	g := rng.New(7)
	f := func(seed int64) bool {
		h := rng.New(seed)
		// Random input, random channels.
		px := []float64{h.Float64() + 0.1, h.Float64() + 0.1, h.Float64() + 0.1}
		w1 := make([][]float64, 3)
		w2 := make([][]float64, 4)
		for i := range w1 {
			w1[i] = []float64{h.Float64() + 0.01, h.Float64() + 0.01, h.Float64() + 0.01, h.Float64() + 0.01}
		}
		for i := range w2 {
			w2[i] = []float64{h.Float64() + 0.01, h.Float64() + 0.01}
		}
		// Normalize rows.
		for i := range w1 {
			s := mathx.SumSlice(w1[i])
			for j := range w1[i] {
				w1[i][j] /= s
			}
		}
		for i := range w2 {
			s := mathx.SumSlice(w2[i])
			for j := range w2[i] {
				w2[i][j] /= s
			}
		}
		// Composite channel w1∘w2.
		comp := make([][]float64, 3)
		for i := range comp {
			comp[i] = make([]float64, 2)
			for j := 0; j < 2; j++ {
				for k := 0; k < 4; k++ {
					comp[i][j] += w1[i][k] * w2[k][j]
				}
			}
		}
		j1, err1 := JointFromChannel(px, w1)
		j2, err2 := JointFromChannel(px, comp)
		if err1 != nil || err2 != nil {
			return false
		}
		return j2.MutualInformation() <= j1.MutualInformation()+1e-10
	}
	_ = g
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPluginAndMillerMadow(t *testing.T) {
	counts := []int{50, 50}
	h, err := PluginEntropy(counts)
	if err != nil || !mathx.AlmostEqual(h, math.Ln2, 1e-12) {
		t.Errorf("plugin = %v", h)
	}
	mm, err := MillerMadowEntropy(counts)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Ln2 + 1.0/200
	if !mathx.AlmostEqual(mm, want, 1e-12) {
		t.Errorf("MillerMadow = %v, want %v", mm, want)
	}
	if _, err := MillerMadowEntropy([]int{0, 0}); err != ErrInvalidDistribution {
		t.Error("zero counts")
	}
	if _, err := PluginEntropy([]int{-1}); err != ErrInvalidDistribution {
		t.Error("negative count")
	}
}

func TestMillerMadowReducesBias(t *testing.T) {
	// Sample from uniform over 8 outcomes with small n; plug-in is biased
	// down, Miller–Madow corrects toward log 8.
	g := rng.New(11)
	trueH := math.Log(8)
	var plugBias, mmBias mathx.Welford
	for rep := 0; rep < 300; rep++ {
		counts := make([]int, 8)
		for i := 0; i < 40; i++ {
			counts[g.Intn(8)]++
		}
		hp, _ := PluginEntropy(counts)
		hm, _ := MillerMadowEntropy(counts)
		plugBias.Add(hp - trueH)
		mmBias.Add(hm - trueH)
	}
	if math.Abs(mmBias.Mean()) >= math.Abs(plugBias.Mean()) {
		t.Errorf("Miller–Madow bias %v not smaller than plug-in bias %v", mmBias.Mean(), plugBias.Mean())
	}
}

func TestMutualInformationFromCounts(t *testing.T) {
	mi, err := MutualInformationFromCounts([][]int{
		{50, 0},
		{0, 50},
	})
	if err != nil || !mathx.AlmostEqual(mi, math.Ln2, 1e-12) {
		t.Errorf("MI from counts = %v", mi)
	}
	if _, err := MutualInformationFromCounts([][]int{{-1, 2}}); err != ErrInvalidDistribution {
		t.Error("negative counts")
	}
}

func TestBlahutArimotoBSC(t *testing.T) {
	// BSC capacity: C = ln2 − H(eps), achieved by uniform input.
	for _, eps := range []float64{0.05, 0.1, 0.25} {
		w := [][]float64{
			{1 - eps, eps},
			{eps, 1 - eps},
		}
		c, px, err := BlahutArimoto(w, 1e-12, 10000)
		if err != nil {
			t.Fatal(err)
		}
		hEps := -(eps*math.Log(eps) + (1-eps)*math.Log(1-eps))
		want := math.Ln2 - hEps
		if !mathx.AlmostEqual(c, want, 1e-6) {
			t.Errorf("BSC(%v) capacity = %v, want %v", eps, c, want)
		}
		if !mathx.AlmostEqual(px[0], 0.5, 1e-4) {
			t.Errorf("BSC capacity input = %v, want uniform", px)
		}
	}
}

func TestBlahutArimotoBEC(t *testing.T) {
	// Binary erasure channel: C = (1−e)·ln2.
	e := 0.3
	w := [][]float64{
		{1 - e, e, 0},
		{0, e, 1 - e},
	}
	c, _, err := BlahutArimoto(w, 1e-12, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if !mathx.AlmostEqual(c, (1-e)*math.Ln2, 1e-6) {
		t.Errorf("BEC capacity = %v, want %v", c, (1-e)*math.Ln2)
	}
}

func TestBlahutArimotoNoiselessChannel(t *testing.T) {
	// Identity channel over 4 symbols: capacity ln 4.
	w := [][]float64{
		{1, 0, 0, 0},
		{0, 1, 0, 0},
		{0, 0, 1, 0},
		{0, 0, 0, 1},
	}
	c, _, err := BlahutArimoto(w, 1e-12, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if !mathx.AlmostEqual(c, math.Log(4), 1e-6) {
		t.Errorf("identity capacity = %v", c)
	}
}

func TestBlahutArimotoCapacityDominatesMI(t *testing.T) {
	// Capacity must upper-bound MI under any particular input distribution.
	g := rng.New(13)
	w := make([][]float64, 3)
	for i := range w {
		w[i] = []float64{g.Float64() + 0.05, g.Float64() + 0.05, g.Float64() + 0.05}
	}
	c, _, err := BlahutArimoto(w, 1e-10, 5000)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		px := []float64{g.Float64() + 0.01, g.Float64() + 0.01, g.Float64() + 0.01}
		j, err := JointFromChannel(px, w)
		if err != nil {
			t.Fatal(err)
		}
		if j.MutualInformation() > c+1e-6 {
			t.Errorf("MI %v exceeds capacity %v", j.MutualInformation(), c)
		}
	}
}

func TestNats2Bits(t *testing.T) {
	if !mathx.AlmostEqual(Nats2Bits(math.Ln2), 1, 1e-12) {
		t.Error("Nats2Bits")
	}
}
