package mechanism

import (
	"math"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mathx"
	"repro/internal/rng"
	"repro/internal/stats"
)

func TestIntervalMechanismValidation(t *testing.T) {
	if _, err := NewIntervalMechanism(1, 0, nil, []float64{0}, 1, 1); err != ErrBadInterval {
		t.Error("hi <= lo")
	}
	if _, err := NewIntervalMechanism(0, 1, []float64{0.5}, []float64{0}, 1, 1); err != ErrBadInterval {
		t.Error("piece count mismatch")
	}
	if _, err := NewIntervalMechanism(0, 1, []float64{0.5, 0.4}, []float64{0, 1, 2}, 1, 1); err != ErrBadInterval {
		t.Error("unsorted breaks")
	}
	if _, err := NewIntervalMechanism(0, 1, []float64{1.5}, []float64{0, 1}, 1, 1); err != ErrBadInterval {
		t.Error("break outside interval")
	}
	if _, err := NewIntervalMechanism(0, 1, nil, []float64{0}, 0, 1); err != ErrInvalidSensitivity {
		t.Error("sensitivity")
	}
	if _, err := NewIntervalMechanism(0, 1, nil, []float64{0}, 1, 0); err != ErrInvalidEpsilon {
		t.Error("epsilon")
	}
}

func TestIntervalMechanismDensityNormalizes(t *testing.T) {
	m, err := NewIntervalMechanism(0, 2, []float64{0.5, 1.2}, []float64{-1, 0, -3}, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Numerically integrate exp(LogDensity) over [0, 2].
	const steps = 200_000
	var k mathx.KahanSum
	h := 2.0 / steps
	for i := 0; i < steps; i++ {
		x := (float64(i) + 0.5) * h
		k.Add(math.Exp(m.LogDensity(x)) * h)
	}
	if !mathx.AlmostEqual(k.Sum(), 1, 1e-4) {
		t.Errorf("density integrates to %v", k.Sum())
	}
	if !math.IsInf(m.LogDensity(-0.1), -1) || !math.IsInf(m.LogDensity(2.1), -1) {
		t.Error("outside support must have zero density")
	}
}

func TestIntervalMechanismSamplesMatchDensity(t *testing.T) {
	m, err := NewIntervalMechanism(0, 1, []float64{0.25, 0.75}, []float64{0, 2, -1}, 1, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	g := rng.New(1)
	nSamp := 300_000
	samples := make([]float64, nSamp)
	for i := range samples {
		samples[i] = m.Release(g)
		if samples[i] < 0 || samples[i] > 1 {
			t.Fatalf("sample %v out of range", samples[i])
		}
	}
	// Empirical piece masses vs exact.
	sort.Float64s(samples)
	countIn := func(a, b float64) float64 {
		return float64(sort.SearchFloat64s(samples, b)-sort.SearchFloat64s(samples, a)) / float64(nSamp)
	}
	masses := mathx.ExpNormalize(m.logPieceMasses())
	for i, want := range masses {
		a, b := m.pieceEdges(i)
		if got := countIn(a, b); math.Abs(got-want) > 0.01 {
			t.Errorf("piece %d: sampled %v, exact %v", i, got, want)
		}
	}
}

func TestContinuousMedianAccuracy(t *testing.T) {
	g := rng.New(3)
	d := &dataset.Dataset{}
	for i := 0; i < 201; i++ {
		d.Append(dataset.Example{X: []float64{mathx.Clamp(g.Normal(0.6, 0.05), 0, 1)}})
	}
	m, err := ContinuousMedian(d, 0, 0, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	trueMed := stats.Quantile(d.Feature(0), 0.5)
	hits := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		if math.Abs(m.Release(g)-trueMed) < 0.05 {
			hits++
		}
	}
	if float64(hits)/trials < 0.9 {
		t.Errorf("continuous private median near truth only %d/%d", hits, trials)
	}
}

func TestContinuousMedianSampledPrivacy(t *testing.T) {
	// General neighbor pair (geometry changes): sampled histogram audit.
	g := rng.New(7)
	eps := 1.0
	d := &dataset.Dataset{}
	for i := 0; i < 41; i++ {
		d.Append(dataset.Example{X: []float64{g.Float64()}})
	}
	nb := d.ReplaceOne(0, dataset.Example{X: []float64{0.99}})
	m1, err := ContinuousMedian(d, 0, 0, 1, eps)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := ContinuousMedian(nb, 0, 0, 1, eps)
	if err != nil {
		t.Fatal(err)
	}
	budget := m1.Guarantee().Epsilon // 2ε
	trials := 150_000
	bins := 25
	c1 := make([]int, bins)
	c2 := make([]int, bins)
	for i := 0; i < trials; i++ {
		c1[int(m1.Release(g)*float64(bins))%bins]++
		c2[int(m2.Release(g)*float64(bins))%bins]++
	}
	for b := 0; b < bins; b++ {
		if c1[b] < 500 || c2[b] < 500 {
			continue
		}
		ratio := math.Abs(math.Log(float64(c1[b]) / float64(c2[b])))
		if ratio > budget+0.15 {
			t.Errorf("bin %d: |log ratio| %v exceeds budget %v", b, ratio, budget)
		}
	}
}

func TestContinuousMedianMatchesGridLimit(t *testing.T) {
	// A very fine grid-based PrivateMedian should approximate the
	// continuous mechanism's piece masses.
	g := rng.New(9)
	d := &dataset.Dataset{}
	for i := 0; i < 21; i++ {
		d.Append(dataset.Example{X: []float64{g.Float64()}})
	}
	eps := 2.0
	cont, err := ContinuousMedian(d, 0, 0, 1, eps)
	if err != nil {
		t.Fatal(err)
	}
	grid := mathx.Linspace(0.0005, 0.9995, 1000)
	disc, vals, err := PrivateMedian(0, grid, eps)
	if err != nil {
		t.Fatal(err)
	}
	// Compare P(output <= 0.5) under both.
	logp := disc.LogProbabilities(d)
	var discMass float64
	for i, v := range vals {
		if v <= 0.5 {
			discMass += math.Exp(logp[i])
		}
	}
	var contMass float64
	const trials = 200_000
	for i := 0; i < trials; i++ {
		if cont.Release(g) <= 0.5 {
			contMass++
		}
	}
	contMass /= trials
	if math.Abs(discMass-contMass) > 0.02 {
		t.Errorf("P(median<=0.5): grid %v vs continuous %v", discMass, contMass)
	}
}

func TestContinuousMedianValidation(t *testing.T) {
	if _, err := ContinuousMedian(&dataset.Dataset{}, 0, 0, 1, 1); err == nil {
		t.Error("empty dataset")
	}
	g := rng.New(11)
	d := dataset.BernoulliTable{P: 0.5}.Generate(5, g)
	if _, err := ContinuousMedian(d, 0, 1, 0, 1); err != ErrBadInterval {
		t.Error("hi <= lo")
	}
	// All values identical (all clamp to an endpoint): single piece.
	same := dataset.New([]dataset.Example{{X: []float64{2}}, {X: []float64{3}}})
	m, err := ContinuousMedian(same, 0, 0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Breaks) != 0 {
		t.Errorf("clamped-to-endpoint data should have no interior breaks: %v", m.Breaks)
	}
	if v := m.Release(g); v < 0 || v > 1 {
		t.Errorf("release %v", v)
	}
}
