package mechanism

import (
	"errors"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mathx"
	"repro/internal/rng"
)

func TestSparseVectorBasics(t *testing.T) {
	g := rng.New(1)
	d := dataset.BernoulliTable{P: 0.5}.Generate(1000, g)
	ones := float64(dataset.CountOnes(d))

	sv, err := NewSparseVector(d, 500, 8, 2, g)
	if err != nil {
		t.Fatal(err)
	}
	if sv.Guarantee().Epsilon != 8 {
		t.Error("guarantee")
	}
	// A query far above threshold must answer true; far below, false
	// (with ε=8 the noise scale is ~1, negligible against gaps of 400+).
	hi := func(dd *dataset.Dataset) float64 { return ones + 1000 }
	lo := func(dd *dataset.Dataset) float64 { return -1000 }
	got, err := sv.Query(lo)
	if err != nil || got {
		t.Errorf("far-below query answered %v, %v", got, err)
	}
	got, err = sv.Query(hi)
	if err != nil || !got {
		t.Errorf("far-above query answered %v, %v", got, err)
	}
	if sv.positivesLeft != 1 {
		t.Errorf("positives remaining = %d", sv.positivesLeft)
	}
	// Second positive consumes the run.
	if _, err := sv.Query(hi); err != nil {
		t.Fatal(err)
	}
	if _, err := sv.Query(hi); !errors.Is(err, ErrSVTExhausted) {
		t.Errorf("expected ErrSVTExhausted, got %v", err)
	}
}

func TestSparseVectorManyNegativesFree(t *testing.T) {
	// Negative answers do not consume the positive budget.
	g := rng.New(3)
	d := dataset.BernoulliTable{P: 0.5}.Generate(100, g)
	sv, err := NewSparseVector(d, 1e9, 1, 1, g)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		got, err := sv.Query(func(dd *dataset.Dataset) float64 { return 0 })
		if err != nil {
			t.Fatal(err)
		}
		if got {
			t.Fatal("query below a huge threshold answered true")
		}
	}
	if sv.positivesLeft != 1 {
		t.Error("negatives must not consume budget")
	}
}

func TestSparseVectorValidation(t *testing.T) {
	g := rng.New(5)
	d := dataset.BernoulliTable{P: 0.5}.Generate(10, g)
	if _, err := NewSparseVector(d, 0, 0, 1, g); err != ErrInvalidEpsilon {
		t.Error("epsilon")
	}
	if _, err := NewSparseVector(d, 0, 1, 0, g); err == nil {
		t.Error("maxPositives")
	}
	if _, err := NewSparseVector(&dataset.Dataset{}, 0, 1, 1, g); err == nil {
		t.Error("empty dataset")
	}
}

func TestSparseVectorPrivacySampled(t *testing.T) {
	// Empirically audit one full SVT interaction (fixed query sequence)
	// between neighbors: the distribution over answer patterns must obey
	// the claimed ε. We use a single query whose value straddles the
	// threshold on the two datasets.
	eps := 1.0
	trials := 200_000
	g := rng.New(7)
	pattern := func(d *dataset.Dataset) int {
		sv, err := NewSparseVector(d, 10, eps, 1, g)
		if err != nil {
			t.Fatal(err)
		}
		count := func(dd *dataset.Dataset) float64 { return float64(dataset.CountOnes(dd)) }
		got, err := sv.Query(count)
		if err != nil {
			t.Fatal(err)
		}
		if got {
			return 1
		}
		return 0
	}
	// Neighbors with counts 10 and 11 around threshold 10.
	bitsA := make([]int, 20)
	for i := 0; i < 10; i++ {
		bitsA[i] = 1
	}
	bitsB := append([]int(nil), bitsA...)
	bitsB[10] = 1
	dA := dataset.BernoulliTable{}.FromBits(bitsA)
	dB := dataset.BernoulliTable{}.FromBits(bitsB)
	countsA := [2]int{}
	countsB := [2]int{}
	for i := 0; i < trials; i++ {
		countsA[pattern(dA)]++
		countsB[pattern(dB)]++
	}
	for v := 0; v < 2; v++ {
		pa := float64(countsA[v]) / float64(trials)
		pb := float64(countsB[v]) / float64(trials)
		ratio := math.Abs(math.Log(pa / pb))
		if ratio > eps+0.1 { // MC tolerance
			t.Errorf("answer %d: |log ratio| = %v exceeds eps %v", v, ratio, eps)
		}
	}
}

func TestPrivateQuantile(t *testing.T) {
	g := rng.New(9)
	d := &dataset.Dataset{}
	for i := 0; i < 201; i++ {
		d.Append(dataset.Example{X: []float64{g.Float64()}})
	}
	grid := mathx.Linspace(0, 1, 41)
	m, vals, err := PrivateQuantile(0, 0.9, grid, 5)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for i := 0; i < 500; i++ {
		if v := vals[m.Release(d, g)]; math.Abs(v-0.9) <= 0.1 {
			hits++
		}
	}
	if hits < 400 {
		t.Errorf("0.9-quantile near truth only %d/500", hits)
	}
	if _, _, err := PrivateQuantile(0, 0, grid, 1); err == nil {
		t.Error("p=0 must error")
	}
	if _, _, err := PrivateQuantile(0, 0.5, nil, 1); err == nil {
		t.Error("no candidates must error")
	}
}

func TestPrivateQuantileMatchesMedianAtHalf(t *testing.T) {
	grid := mathx.Linspace(0, 1, 21)
	mq, _, err := PrivateQuantile(0, 0.5, grid, 2)
	if err != nil {
		t.Fatal(err)
	}
	mm, _, err := PrivateMedian(0, grid, 2)
	if err != nil {
		t.Fatal(err)
	}
	g := rng.New(11)
	d := &dataset.Dataset{}
	for i := 0; i < 51; i++ {
		d.Append(dataset.Example{X: []float64{g.Float64()}})
	}
	pq := mq.LogProbabilities(d)
	pm := mm.LogProbabilities(d)
	for i := range pq {
		if !mathx.AlmostEqual(pq[i], pm[i], 1e-9) {
			t.Fatalf("quantile(0.5) != median at %d: %v vs %v", i, pq[i], pm[i])
		}
	}
}

func TestPrivateRange(t *testing.T) {
	g := rng.New(13)
	d := &dataset.Dataset{}
	for i := 0; i < 500; i++ {
		d.Append(dataset.Example{X: []float64{mathx.Clamp(g.Normal(0.5, 0.1), 0, 1)}})
	}
	grid := mathx.Linspace(0, 1, 51)
	acct := &Accountant{}
	lo, hi, err := PrivateRange(d, 0, 0.9, grid, 10, acct, g)
	if err != nil {
		t.Fatal(err)
	}
	if acct.Count() != 2 {
		t.Errorf("PrivateRange must account both quantile releases, got %d spends", acct.Count())
	}
	if lo >= hi {
		t.Fatalf("range [%v, %v] degenerate", lo, hi)
	}
	// The central 90% of N(0.5, 0.1) is about [0.34, 0.66].
	if lo < 0.2 || lo > 0.45 || hi < 0.55 || hi > 0.8 {
		t.Errorf("range [%v, %v] far from [0.34, 0.66]", lo, hi)
	}
	if _, _, err := PrivateRange(d, 0, 1.5, grid, 1, nil, g); err == nil {
		t.Error("coverage out of range must error")
	}
}
