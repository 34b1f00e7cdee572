package gibbs

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/learn"
	"repro/internal/obs"
	"repro/internal/rng"
)

func cacheTestEstimator(t *testing.T) *Estimator {
	t.Helper()
	loss := learn.NewClippedLoss(learn.SquaredLoss{}, 4)
	thetas := [][]float64{{-1}, {-0.5}, {0}, {0.5}, {1}}
	est, err := New(loss, thetas, nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	est.Parallel.Obs = &obs.Observer{Metrics: obs.NewRegistry()}
	return est
}

// cacheCount reads one of the risk cache's counters
// (dplearn_risk_cache_<kind>_total) from the estimator's registry.
func cacheCount(est *Estimator, kind string) uint64 {
	return est.Parallel.Obs.Reg().Counter("dplearn_risk_cache_"+kind+"_total", "").Value()
}

func cacheTestData(seed int64, n int) *dataset.Dataset {
	model := dataset.LinearModel{Weights: []float64{0.7}, Noise: 0.2}
	return model.Generate(n, rng.New(seed))
}

// TestRiskCacheMemoizes: repeated Risks calls on the same data hit the
// cache, distinct data misses, and cached values are bit-identical to
// the first computation.
func TestRiskCacheMemoizes(t *testing.T) {
	est := cacheTestEstimator(t)
	est.Cache = NewRiskCache()
	d1 := cacheTestData(1, 30)
	d2 := cacheTestData(2, 30)

	first := est.Risks(d1)
	again := est.Risks(d1)
	for i := range first {
		if math.Float64bits(first[i]) != math.Float64bits(again[i]) {
			t.Fatalf("cached risk %d differs: %v vs %v", i, first[i], again[i])
		}
	}
	_ = est.Risks(d2)
	hits, misses, evictions := cacheCount(est, "hits"), cacheCount(est, "misses"), cacheCount(est, "evictions")
	if hits != 1 || misses != 2 || evictions != 0 {
		t.Errorf("stats = (%d hits, %d misses, %d evictions), want (1, 2, 0)", hits, misses, evictions)
	}
	if est.Cache.Len() != 2 {
		t.Errorf("cache holds %d entries, want 2", est.Cache.Len())
	}
}

// TestRiskCacheReturnsDefensiveCopies: mutating a returned risk vector
// must not corrupt the cached copy.
func TestRiskCacheReturnsDefensiveCopies(t *testing.T) {
	est := cacheTestEstimator(t)
	est.Cache = NewRiskCache()
	d := cacheTestData(3, 20)

	first := est.Risks(d)
	first[0] = math.Inf(1)
	again := est.Risks(d)
	if math.IsInf(again[0], 1) {
		t.Fatal("caller mutation leaked into the cache")
	}
}

// TestRiskCacheEvictsAtCapacity: the cache never grows beyond its
// capacity, and evicted entries are simply recomputed (a miss), not an
// error.
func TestRiskCacheEvictsAtCapacity(t *testing.T) {
	est := cacheTestEstimator(t)
	est.Cache = NewRiskCache()
	for i := 0; i < cacheCapacity+8; i++ {
		est.Risks(cacheTestData(int64(100+i), 10))
	}
	if got := est.Cache.Len(); got > cacheCapacity {
		t.Fatalf("cache grew to %d entries, capacity %d", got, cacheCapacity)
	}
	if evictions := cacheCount(est, "evictions"); evictions != 8 {
		t.Fatalf("evictions = %d, want 8", evictions)
	}
}

// TestFingerprintDistinguishesData: the cache's content key must
// separate datasets that differ in one value, in length, or in how their
// values split into rows — a collision would silently serve the wrong
// risk vector — and must match for equal content.
func TestFingerprintDistinguishesData(t *testing.T) {
	base := cacheTestData(7, 25)
	key := contentKey(base)

	if contentKey(cacheTestData(8, 25)) == key {
		t.Error("different sample, same key")
	}
	if contentKey(cacheTestData(7, 24)) == key {
		t.Error("different length, same key")
	}
	mutated := base.Clone()
	mutated.Examples[0].Y += 1e-9
	if contentKey(mutated) == key {
		t.Error("perturbed label, same key")
	}
	mutated2 := base.Clone()
	mutated2.Examples[3].X[0] = math.Nextafter(mutated2.Examples[3].X[0], 2)
	if contentKey(mutated2) == key {
		t.Error("one-ulp feature change, same key")
	}
	if contentKey(base.Clone()) != key {
		t.Error("identical content, different key")
	}
	// The same five values in the same order, split into rows
	// [a b | c] [d | e] against [a | b] [c d | e] (features | label).
	split1 := dataset.New([]dataset.Example{{X: []float64{0.1, 0.2}, Y: 0.3}, {X: []float64{0.4}, Y: 0.5}})
	split2 := dataset.New([]dataset.Example{{X: []float64{0.1}, Y: 0.2}, {X: []float64{0.3, 0.4}, Y: 0.5}})
	if contentKey(split1) == contentKey(split2) {
		t.Error("different row split, same key")
	}
}

// TestNilCacheIsMemoizationOff: a nil Cache computes fresh every call
// and still returns correct (identical) risks.
func TestNilCacheIsMemoizationOff(t *testing.T) {
	est := cacheTestEstimator(t)
	d := cacheTestData(9, 15)
	a := est.Risks(d)
	b := est.Risks(d)
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("risk %d not reproducible without cache", i)
		}
	}
}
