package gibbs

import (
	"sync"

	"repro/internal/dataset"
)

// cacheCapacity bounds the number of risk vectors a RiskCache retains.
// Eviction only affects whether a vector is recomputed, never its value,
// so the (map-order-dependent) eviction choice does not break the
// determinism contract.
const cacheCapacity = 64

// RiskCache memoizes per-θ empirical-risk vectors keyed by the dataset's
// content fingerprint. A cache belongs to one predictor space and loss
// (risks depend on both), so core.Learner owns one cache and threads it
// through every Estimator it calibrates: Fit + Certify +
// AccountInformation on the same data then evaluate the O(|Θ|·n) risk
// grid exactly once.
//
// RiskCache is safe for concurrent use; the channel enumerator queries
// it from many goroutines at once.
type RiskCache struct {
	mu sync.Mutex
	m  map[dataset.Fingerprint][]float64
}

// NewRiskCache returns an empty cache.
func NewRiskCache() *RiskCache {
	return &RiskCache{m: make(map[dataset.Fingerprint][]float64)}
}

// lookup returns the cached risk vector for fp, or nil.
func (c *RiskCache) lookup(fp dataset.Fingerprint) []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[fp]
}

// store records a risk vector for fp, evicting an arbitrary entry when
// the cache is full, and reports whether an eviction happened. The
// stored slice is retained verbatim; callers hand over ownership.
func (c *RiskCache) store(fp dataset.Fingerprint, risks []float64) (evicted bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[fp]; !ok && len(c.m) >= cacheCapacity {
		for k := range c.m {
			delete(c.m, k)
			break
		}
		evicted = true
	}
	c.m[fp] = risks
	return evicted
}

// Len returns the number of cached risk vectors.
func (c *RiskCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}
