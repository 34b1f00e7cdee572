package gibbs

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sync"

	"repro/internal/dataset"
)

// cacheCapacity bounds the number of risk vectors a RiskCache retains.
// Eviction only affects whether a vector is recomputed, never its value,
// so the (map-order-dependent) eviction choice does not break the
// determinism contract.
const cacheCapacity = 64

// RiskCache memoizes per-θ empirical-risk vectors keyed by a SHA-256 of
// the dataset's exact bits (see contentKey). A cache belongs to one
// predictor space and loss (risks depend on both), so core.Learner owns
// one cache and threads it through every Estimator it calibrates: a Fit
// or Certify looks R̂ up once, and later calls on the same data skip the
// O(|Θ|·n) risk grid. The key is collision-resistant, so the cache keeps
// no copy of the data to compare a hit against.
//
// RiskCache is safe for concurrent use; the channel enumerator queries
// it from many goroutines at once.
type RiskCache struct {
	mu sync.Mutex
	m  map[[sha256.Size]byte][]float64
}

// NewRiskCache returns an empty cache.
func NewRiskCache() *RiskCache {
	return &RiskCache{m: make(map[[sha256.Size]byte][]float64)}
}

// contentKey returns the SHA-256 of d's exact bits as little-endian
// 64-bit words: n, then for each row its length, its features and its
// label. Each row is length-prefixed, so the same values split into rows
// differently hash differently. The words go through a fixed buffer, so
// the key costs no allocation proportional to the data. A hash.Hash's
// Write never returns an error, so its results are discarded.
func contentKey(d *dataset.Dataset) (key [sha256.Size]byte) {
	h := sha256.New()
	var buf [512]byte
	b := binary.LittleEndian.AppendUint64(buf[:0], uint64(len(d.Examples)))
	for _, e := range d.Examples {
		if len(b)+8*(len(e.X)+2) > len(buf) {
			_, _ = h.Write(b)
			b = buf[:0]
		}
		b = binary.LittleEndian.AppendUint64(b, uint64(len(e.X)))
		for _, x := range e.X {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e.Y))
	}
	_, _ = h.Write(b)
	h.Sum(key[:0])
	return key
}

// lookup returns the cached risk vector for key, or nil.
func (c *RiskCache) lookup(key [sha256.Size]byte) []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[key]
}

// store records a risk vector for key, evicting an arbitrary entry when
// the cache is full, and reports whether an eviction happened. The
// stored slice is retained verbatim; callers hand over ownership.
func (c *RiskCache) store(key [sha256.Size]byte, risks []float64) (evicted bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[key]; !ok && len(c.m) >= cacheCapacity {
		for k := range c.m {
			delete(c.m, k)
			break
		}
		evicted = true
	}
	c.m[key] = risks
	return evicted
}

// Len returns the number of cached risk vectors.
func (c *RiskCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}
