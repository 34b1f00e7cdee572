package parallel

import (
	"fmt"
	"math"
	"testing"
)

// benchWorkerCounts is the workers=N sweep every engine benchmark walks;
// cmd/dplearn-bench parses the sub-bench names into the BENCH_parallel.json
// artifact's Workers field.
var benchWorkerCounts = []int{1, 2, 4, 8}

// benchN is large enough to produce dozens of chunks at the default
// grain, so the work-stealing loop — not the spawn cost — dominates.
const benchN = 1 << 18

// BenchmarkSum measures the ordered chunked reduction across worker
// counts. The term does a little transcendental work per index so the
// benchmark measures fan-out over real arithmetic, not loop overhead.
func BenchmarkSum(b *testing.B) {
	for _, w := range benchWorkerCounts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			opts := Options{Workers: w}
			var sink float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink = Sum(benchN, opts, func(i int) float64 {
					return math.Sqrt(float64(i) + 1)
				})
			}
			_ = sink
		})
	}
}

// BenchmarkMap measures element-wise fan-out (the risk-grid shape:
// out[i] = f(i)) across worker counts.
func BenchmarkMap(b *testing.B) {
	for _, w := range benchWorkerCounts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			opts := Options{Workers: w}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out := Map(benchN, opts, func(i int) float64 {
					return math.Log1p(float64(i))
				})
				_ = out
			}
		})
	}
}

// BenchmarkForGrainOverhead measures the engine's fixed cost on cheap
// bodies — the regime where instrumentation overhead would show first.
func BenchmarkForGrainOverhead(b *testing.B) {
	for _, w := range benchWorkerCounts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			opts := Options{Workers: w}
			// One slot per chunk keeps the body race-free without atomics
			// polluting the overhead measurement.
			slots := make([]int64, numChunksGrain(benchN, minChunk))
			size := chunkSizeGrain(benchN, minChunk)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ForGrain(benchN, minChunk, opts, func(lo, hi int) {
					slots[lo/size] = int64(hi - lo)
				})
			}
		})
	}
}
