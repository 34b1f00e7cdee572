// Package parallel is the library's deterministic fan-out engine. Every
// data-parallel hot path — the Gibbs estimator's risk grid, the exact
// Figure-1 channel sums, the experiment sweeps — routes through the
// helpers here instead of hand-rolling goroutines.
//
// # Determinism contract
//
// Parallel execution is bit-for-bit deterministic: the result of every
// helper depends only on its inputs, never on the number of workers or on
// goroutine scheduling. Three rules enforce this:
//
//  1. Fixed chunk geometry. Index ranges are cut into chunks whose
//     boundaries are a pure function of the problem size n and the
//     call site's grain, NOT of the worker count. Workers claim chunks from a
//     shared counter, so scheduling varies, but which indices share a
//     chunk never does.
//  2. Ordered reduction. Reductions (Sum, MaxAbs) accumulate one
//     partial per chunk and combine the partials in chunk-index order
//     after all workers finish. Floating-point addition is not
//     associative; fixing the grouping and the combination order fixes
//     the bits.
//  3. Serial path, same arithmetic. Workers == 1 runs on the calling
//     goroutine with no spawns, but walks the identical chunk structure,
//     so its output is byte-identical to every parallel worker count.
//     The golden determinism test (determinism_test.go at the module
//     root) pins this invariant for Fit, Certify, and the channel
//     leakage account.
//
// Element-wise maps (Map filling out[i] = f(i)) are deterministic under
// any partition because each slot is written exactly once; they still use
// the fixed chunk geometry so the cost model is uniform.
package parallel

import (
	"context"
	"runtime"
	"strconv"

	"repro/internal/obs"
)

// Options configures worker fan-out for a computation. The zero value
// (Workers == 0) means "use all CPUs" (GOMAXPROCS); Workers == 1 forces
// serial execution on the calling goroutine; higher values cap the
// goroutine count. Options is plumbed through core.Config so one knob
// controls every hot path of a Learner.
type Options struct {
	// Workers is the maximum number of concurrent workers. 0 means
	// GOMAXPROCS; 1 means serial; negative values are treated as 0.
	Workers int
	// Obs optionally receives engine telemetry: run and chunk counts,
	// and per-worker chunk claims (utilization under work stealing).
	// Because Options is the one knob every hot path threads through
	// (core.Config.Parallel → gibbs, channel, sweeps), setting Obs here
	// instruments the whole pipeline. Instrumentation only observes — it
	// never changes chunk geometry, reduction order, or scheduling — so
	// results stay bit-identical with or without an Observer (see the
	// determinism contract above; the golden test pins this).
	Obs *obs.Observer
}

// Resolve returns the effective worker count for a problem of size n:
// at least 1, at most n, defaulting to GOMAXPROCS when Workers <= 0.
func (o Options) Resolve(n int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// minChunk is the smallest chunk an index range is cut into. Small
// chunks amortize badly (channel/counter traffic per chunk); large
// chunks load-balance badly. 256 indices of empirical-risk work is
// comfortably past the amortization knee while still yielding dozens of
// chunks on the grids the benchmarks care about.
const minChunk = 256

// maxChunks bounds the number of chunks so the per-chunk partial slices
// stay small for huge n.
const maxChunks = 1024

// chunkSizeGrain returns the deterministic chunk size for a problem of
// size n with minimum chunk length grain. It is a pure function of
// (n, grain) — never of the worker count — which is what makes
// chunk-local reductions reproducible across Workers settings. The grain
// is a property of the call site (how expensive one index is), so it
// stays a compile-time constant there.
func chunkSizeGrain(n, grain int) int {
	if grain < 1 {
		grain = 1
	}
	if n <= grain {
		return max(n, 1)
	}
	size := grain
	if n/size > maxChunks {
		size = (n + maxChunks - 1) / maxChunks
	}
	return size
}

// numChunksGrain returns how many chunks of chunkSizeGrain(n, grain)
// cover [0, n).
func numChunksGrain(n, grain int) int {
	if n <= 0 {
		return 0
	}
	size := chunkSizeGrain(n, grain)
	return (n + size - 1) / size
}

// ForGrain runs body(lo, hi) over consecutive chunks covering [0, n),
// fanning the chunks out across the resolved worker count. body must
// treat distinct index ranges independently (no shared mutable state
// beyond disjoint slice slots); under that contract the result is
// identical for every worker count. ForGrain blocks until all chunks
// complete. grain is the minimum number of indices per chunk: use a
// small grain (e.g. 8) when one index is expensive — a full
// empirical-risk evaluation, a whole posterior row.
//
// A panic inside body no longer crashes the process from a worker
// goroutine: it is recovered into a structured *WorkerError (worker
// slot, chunk range, stack) and re-panicked on the calling goroutine,
// where callers and tests can recover it. Use ForGrainCtx to receive
// the fault as an error instead.
func ForGrain(n, grain int, opts Options, body func(lo, hi int)) {
	if err := ForGrainCtx(context.Background(), n, grain, opts, body); err != nil {
		// Background contexts never cancel, so the only possible error
		// is a recovered worker panic.
		panic(err)
	}
}

// recordRun publishes one engine run's telemetry: the execution mode,
// the total chunk count, and per-worker-slot chunk claims. Workers claim
// chunks from a shared counter, so the per-slot claim distribution is
// exactly the engine's utilization profile — a starved slot shows up as
// a lagging dplearn_parallel_worker_chunks_total series.
func recordRun(o *obs.Observer, mode string, claims []int64) {
	reg := o.Reg()
	if reg == nil {
		return
	}
	var total uint64
	for _, c := range claims {
		total += uint64(c)
	}
	reg.Counter("dplearn_parallel_runs_total",
		"parallel-engine runs by execution mode", "mode", mode).Inc()
	reg.Counter("dplearn_parallel_chunks_total",
		"index chunks processed by the parallel engine").Add(total)
	for w, c := range claims {
		if c > 0 {
			reg.Counter("dplearn_parallel_worker_chunks_total",
				"chunks claimed per worker slot (utilization)", "worker", strconv.Itoa(w)).Add(uint64(c))
		}
	}
}

// Map fills and returns out[i] = f(i) for i in [0, n). Each slot is an
// independent pure function of i, so the result is worker-count
// independent by construction.
func Map(n int, opts Options, f func(i int) float64) []float64 {
	return MapGrain(n, minChunk, opts, f)
}

// MapGrain is Map with an explicit grain (see ForGrain). A panic in f
// is re-panicked on the caller as a *WorkerError.
func MapGrain(n, grain int, opts Options, f func(i int) float64) []float64 {
	out, err := MapGrainCtx(context.Background(), n, grain, opts, f)
	if err != nil {
		panic(err)
	}
	return out
}

// Sum returns the ordered chunked sum of term(i) for i in [0, n): each
// chunk accumulates a Kahan-compensated partial, and the partials are
// combined in chunk-index order with a second Kahan pass. The grouping
// depends only on n (rule 1), the combination order is fixed (rule 2),
// so the result is bit-identical for every worker count.
func Sum(n int, opts Options, term func(i int) float64) float64 {
	return SumGrain(n, minChunk, opts, term)
}

// SumGrain is Sum with an explicit grain (see ForGrain). The grain is
// part of the fixed chunk geometry, so a call site always reduces in the
// same order regardless of worker count. A panic in term is re-panicked
// on the caller as a *WorkerError.
func SumGrain(n, grain int, opts Options, term func(i int) float64) float64 {
	s, err := SumGrainCtx(context.Background(), n, grain, opts, term)
	if err != nil {
		panic(err)
	}
	return s
}

// MaxAbs returns max_i |term(i)| over [0, n), reduced per chunk and then
// in chunk-index order. Max is order-invariant for floats (ignoring NaN,
// which callers must not produce), but the ordered reduction keeps the
// code shape uniform with Sum. Empty ranges return 0.
func MaxAbs(n int, opts Options, term func(i int) float64) float64 {
	if n <= 0 {
		return 0
	}
	size := chunkSizeGrain(n, minChunk)
	chunks := numChunksGrain(n, minChunk)
	partials := make([]float64, chunks)
	ForGrain(n, minChunk, opts, func(lo, hi int) {
		var m float64
		for i := lo; i < hi; i++ {
			v := term(i)
			if v < 0 {
				v = -v
			}
			if v > m {
				m = v
			}
		}
		partials[lo/size] = m
	})
	var m float64
	for _, p := range partials {
		if p > m {
			m = p
		}
	}
	return m
}
