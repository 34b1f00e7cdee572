// Context-aware and panic-isolated variants of the fan-out helpers.
//
// # Cancellation contract
//
// The *Ctx helpers check ctx.Err() at chunk-claim boundaries only: a
// chunk that has started always runs to completion, and a chunk is never
// claimed after the context is done. Because the chunk geometry is a
// pure function of (n, grain) — never of the worker count or of where a
// previous run was interrupted — a run that completes (whether or not a
// sibling run was cancelled) produces bit-identical results to every
// other completed run.
//
// # Panic isolation
//
// A panic inside body is recovered by the claiming worker and converted
// into a structured *WorkerError carrying the worker slot, the chunk
// range, the panic value, and the stack. The engine then stops claiming
// chunks (in-flight chunks drain) and reports the recovered panic with
// the lowest chunk index, so a seeded fault injection observes a stable
// abort instead of a process crash. The plain (non-Ctx) helpers re-panic
// the *WorkerError on the calling goroutine, which keeps their crash-on-
// panic contract while making the failure recoverable and attributable.
package parallel

import (
	"context"
	"fmt"
	"runtime/debug"

	"repro/internal/mathx"
	"repro/internal/obs"
	"sync"
	"sync/atomic"
)

// WorkerError is a panic recovered inside a parallel worker: the
// structured, deterministic form of a fault that would otherwise crash
// the process from a goroutine no caller can recover on.
type WorkerError struct {
	// Worker is the worker slot that claimed the failing chunk.
	Worker int
	// Lo, Hi delimit the chunk's index range [Lo, Hi).
	Lo, Hi int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

// Error summarizes the fault; the stack is kept separate so error chains
// stay one line.
func (e *WorkerError) Error() string {
	return fmt.Sprintf("parallel: worker %d panicked on chunk [%d,%d): %v", e.Worker, e.Lo, e.Hi, e.Value)
}

// Unwrap exposes a panic value that was itself an error, so
// errors.Is/As see through the worker boundary (e.g. an injected fault
// sentinel survives recovery).
func (e *WorkerError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// runChunk executes body on one chunk, converting a panic into a
// *WorkerError. When the run's context carried a span, each chunk runs
// under a child span ("chunk", with worker slot and index range): the
// finest-grained timing unit a request waterfall resolves. The chunk
// count is a pure function of (n, grain), and the serial path creates
// the same spans, so the number of clock reads — and hence logical tick
// totals — is identical for every worker count.
func runChunk(sp *obs.Span, worker, lo, hi int, body func(lo, hi int)) (werr *WorkerError) {
	cs := sp.Child("chunk")
	if cs != nil {
		cs.SetAttr("worker", worker)
		cs.SetAttr("lo", lo)
		cs.SetAttr("hi", hi)
	}
	defer cs.End()
	defer func() {
		if r := recover(); r != nil {
			werr = &WorkerError{Worker: worker, Lo: lo, Hi: hi, Value: r, Stack: debug.Stack()}
		}
	}()
	body(lo, hi)
	return nil
}

// ForGrainCtx is ForGrain with cancellation and panic isolation: it
// returns a wrapped ctx.Err() if the context ends at a chunk-claim
// boundary, or a *WorkerError if body panics. A nil error means every
// chunk completed. The plain helpers run through it, so a run that
// completes is bit-identical to one executed without a context.
func ForGrainCtx(ctx context.Context, n, grain int, opts Options, body func(lo, hi int)) error {
	if n <= 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	workers := opts.Resolve(n)
	size := chunkSizeGrain(n, grain)
	chunks := numChunksGrain(n, grain)
	sp := obs.SpanFromContext(ctx)
	if workers == 1 || chunks == 1 {
		for c := 0; c < chunks; c++ {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("parallel: canceled before chunk %d/%d: %w", c, chunks, err)
			}
			lo := c * size
			hi := min(lo+size, n)
			if werr := runChunk(sp, 0, lo, hi, body); werr != nil {
				return werr
			}
		}
		recordRun(opts.Obs, "serial", []int64{int64(chunks)})
		return nil
	}
	if workers > chunks {
		workers = chunks
	}
	claims := make([]int64, workers)
	werrs := make([]*WorkerError, chunks)
	var aborted atomic.Bool
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(slot int) {
			defer wg.Done()
			for {
				// Chunk-claim boundary: never claim after a fault or a
				// done context; a claimed chunk always completes.
				if aborted.Load() || ctx.Err() != nil {
					return
				}
				c := int(next.Add(1)) - 1
				if c >= chunks {
					return
				}
				lo := c * size
				hi := min(lo+size, n)
				if werr := runChunk(sp, slot, lo, hi, body); werr != nil {
					werrs[c] = werr
					aborted.Store(true)
					return
				}
				claims[slot]++
			}
		}(w)
	}
	wg.Wait()
	// Chunk-index order makes the reported fault stable: among the
	// panics that fired, the lowest-indexed one is returned.
	for _, werr := range werrs {
		if werr != nil {
			return werr
		}
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("parallel: canceled at chunk-claim boundary: %w", err)
	}
	recordRun(opts.Obs, "parallel", claims)
	return nil
}

// MapGrainCtx is MapGrain with cancellation and panic isolation. On
// error the partially-filled slice is discarded.
func MapGrainCtx(ctx context.Context, n, grain int, opts Options, f func(i int) float64) ([]float64, error) {
	out := make([]float64, n)
	if err := ForGrainCtx(ctx, n, grain, opts, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = f(i)
		}
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// SumGrainCtx is SumGrain with cancellation and panic isolation: the
// ordered chunked Kahan reduction is the same, so a completed run is
// bit-identical for every worker count.
func SumGrainCtx(ctx context.Context, n, grain int, opts Options, term func(i int) float64) (float64, error) {
	if n <= 0 {
		return 0, nil
	}
	size := chunkSizeGrain(n, grain)
	chunks := numChunksGrain(n, grain)
	partials := make([]float64, chunks)
	if err := ForGrainCtx(ctx, n, grain, opts, func(lo, hi int) {
		var k mathx.KahanSum
		for i := lo; i < hi; i++ {
			k.Add(term(i))
		}
		partials[lo/size] = k.Sum()
	}); err != nil {
		return 0, err
	}
	var total mathx.KahanSum
	for _, p := range partials {
		total.Add(p)
	}
	return total.Sum(), nil
}
