package parallel

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync/atomic"
	"testing"
)

// TestForCtxCompletesLikeFor pins that a completed ctx run is
// bit-identical to the plain helpers for several worker counts.
func TestForCtxCompletesLikeFor(t *testing.T) {
	n := 10_000
	term := func(i int) float64 { return math.Sin(float64(i)) / (1 + float64(i)) }
	want := Sum(n, Options{Workers: 1}, term)
	for _, workers := range []int{1, 2, 7} {
		got, err := SumGrainCtx(context.Background(), n, minChunk, Options{Workers: workers}, term)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("workers=%d: SumGrainCtx %v != Sum %v", workers, got, want)
		}
		m, err := MapGrainCtx(context.Background(), n, minChunk, Options{Workers: workers}, term)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range m {
			if math.Float64bits(m[i]) != math.Float64bits(term(i)) {
				t.Fatalf("workers=%d: MapGrainCtx slot %d differs", workers, i)
			}
		}
	}
}

// TestForCtxPreCanceled pins that a context that is already done
// prevents any chunk from running, serially and in parallel.
func TestForCtxPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		err := ForGrainCtx(ctx, 1_000_000, minChunk, Options{Workers: workers}, func(lo, hi int) {
			ran.Add(1)
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: want context.Canceled, got %v", workers, err)
		}
		if ran.Load() != 0 {
			t.Fatalf("workers=%d: %d chunks ran after cancellation", workers, ran.Load())
		}
	}
}

// TestForCtxCancelMidRun cancels from inside a chunk and checks the
// engine stops claiming at the next boundary and reports the context
// error.
func TestForCtxCancelMidRun(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		err := ForGrainCtx(ctx, 1<<20, 256, Options{Workers: workers}, func(lo, hi int) {
			if ran.Add(1) == 3 {
				cancel()
			}
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: want context.Canceled, got %v", workers, err)
		}
		total := int64(numChunksGrain(1<<20, 256))
		if ran.Load() >= total {
			t.Fatalf("workers=%d: all %d chunks ran despite cancellation", workers, total)
		}
	}
}

// TestWorkerErrorStructured pins panic isolation: the panic is recovered
// into a *WorkerError carrying the chunk range and stack, the sentinel
// panic value stays reachable through errors.Is, and the process (and
// the other workers) survive.
func TestWorkerErrorStructured(t *testing.T) {
	sentinel := errors.New("injected")
	for _, workers := range []int{1, 4} {
		err := ForGrainCtx(context.Background(), 10_000, 256, Options{Workers: workers}, func(lo, hi int) {
			if lo == 512 {
				panic(sentinel)
			}
		})
		var werr *WorkerError
		if !errors.As(err, &werr) {
			t.Fatalf("workers=%d: want *WorkerError, got %v", workers, err)
		}
		if werr.Lo != 512 || werr.Hi != 768 {
			t.Fatalf("workers=%d: fault chunk [%d,%d), want [512,768)", workers, werr.Lo, werr.Hi)
		}
		if !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: sentinel lost through recovery: %v", workers, err)
		}
		if len(werr.Stack) == 0 || !strings.Contains(werr.Error(), "injected") {
			t.Fatalf("workers=%d: WorkerError missing stack or message: %v", workers, werr)
		}
	}
}

// TestWorkerErrorDeterministicAbort pins that a seeded fault at a fixed
// chunk aborts with the same WorkerError chunk range on every run and
// worker count.
func TestWorkerErrorDeterministicAbort(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		for _, workers := range []int{1, 2, 8} {
			err := ForGrainCtx(context.Background(), 100_000, 256, Options{Workers: workers}, func(lo, hi int) {
				if lo == 0 {
					panic("first-chunk fault")
				}
			})
			var werr *WorkerError
			if !errors.As(err, &werr) {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if werr.Lo != 0 {
				t.Fatalf("workers=%d trial %d: abort chunk %d, want 0", workers, trial, werr.Lo)
			}
		}
	}
}

// TestForGrainRepanicsOnCaller pins that the plain helpers convert a
// worker panic into a recoverable panic on the calling goroutine.
func TestForGrainRepanicsOnCaller(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected re-panic on caller")
		}
		if _, ok := r.(*WorkerError); !ok {
			t.Fatalf("re-panic value is %T, want *WorkerError", r)
		}
	}()
	ForGrain(10_000, 256, Options{Workers: 4}, func(lo, hi int) {
		panic("boom")
	})
}

// TestSumCtxDiscardsOnError pins that a canceled or faulted reduction
// returns the zero value, never a partial sum.
func TestSumCtxDiscardsOnError(t *testing.T) {
	got, err := SumGrainCtx(context.Background(), 10_000, 256, Options{Workers: 2}, func(i int) float64 {
		if i == 5000 {
			panic("faulted term")
		}
		return 1
	})
	if err == nil || got != 0 {
		t.Fatalf("want (0, error), got (%v, %v)", got, err)
	}
}
