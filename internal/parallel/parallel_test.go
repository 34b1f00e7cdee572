package parallel

import (
	"math"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/mathx"
)

// workerCounts exercises the serial path, small and awkward fan-outs,
// and the GOMAXPROCS default.
func workerCounts() []int {
	return []int{1, 2, 3, 7, runtime.GOMAXPROCS(0), 0}
}

func TestResolve(t *testing.T) {
	cases := []struct {
		workers, n, want int
	}{
		{0, 100, runtime.GOMAXPROCS(0)},
		{-3, 100, runtime.GOMAXPROCS(0)},
		{1, 100, 1},
		{8, 4, 4},
		{8, 0, 1},
	}
	for _, c := range cases {
		if got := (Options{Workers: c.workers}).Resolve(c.n); got != c.want {
			t.Errorf("Resolve(workers=%d, n=%d) = %d, want %d", c.workers, c.n, c.want, got)
		}
	}
}

func TestChunkSizeDependsOnlyOnN(t *testing.T) {
	// Pure function of n: small n is one chunk, large n is capped at
	// maxChunks chunks.
	if got := chunkSizeGrain(10, minChunk); got != 10 {
		t.Errorf("chunkSizeGrain(10, minChunk) = %d", got)
	}
	if got := chunkSizeGrain(minChunk, minChunk); got != minChunk {
		t.Errorf("chunkSizeGrain(%d) = %d", minChunk, got)
	}
	if got := chunkSizeGrain(100*minChunk, minChunk); got != minChunk {
		t.Errorf("chunkSizeGrain(large) = %d, want %d", got, minChunk)
	}
	huge := 10 * maxChunks * minChunk
	if nc := numChunksGrain(huge, minChunk); nc > maxChunks {
		t.Errorf("numChunks(%d) = %d exceeds cap %d", huge, nc, maxChunks)
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, w := range workerCounts() {
		for _, n := range []int{0, 1, 255, 256, 257, 1000, 5000} {
			hits := make([]int32, n)
			ForGrain(n, minChunk, Options{Workers: w}, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", w, n, i, h)
				}
			}
		}
	}
}

func TestMapMatchesSerial(t *testing.T) {
	n := 3000
	f := func(i int) float64 { return math.Sin(float64(i)) * math.Exp(-float64(i)/1000) }
	want := Map(n, Options{Workers: 1}, f)
	for _, w := range workerCounts() {
		got := Map(n, Options{Workers: w}, f)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: Map[%d] = %v != %v", w, i, got[i], want[i])
			}
		}
	}
}

func TestSumBitIdenticalAcrossWorkerCounts(t *testing.T) {
	// Adversarial magnitudes: mixing 1e16 with 1e-8 terms makes the sum
	// depend on grouping, so bit-equality across worker counts is a real
	// test of the fixed chunk geometry + ordered combination.
	n := 4097
	term := func(i int) float64 {
		switch i % 3 {
		case 0:
			return 1e16 * math.Sin(float64(i))
		case 1:
			return 1e-8 * float64(i)
		default:
			return -1e15 * math.Cos(float64(i))
		}
	}
	want := Sum(n, Options{Workers: 1}, term)
	for _, w := range workerCounts() {
		if got := Sum(n, Options{Workers: w}, term); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("workers=%d: Sum = %x, serial %x", w, math.Float64bits(got), math.Float64bits(want))
		}
	}
}

func TestSumAccuracy(t *testing.T) {
	// Against the straight Kahan sum the library uses elsewhere: the
	// chunked reduction must agree to full precision on benign input.
	n := 10000
	term := func(i int) float64 { return 1 / float64(i+1) }
	var k mathx.KahanSum
	for i := 0; i < n; i++ {
		k.Add(term(i))
	}
	got := Sum(n, Options{}, term)
	if !mathx.AlmostEqual(got, k.Sum(), 1e-14) {
		t.Errorf("Sum = %v, Kahan = %v", got, k.Sum())
	}
	if Sum(0, Options{}, term) != 0 {
		t.Error("empty Sum must be 0")
	}
}

func TestMaxAbs(t *testing.T) {
	n := 2000
	term := func(i int) float64 { return math.Sin(float64(i)) * float64(i%97) * (-1) }
	want := MaxAbs(n, Options{Workers: 1}, term)
	for _, w := range workerCounts() {
		if got := MaxAbs(n, Options{Workers: w}, term); got != want {
			t.Fatalf("workers=%d: MaxAbs = %v != %v", w, got, want)
		}
	}
	if MaxAbs(0, Options{}, term) != 0 {
		t.Error("empty MaxAbs must be 0")
	}
}
