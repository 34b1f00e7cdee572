package checkpoint

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

type cellResult struct {
	Gibbs float64 `json:"gibbs"`
	Out   float64 `json:"out"`
}

// TestRoundTripBitExact pins the property the resume contract rests on:
// a float64 survives the JSON round trip bit-for-bit.
func TestRoundTripBitExact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.ndjson")
	l, err := Open(path, false)
	if err != nil {
		t.Fatal(err)
	}
	vals := []float64{0.1, 1.0 / 3.0, math.Pi, 1e-308, math.Nextafter(1, 2)}
	for i, v := range vals {
		if err := l.Put(i, int64(100+i), cellResult{Gibbs: v, Out: -v}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != len(vals) {
		t.Fatalf("resumed %d entries, want %d", r.Len(), len(vals))
	}
	for i, v := range vals {
		raw, ok := r.Lookup(i, int64(100+i))
		if !ok {
			t.Fatalf("cell %d missing", i)
		}
		var got cellResult
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.Gibbs) != math.Float64bits(v) {
			t.Fatalf("cell %d: %x != %x", i, math.Float64bits(got.Gibbs), math.Float64bits(v))
		}
	}
}

// TestSeedMismatchMisses pins the fingerprint check: an entry saved
// under a different seed (stale log from another run) never matches.
func TestSeedMismatchMisses(t *testing.T) {
	l, err := Open(filepath.Join(t.TempDir(), "ck.ndjson"), false)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Put(0, 42, 1.5); err != nil {
		t.Fatal(err)
	}
	if _, ok := l.Lookup(0, 43); ok {
		t.Fatal("lookup matched across seeds")
	}
	if _, ok := l.Lookup(1, 42); ok {
		t.Fatal("lookup matched across cells")
	}
}

// TestTornTailSkipped pins crash tolerance: a partial trailing line (a
// killed writer) is skipped on resume, and appends land after the
// survivors.
func TestTornTailSkipped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.ndjson")
	l, err := Open(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Put(0, 7, 0.25); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"cell":1,"seed":8,"res`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	r, err := Open(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 {
		t.Fatalf("want 1 surviving entry, got %d", r.Len())
	}
	if err := r.Put(1, 8, 0.5); err != nil {
		t.Fatal(err)
	}
	r.Close()
	// The appended entry must survive a second resume despite the torn
	// bytes in the middle of the file.
	r2, err := Open(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if _, ok := r2.Lookup(1, 8); !ok {
		t.Fatal("entry appended after a torn tail was lost")
	}
}

// TestTruncateOnFreshOpen pins that resume=false starts clean.
func TestTruncateOnFreshOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.ndjson")
	l, _ := Open(path, false)
	if err := l.Put(0, 1, 2.0); err != nil {
		t.Fatal(err)
	}
	l.Close()
	f, err := Open(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.Len() != 0 {
		t.Fatalf("fresh open kept %d entries", f.Len())
	}
}

// TestNilLogIsInert pins nil-safety: sweeps run checkpoint-free on a
// nil *Log with no branches.
func TestNilLogIsInert(t *testing.T) {
	var l *Log
	if _, ok := l.Lookup(0, 0); ok {
		t.Fatal("nil lookup hit")
	}
	if err := l.Put(0, 0, 1.0); err != nil {
		t.Fatal(err)
	}
	if l.Len() != 0 {
		t.Fatal("nil log not inert")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPutAfterCloseIsErrWrite pins the typed write failure.
func TestPutAfterCloseIsErrWrite(t *testing.T) {
	l, err := Open(filepath.Join(t.TempDir(), "ck.ndjson"), false)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if err := l.Put(0, 1, 2.0); !errors.Is(err, ErrWrite) {
		t.Fatalf("want ErrWrite, got %v", err)
	}
	// NaN cannot be marshaled: also a typed write failure.
	l2, err := Open(filepath.Join(t.TempDir(), "ck2.ndjson"), false)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if err := l2.Put(0, 1, math.NaN()); !errors.Is(err, ErrWrite) {
		t.Fatalf("NaN put: want ErrWrite, got %v", err)
	}
}

// TestConcurrentPuts exercises the mutex under -race.
func TestConcurrentPuts(t *testing.T) {
	l, err := Open(filepath.Join(t.TempDir(), "ck.ndjson"), false)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				cell := w*50 + i
				if err := l.Put(cell, int64(cell), float64(cell)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if l.Len() != 400 {
		t.Fatalf("want 400 entries, got %d", l.Len())
	}
}
