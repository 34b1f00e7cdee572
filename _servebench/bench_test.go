package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestStreamIsAPureFunctionOfTheSeed pins that the same seed gives a
// byte-identical request stream and another seed a different one.
func TestStreamIsAPureFunctionOfTheSeed(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			stream := func(seed int64) []request {
				var out []request
				for u := 0; u < 40; u++ {
					reqs, err := w.unit(seed, u)
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, reqs...)
				}
				return out
			}
			a, b, other := stream(7), stream(7), stream(8)
			if !reflect.DeepEqual(a, b) {
				t.Fatal("two streams from seed 7 differ")
			}
			if reflect.DeepEqual(a, other) {
				t.Fatal("seeds 7 and 8 gave the same stream")
			}
			for _, r := range a {
				if r.tenant == "" || (r.body == nil) != (r.endpoint == "budget") {
					t.Fatalf("malformed request %+v", r)
				}
			}
		})
	}
}

// TestPrefillIsAPureFunctionOfTheSeed pins that a prefill written twice
// from one seed is byte-identical and that the server's recovery path
// reads back every pair with the recorded ε sum.
func TestPrefillIsAPureFunctionOfTheSeed(t *testing.T) {
	const tenants, history = 2, 25
	write := func(seed int64) (string, prefillInfo) {
		dir := t.TempDir()
		info, err := writePrefill(dir, seed, tenants, history)
		if err != nil {
			t.Fatal(err)
		}
		return dir, info
	}
	a, infoA := write(3)
	b, infoB := write(3)
	c, _ := write(4)
	if !reflect.DeepEqual(infoA.EpsilonSum, infoB.EpsilonSum) {
		t.Fatalf("ε sums differ: %v vs %v", infoA.EpsilonSum, infoB.EpsilonSum)
	}
	for i := 0; i < tenants; i++ {
		name := tenantID(i) + ".wal"
		ba, err := os.ReadFile(filepath.Join(a, name))
		if err != nil {
			t.Fatal(err)
		}
		bb, err := os.ReadFile(filepath.Join(b, name))
		if err != nil {
			t.Fatal(err)
		}
		bc, err := os.ReadFile(filepath.Join(c, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ba, bb) {
			t.Fatalf("%s differs between two prefills from seed 3", name)
		}
		if bytes.Equal(ba, bc) {
			t.Fatalf("%s is the same for seeds 3 and 4", name)
		}
	}
	lr, err := newLayerRun(&workload{name: "probe", tenants: tenants, grid: 5}, a, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer lr.close()
	for i := 0; i < tenants; i++ {
		acct := lr.tenants[tenantID(i)].acct
		if acct.Count() != history || acct.BasicComposition().Epsilon != infoA.EpsilonSum[i] {
			t.Fatalf("tenant %d recovered %d releases composing to %v, want %d and %v",
				i, acct.Count(), acct.BasicComposition().Epsilon, history, infoA.EpsilonSum[i])
		}
	}
}

// TestSelfTimes checks self time on a hand-built tree: overlapping
// children count once, a child running past its parent is clipped, and
// a grandchild is subtracted from its own parent only.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request", Layer: "bench", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "wal.reserve", Layer: "wal", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "mechanism.admit", Layer: "mechanism", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "wal.commit", Layer: "wal", Start: 90, End: 120},
		{ID: 5, Parent: 3, Name: "core.fit", Layer: "core", Start: 25, End: 35},
	}
	got := selfTimes(spans)
	want := map[string]int64{
		"bench":     100 - (50 - 10) - (100 - 90), // children cover [10,50) and [90,100)
		"wal":       20 + 30,
		"mechanism": 30 - 10,
		"core":      10,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
	if d := dominantLayer(got); d != "wal" {
		t.Fatalf("dominant layer %q, want wal", d)
	}
}

// TestPercentileStatesItsSampleCount pins the nearest-rank percentile
// and the sample counts it reports.
func TestPercentileStatesItsSampleCount(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	for _, c := range []struct {
		p            float64
		value        float64
		beyond, size int
	}{
		{50, 50, 50, 100},
		{99, 99, 1, 100},
		{100, 100, 0, 100},
		{1, 1, 99, 100},
	} {
		q := percentile(xs, c.p)
		if q.Value != c.value || q.Beyond != c.beyond || q.N != c.size {
			t.Errorf("p%v = %+v, want value %v with %d of %d beyond", c.p, q, c.value, c.beyond, c.size)
		}
	}
	if q := percentile(nil, 50); q.N != 0 || q.Value != 0 {
		t.Errorf("empty sample gave %+v", q)
	}
	if xs[0] != 100 {
		t.Error("percentile reordered its input")
	}
}
