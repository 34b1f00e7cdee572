package obs

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// TestNilSafety exercises every instrument and trace call on nil
// receivers: the whole point of the nil-as-no-op contract is that
// library code instruments unconditionally, so a panic here would break
// every uninstrumented caller.
func TestNilSafety(t *testing.T) {
	var o *Observer
	sp := o.Span("x")
	sp.SetAttr("k", 1)
	sp.End()
	if sp.Child("y") != nil {
		t.Fatal("nil span child should be nil")
	}
	if o.Now() != 0 {
		t.Fatal("nil observer Now should be 0")
	}

	var r *Registry
	r.Counter("c", "").Inc()
	r.Gauge("g", "").Set(1)
	r.Histogram("h", "", []float64{1}).Observe(2)
	if r.Counter("c", "").Value() != 0 || r.Gauge("g", "").Value() != 0 {
		t.Fatal("nil instruments should read zero")
	}

	var l *Ledger
	l.Record(LedgerRecord{Epsilon: 1})
	NewLedger(nil).Record(LedgerRecord{Epsilon: 1}) // no tracer: streams nowhere

	var tr *Tracer
	if tr.StartSpan("x") != nil {
		t.Fatal("nil tracer span should be nil")
	}
	if tr.Err() != nil {
		t.Fatal("nil tracer should have no error")
	}
}

// TestObserverPartialWiring checks the Clock fallback chain: explicit
// Clock first, then the Tracer's clock, then zero.
func TestObserverPartialWiring(t *testing.T) {
	clock := &LogicalClock{}
	o := &Observer{Tracer: NewTracer(&bytes.Buffer{}, clock)}
	if o.Now() == 0 {
		t.Fatal("observer should fall back to the tracer's clock")
	}
	explicit := &LogicalClock{}
	o2 := &Observer{Clock: explicit}
	o2.Now()
	if explicit.Now() != 2 {
		t.Fatal("explicit clock should have advanced")
	}
	if (&Observer{}).Now() != 0 {
		t.Fatal("clockless observer should return 0")
	}
}

// TestTraceLedgerRoundTrip writes spans and ledger records through one
// tracer and reads the ledger back out of the NDJSON stream, checking
// the canonical composition survives the round trip bit-for-bit.
func TestTraceLedgerRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	clock := &LogicalClock{}
	tr := NewTracer(&buf, clock)
	led := NewLedger(tr)

	root := tr.StartSpan("fit")
	root.SetAttr("n", 60)
	child := root.Child("gibbs.posterior")
	led.Record(LedgerRecord{Seq: 0, Mechanism: "gibbs", Sensitivity: 1.0 / 60, Epsilon: 0.75, Outcomes: 25, Duration: 3, Span: root.ID()})
	led.Record(LedgerRecord{Seq: 1, Mechanism: "laplace", Sensitivity: 2, Epsilon: 0.25, Delta: 1e-9, Outcomes: 16})
	child.End()
	child.End() // double End is a no-op
	root.End()
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}

	data, err := ReadTraceNDJSON(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	recs := data.Ledger
	if len(recs) != 2 {
		t.Fatalf("got %d ledger records, want 2", len(recs))
	}
	if recs[0].Mechanism != "gibbs" || recs[0].Outcomes != 25 || recs[0].Span != root.ID() {
		t.Fatalf("record 0 mangled: %+v", recs[0])
	}
	if recs[1].Delta != 1e-9 {
		t.Fatalf("record 1 lost delta: %+v", recs[1])
	}
	wantE, wantD := ComposeBasic([]float64{0.75, 0.25}, []float64{0, 1e-9})
	gotE, gotD := ComposeBasic([]float64{recs[0].Epsilon, recs[1].Epsilon}, []float64{recs[0].Delta, recs[1].Delta})
	if math.Float64bits(gotE) != math.Float64bits(wantE) || math.Float64bits(gotD) != math.Float64bits(wantD) {
		t.Fatalf("composed (%g,%g) != (%g,%g)", gotE, gotD, wantE, wantD)
	}
}

// TestReadLedgerRejectsCorruptLines pins the audit-artifact contract: a
// malformed line is an error, never silently skipped.
func TestReadLedgerRejectsCorruptLines(t *testing.T) {
	_, err := ReadTraceNDJSON(strings.NewReader("{\"type\":\"ledger\",\"epsilon\":1}\nnot json\n"))
	if err == nil {
		t.Fatal("corrupt line should be an error")
	}
}

// TestComposeBasicOrderInvariance checks the property the whole ledger
// design rests on: any permutation of the spend multiset composes to
// the same bits.
func TestComposeBasicOrderInvariance(t *testing.T) {
	eps := []float64{0.3, 1e-9, 0.7, 0.1, 0.3, 2.5e-17, 0.9}
	del := []float64{0, 1e-12, 1e-6, 0, 1e-12, 0, 0}
	refE, refD := ComposeBasic(eps, del)
	// Reverse.
	n := len(eps)
	revE := make([]float64, n)
	revD := make([]float64, n)
	for i := range eps {
		revE[n-1-i], revD[n-1-i] = eps[i], del[i]
	}
	gotE, gotD := ComposeBasic(revE, revD)
	if math.Float64bits(gotE) != math.Float64bits(refE) || math.Float64bits(gotD) != math.Float64bits(refD) {
		t.Fatal("reversed multiset composed to different bits")
	}
	// Rotation.
	rotE := append(append([]float64(nil), eps[3:]...), eps[:3]...)
	rotD := append(append([]float64(nil), del[3:]...), del[:3]...)
	gotE, gotD = ComposeBasic(rotE, rotD)
	if math.Float64bits(gotE) != math.Float64bits(refE) || math.Float64bits(gotD) != math.Float64bits(refD) {
		t.Fatal("rotated multiset composed to different bits")
	}
}

// TestSummarizeRender feeds a synthetic trace through Summarize and
// checks the aggregates and the rendered text.
func TestSummarizeRender(t *testing.T) {
	var buf bytes.Buffer
	clock := &LogicalClock{}
	tr := NewTracer(&buf, clock)
	led := NewLedger(tr)
	for i := 0; i < 3; i++ {
		sp := tr.StartSpan("sweep.cell")
		led.Record(LedgerRecord{Seq: uint64(i), Mechanism: "expmech", Epsilon: 0.5})
		sp.End()
	}
	// A kind whose running float sum rounds three times and lands one ulp
	// off the exact sum.
	laplace := []float64{0.1, 0.2, 0.3}
	for i, eps := range laplace {
		led.Record(LedgerRecord{Seq: uint64(3 + i), Mechanism: "laplace", Epsilon: eps})
	}
	// Events come only from older traces; readers still count them.
	buf.WriteString(`{"type":"event","span":9,"ts":9,"kind":"note"}` + "\n")
	sp := tr.StartSpan("fit")
	sp.End()

	s, err := Summarize(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if s.Spans != 4 || s.Events != 1 || s.Releases != 6 {
		t.Fatalf("summary counts wrong: %+v", s)
	}
	wantE, _ := ComposeBasic(append([]float64{0.5, 0.5, 0.5}, laplace...), nil)
	if math.Float64bits(s.Epsilon) != math.Float64bits(wantE) {
		t.Fatalf("summary eps %g != %g", s.Epsilon, wantE)
	}
	if len(s.ByName) != 2 || s.ByName[0].Name != "sweep.cell" || s.ByName[0].Count != 3 {
		t.Fatalf("ByName wrong: %+v", s.ByName)
	}
	if len(s.ByMechanism) != 2 || s.ByMechanism[0].Mechanism != "expmech" || s.ByMechanism[0].Count != 3 ||
		s.ByMechanism[1].Mechanism != "laplace" || s.ByMechanism[1].Count != 3 {
		t.Fatalf("ByMechanism wrong: %+v", s.ByMechanism)
	}
	var running float64
	for _, eps := range laplace {
		running += eps
	}
	exact, _ := ComposeBasic(laplace, nil)
	if got := s.ByMechanism[1].Epsilon; math.Float64bits(got) != math.Float64bits(exact) || math.Float64bits(running) == math.Float64bits(exact) {
		t.Fatalf("laplace eps %.17g, want the exact sum %.17g (the running float sum is %.17g)", got, exact, running)
	}

	var out bytes.Buffer
	if err := s.Render(&out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"6 release(s)", "expmech", "laplace", "3 release(s)  eps=0.6\n", "4 span(s)", "sweep.cell"} {
		if !strings.Contains(text, want) {
			t.Fatalf("rendered summary missing %q:\n%s", want, text)
		}
	}
}

// TestParseBench parses representative `go test -bench -benchmem`
// output, including the workers=N sub-bench convention and header
// lines.
func TestParseBench(t *testing.T) {
	const text = `goos: linux
goarch: amd64
pkg: repro/internal/parallel
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSum/workers=1-8         	     100	   5817175 ns/op	    8240 B/op	       2 allocs/op
BenchmarkSum/workers=4-8         	     500	   2457729 ns/op	    9616 B/op	      15 allocs/op
BenchmarkLaplaceRelease-8        	   10000	      1234 ns/op
PASS
ok  	repro/internal/parallel	2.345s
`
	rep, err := ParseBench(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Package != "repro/internal/parallel" || rep.Goos != "linux" || rep.Goarch != "amd64" {
		t.Fatalf("header wrong: %+v", rep)
	}
	if len(rep.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(rep.Results))
	}
	r0 := rep.Results[0]
	if r0.Name != "Sum/workers=1" || r0.Workers != 1 || r0.Procs != 8 ||
		r0.Iterations != 100 || r0.NsPerOp != 5817175 || r0.BytesPerOp != 8240 || r0.AllocsPerOp != 2 {
		t.Fatalf("result 0 wrong: %+v", r0)
	}
	if rep.Results[1].Workers != 4 {
		t.Fatalf("workers not parsed: %+v", rep.Results[1])
	}
	if r2 := rep.Results[2]; r2.Workers != 0 || r2.BytesPerOp != 0 {
		t.Fatalf("result 2 wrong: %+v", r2)
	}
}

// TestHistogramBuckets pins the cumulative-bucket semantics the
// Prometheus renderer depends on.
func TestHistogramBuckets(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("ticks", "help", []float64{10, 100, 1000})
	for _, v := range []float64{1, 5, 50, 500, 5000} {
		h.Observe(v)
	}
	cum, sum, count := h.Snapshot()
	if count != 5 || sum != 5556 {
		t.Fatalf("sum/count wrong: %v %v", sum, count)
	}
	want := []uint64{2, 3, 4, 5} // ≤10, ≤100, ≤1000, +Inf
	for i, w := range want {
		if cum[i] != w {
			t.Fatalf("bucket %d = %d, want %d", i, cum[i], w)
		}
	}
}

// TestRegistryKindConflictPanics pins the registration contract.
func TestRegistryKindConflictPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge should panic")
		}
	}()
	reg := NewRegistry()
	reg.Counter("x", "")
	reg.Gauge("x", "")
}
