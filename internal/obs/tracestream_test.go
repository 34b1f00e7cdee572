package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestLedgerRecordBackCompat pins the NDJSON wire shape of trace-less
// ledger records: adding the Trace field must not change a single byte
// of pre-tracing ledgers (omitempty), so existing artifacts round-trip
// and the ComposeBasic cross-check sees the same multiset.
func TestLedgerRecordBackCompat(t *testing.T) {
	rec := LedgerRecord{Seq: 3, Mechanism: "laplace", Sensitivity: 2, Epsilon: 0.25, Outcomes: 16, Duration: 7, Span: 9}
	b, err := json.Marshal(ledgerLine{Type: "ledger", LedgerRecord: rec})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"type":"ledger","seq":3,"mechanism":"laplace","sensitivity":2,"epsilon":0.25,"outcomes":16,"duration":7,"span":9}`
	if string(b) != want {
		t.Fatalf("trace-less ledger line changed shape:\n got %s\nwant %s", b, want)
	}
	data, err := ReadTraceNDJSON(strings.NewReader(want + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got := data.Ledger; len(got) != 1 || got[0] != rec {
		t.Fatalf("round trip: got %+v, want %+v", got, rec)
	}
}

// TestLedgerRecordTraceStamped checks the stamped shape: the trace id
// travels on the wire and survives the reader.
func TestLedgerRecordTraceStamped(t *testing.T) {
	rec := LedgerRecord{Seq: 1, Epsilon: 0.5, Trace: DeriveTraceContext(4).TraceID()}
	b, err := json.Marshal(ledgerLine{Type: "ledger", LedgerRecord: rec})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"trace":"`+rec.Trace+`"`) {
		t.Fatalf("stamped record lost its trace id: %s", b)
	}
	data, err := ReadTraceNDJSON(bytes.NewReader(append(b, '\n')))
	if err != nil {
		t.Fatal(err)
	}
	if got := data.Ledger; len(got) != 1 || got[0].Trace != rec.Trace {
		t.Fatalf("round trip: got %+v", got)
	}
}

// TestAccessLogRoundTrip writes access records through the NDJSON log
// and reads them back via the trace-stream reader.
func TestAccessLogRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	al := NewAccessLog(&buf)
	recs := []AccessRecord{
		{Trace: DeriveTraceContext(11).TraceID(), Tenant: "alpha", Endpoint: "fit", Status: 200,
			QuotedEpsilon: 0.5, SpentEpsilon: 0.5, Outcome: "committed", Start: 2, Duration: 18},
		{Tenant: "beta", Endpoint: "budget", Status: 200, Outcome: "free", Start: 21, Duration: 1},
		{Trace: DeriveTraceContext(12).TraceID(), Tenant: "beta", Endpoint: "summary", Status: 429,
			QuotedEpsilon: 0.05, Outcome: "refused", Start: 23, Duration: 3},
	}
	for _, r := range recs {
		al.Record(r)
	}
	if err := al.Err(); err != nil {
		t.Fatal(err)
	}
	data, err := ReadTraceNDJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(data.Access) != len(recs) {
		t.Fatalf("got %d access records, want %d", len(data.Access), len(recs))
	}
	for i := range recs {
		if data.Access[i] != recs[i] {
			t.Fatalf("record %d: got %+v, want %+v", i, data.Access[i], recs[i])
		}
	}
}

// TestAccessLogNilSafety pins the no-op contract of a nil log.
func TestAccessLogNilSafety(t *testing.T) {
	var al *AccessLog
	al.Record(AccessRecord{Tenant: "x"})
	if err := al.Err(); err != nil {
		t.Fatalf("nil access log errored: %v", err)
	}
}

// TestReadTraceNDJSONMergesTypes reads a mixed stream — spans, events,
// ledger, access, an unknown future type, and blank lines — and checks
// each record lands in its bucket with unknown types skipped.
func TestReadTraceNDJSONMergesTypes(t *testing.T) {
	stream := strings.Join([]string{
		`{"type":"span","id":1,"trace":"ab","name":"fit","start":0,"end":9}`,
		``,
		`{"type":"event","span":1,"ts":3,"kind":"phase"}`,
		`{"type":"ledger","seq":1,"epsilon":0.5,"trace":"ab"}`,
		`{"type":"access","trace":"ab","tenant":"alpha","endpoint":"fit","status":200,"outcome":"committed","start":0,"duration":9}`,
		`{"type":"novelty","whatever":true}`,
	}, "\n") + "\n"
	data, err := ReadTraceNDJSON(strings.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if len(data.Spans) != 1 || len(data.Events) != 1 || len(data.Ledger) != 1 || len(data.Access) != 1 {
		t.Fatalf("got %d/%d/%d/%d spans/events/ledger/access, want 1 each",
			len(data.Spans), len(data.Events), len(data.Ledger), len(data.Access))
	}
	if data.Spans[0].Trace != "ab" || data.Ledger[0].Trace != "ab" || data.Access[0].Trace != "ab" {
		t.Fatal("trace ids did not survive the reader")
	}

	other, err := ReadTraceNDJSON(strings.NewReader(`{"type":"span","id":2,"parent":1,"trace":"ab","name":"chunk","start":1,"end":2}` + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	data.Merge(other)
	if len(data.Spans) != 2 {
		t.Fatalf("Merge: got %d spans, want 2", len(data.Spans))
	}

	if _, err := ReadTraceNDJSON(strings.NewReader("{not json\n")); err == nil {
		t.Fatal("corrupt line silently accepted")
	}
}

// TestSilentSpanTickParity is the determinism keystone: a span tree
// walked with a tracer and one walked silently (clock only) consume
// exactly the same number of clock reads, so every downstream tick
// stream is bit-identical with tracing on and off.
func TestSilentSpanTickParity(t *testing.T) {
	walk := func(o *Observer) int64 {
		sp := o.RequestSpan("req", DeriveTraceContext(1))
		c := sp.Child("inner")
		c.End()
		sp.End()
		return o.Now()
	}
	var buf bytes.Buffer
	clockOn := &LogicalClock{}
	on := walk(&Observer{Tracer: NewTracer(&buf, clockOn), Clock: clockOn})
	off := walk(&Observer{Clock: &LogicalClock{}})
	if on != off {
		t.Fatalf("tick streams diverge: %d reads with tracer, %d without", on, off)
	}
	if buf.Len() == 0 {
		t.Fatal("traced walk emitted nothing")
	}
}
