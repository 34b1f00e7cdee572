package obs

import (
	"math"
	"strings"
	"testing"
)

// retriedTrace is a clean retried request: attempt 1 (request span 1)
// was refused with nothing charged, attempt 2 (request span 3)
// committed one 0.5-ε line from its child span 4.
func retriedTrace() *TraceData {
	const tr = "4bf92f3577b34da6a3ce929d0e0e4736"
	return &TraceData{
		Spans: []SpanRecord{
			{ID: 1, Trace: tr, Name: "fit"},
			{ID: 2, Parent: 1, Trace: tr, Name: "fit"},
			{ID: 3, Trace: tr, Name: "fit"},
			{ID: 4, Parent: 3, Trace: tr, Name: "fit"},
		},
		Ledger: []LedgerRecord{{Seq: 0, Epsilon: 0.5, Span: 4, Trace: tr}},
		Access: []AccessRecord{
			{Trace: tr, Span: 1, Tenant: "alpha", Endpoint: "fit", Status: 429, QuotedEpsilon: 0.5, Outcome: "refused"},
			{Trace: tr, Span: 3, Tenant: "alpha", Endpoint: "fit", Status: 200, QuotedEpsilon: 0.5, SpentEpsilon: 0.5, Outcome: "committed"},
		},
	}
}

// TestCheckJoinFixtures breaks the clean retried trace one rule at a
// time: each fixture must produce exactly its own violation, and the
// clean trace none.
func TestCheckJoinFixtures(t *testing.T) {
	clean := CheckJoin(retriedTrace())
	if len(clean.Violations) != 0 {
		t.Fatalf("clean retried trace: %q", clean.Violations)
	}
	if clean.Attempts != 2 || clean.Traces != 1 {
		t.Errorf("clean retried trace: %d attempt(s) across %d trace(s), want 2 across 1", clean.Attempts, clean.Traces)
	}
	if want := (TenantCharges{Tenant: "alpha", Charges: 1, Epsilon: 0.5}); len(clean.Tenants) != 1 || clean.Tenants[0] != want {
		t.Errorf("clean retried trace: tenants %+v, want %+v", clean.Tenants, want)
	}

	fixtures := []struct {
		name   string
		mutate func(d *TraceData)
		want   string
	}{
		{"two access records for one request span", func(d *TraceData) {
			d.Access = append(d.Access, d.Access[0])
		}, "request span 1 appears on more than one access record"},
		{"a record naming a span not in its trace", func(d *TraceData) {
			d.Access[0].Span = 9
		}, "access record names span 9, which is not in the trace"},
		{"two charging attempts in one trace", func(d *TraceData) {
			d.Ledger = append(d.Ledger, LedgerRecord{Seq: 1, Epsilon: 0.5, Span: 2, Trace: d.Access[0].Trace})
			d.Access[0].Status, d.Access[0].SpentEpsilon, d.Access[0].Outcome = 200, 0.5, "committed"
		}, "more than one attempt charges"},
		{"a ledger line outside the charging attempt's span tree", func(d *TraceData) {
			d.Spans = append(d.Spans, SpanRecord{ID: 5, Trace: d.Access[0].Trace, Name: "client"})
			d.Ledger = append(d.Ledger, LedgerRecord{Seq: 1, Epsilon: 0.25, Span: 5, Trace: d.Access[0].Trace})
		}, "ledger seq 1 (trace 4bf92f3577b34da6a3ce929d0e0e4736, span 5) lies outside every attempt's span tree"},
		{"spent_epsilon one ulp off the composition", func(d *TraceData) {
			d.Access[1].SpentEpsilon = math.Nextafter(0.5, 1)
		}, "access log says spent=0.50000000000000011, its ledger lines compose to 0.5"},
		{"a refused record that has a ledger line", func(d *TraceData) {
			d.Access[1].Status, d.Access[1].Outcome = 429, "refused"
		}, "outcome refused but 1 ledger line(s)"},
	}
	for _, f := range fixtures {
		d := retriedTrace()
		f.mutate(d)
		got := CheckJoin(d).Violations
		if len(got) != 1 || !strings.Contains(got[0], f.want) {
			t.Errorf("%s: violations %q, want exactly one containing %q", f.name, got, f.want)
		}
	}
}

// TestCheckJoinLedgerOnRequestSpan pins "strictly below": a ledger line
// that names an attempt's request span itself joins to no attempt.
func TestCheckJoinLedgerOnRequestSpan(t *testing.T) {
	d := retriedTrace()
	d.Ledger[0].Span = 3
	got := CheckJoin(d).Violations
	if len(got) == 0 || !strings.Contains(got[0], "lies outside every attempt's span tree") {
		t.Errorf("violations %q, want the ledger line outside every span tree first", got)
	}
}
