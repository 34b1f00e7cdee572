package main

import (
	"math"
	"testing"

	"repro/internal/obs"
)

// oneAttempt is a committed fit traced end to end: its request span,
// the release span under it, the ledger line charged in that release,
// and an access record whose spent ε is spent.
func oneAttempt(spent float64) *obs.TraceData {
	trace := obs.DeriveTraceContext(7).TraceID()
	return &obs.TraceData{
		Spans: []obs.SpanRecord{
			{Type: "span", ID: 1, Trace: trace, Name: "serve.fit", Start: 0, End: 10},
			{Type: "span", ID: 2, Parent: 1, Trace: trace, Name: "gibbs.release", Start: 2, End: 6},
		},
		Ledger: []obs.LedgerRecord{{Seq: 0, Mechanism: "gibbs", Epsilon: 0.1, Span: 2, Trace: trace}},
		Access: []obs.AccessRecord{{Trace: trace, Span: 1, Tenant: "alpha", Endpoint: "fit", Status: 200,
			QuotedEpsilon: 0.1, SpentEpsilon: spent, Outcome: "committed"}},
	}
}

// TestRunCheckExitCode pins -check's exit code: 0 when the ledger line
// sits under the attempt's request span and composes to its spent ε,
// 1 when the access record's spent ε is one ulp off (rule 5).
func TestRunCheckExitCode(t *testing.T) {
	if code := runCheck(oneAttempt(0.1)); code != 0 {
		t.Errorf("a joined trace: exit %d, want 0", code)
	}
	if code := runCheck(oneAttempt(math.Nextafter(0.1, 1))); code != 1 {
		t.Errorf("spent_epsilon one ulp off its ledger line: exit %d, want 1", code)
	}
}
