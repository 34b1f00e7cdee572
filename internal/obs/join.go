package obs

import (
	"fmt"
	"sort"
)

// JoinReport is what CheckJoin found in a trace stream read together
// with an access log.
type JoinReport struct {
	// Attempts counts the traced access records, one per HTTP attempt;
	// Traces counts the distinct trace ids among them.
	Attempts, Traces int
	// Tenants holds, per tenant in id order, the ledger lines that
	// joined to the tenant's attempts.
	Tenants []TenantCharges
	// Violations holds one line per broken rule, in input order.
	Violations []string
}

// TenantCharges is one tenant's joined ledger lines: how many, and
// their ComposeBasic composition.
type TenantCharges struct {
	Tenant         string
	Charges        int
	Epsilon, Delta float64
}

// attemptKey names one attempt: its trace id and the id of the
// server's request span, which the access record carries.
type attemptKey struct {
	trace string
	span  uint64
}

// CheckJoin verifies the join between the spans and ledger lines of a
// trace stream and the records of an access log, attempt by attempt. An
// attempt is an access record with a trace id; a retried request leaves
// several under one trace, each naming its own request span. The rules:
//
//  1. no two access records name the same request span of a trace;
//  2. each attempt's request span is a span of its trace;
//  3. every trace-stamped ledger line lies strictly below the request
//     span of one of its trace's attempts (checked when the data holds
//     any access record);
//  4. at most one attempt of a trace charges, that is, has ledger lines;
//  5. each attempt's spent_epsilon equals the ComposeBasic of its
//     ledger lines, bit for bit;
//  6. a committed attempt has a ledger line; a refused, free or
//     replayed one has none.
//
// Ledger lines without a trace id belong to no request and are not
// joined.
func CheckJoin(d *TraceData) JoinReport {
	var rep JoinReport
	fail := func(format string, args ...any) {
		rep.Violations = append(rep.Violations, fmt.Sprintf(format, args...))
	}
	parents := map[string]map[uint64]uint64{}
	for _, sp := range d.Spans {
		if sp.Trace == "" {
			continue
		}
		if parents[sp.Trace] == nil {
			parents[sp.Trace] = map[uint64]uint64{}
		}
		parents[sp.Trace][sp.ID] = sp.Parent
	}

	attempts := map[attemptKey]*AccessRecord{}
	var order []attemptKey
	traces := map[string]bool{}
	for i := range d.Access {
		ar := &d.Access[i]
		if ar.Trace == "" {
			continue
		}
		rep.Attempts++
		traces[ar.Trace] = true
		k := attemptKey{ar.Trace, ar.Span}
		if first, dup := attempts[k]; dup {
			if first != nil {
				fail("trace %s: request span %d appears on more than one access record", ar.Trace, ar.Span)
				attempts[k] = nil
			}
			continue
		}
		attempts[k] = ar
		order = append(order, k)
		if _, ok := parents[ar.Trace][ar.Span]; !ok {
			fail("trace %s: access record names span %d, which is not in the trace", ar.Trace, ar.Span)
		}
	}
	rep.Traces = len(traces)

	charges := map[attemptKey][]LedgerRecord{}
	if len(d.Access) > 0 {
		for _, lr := range d.Ledger {
			if lr.Trace == "" {
				continue
			}
			k, ok := attemptAbove(parents[lr.Trace], attempts, lr.Trace, lr.Span)
			if !ok {
				fail("ledger seq %d (trace %s, span %d) lies outside every attempt's span tree", lr.Seq, lr.Trace, lr.Span)
				continue
			}
			charges[k] = append(charges[k], lr)
		}
	}

	charging := map[string]int{}
	byTenant := map[string][]LedgerRecord{}
	for _, k := range order {
		ar, lines := attempts[k], charges[k]
		if ar == nil {
			continue // a duplicated span: rule 1 already failed it
		}
		if eps, _ := ComposeLedger(lines); eps != ar.SpentEpsilon { //dplint:ignore floateq bit-exact access-log-vs-ledger agreement is the audited property
			fail("trace %s span %d: access log says spent=%.17g, its ledger lines compose to %.17g", k.trace, k.span, ar.SpentEpsilon, eps)
		}
		switch ar.Outcome {
		case "committed":
			if len(lines) == 0 {
				fail("trace %s span %d: committed with no ledger line", k.trace, k.span)
			}
		case "refused", "free", "replayed":
			if len(lines) > 0 {
				fail("trace %s span %d: outcome %s but %d ledger line(s)", k.trace, k.span, ar.Outcome, len(lines))
			}
		}
		if len(lines) > 0 {
			if charging[k.trace]++; charging[k.trace] == 2 {
				fail("trace %s: more than one attempt charges", k.trace)
			}
			byTenant[ar.Tenant] = append(byTenant[ar.Tenant], lines...)
		}
	}
	for tenant, lines := range byTenant {
		eps, del := ComposeLedger(lines)
		rep.Tenants = append(rep.Tenants, TenantCharges{Tenant: tenant, Charges: len(lines), Epsilon: eps, Delta: del})
	}
	sort.Slice(rep.Tenants, func(i, j int) bool { return rep.Tenants[i].Tenant < rep.Tenants[j].Tenant })
	return rep
}

// attemptAbove walks up the span tree from span and returns the first
// attempt whose request span it meets; span itself does not count. The
// walk stops at a root, at a span the trace does not hold, or after as
// many steps as the trace has spans.
func attemptAbove(parents map[uint64]uint64, attempts map[attemptKey]*AccessRecord, trace string, span uint64) (attemptKey, bool) {
	for range len(parents) {
		p, ok := parents[span]
		if !ok || p == 0 {
			break
		}
		if _, ok := attempts[attemptKey{trace, p}]; ok {
			return attemptKey{trace, p}, true
		}
		span = p
	}
	return attemptKey{}, false
}
