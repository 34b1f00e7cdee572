// Command dplearn-trace reconstructs per-request stories from the NDJSON
// observability artifacts the serve layer emits: the trace stream
// (-trace on dplearn-serve: spans and trace-stamped ledger lines)
// and the access log (-access-log: one line per /v1 request). Point it
// at one or more files and it joins them on the 128-bit W3C trace id:
//
//	dplearn-trace serve_trace.ndjson serve_access.ndjson
//	dplearn-trace -trace 4bf92f3577b34da6a3ce929d0e0e4736 serve_trace.ndjson
//	dplearn-trace -tenant beta -top 5 serve_trace.ndjson serve_access.ndjson
//	dplearn-trace -check serve_trace.ndjson serve_access.ndjson
//
// A retried request leaves one access record per attempt under its
// trace id, each naming its own request span; every attempt is kept.
// The default view is a top-K-slowest table with ε attribution, one row
// per trace showing the attempt that charged (else the last): trace
// id, tenant, endpoint, status, duration in logical ticks, quoted and
// committed ε, and the critical path (the chain of longest-duration
// child spans from that attempt's request span). -trace renders one
// request's span waterfall, every attempt's access line and its ledger
// charges. -check runs obs.CheckJoin — the join rules, attempt by
// attempt — prints each violation, the attempt count and each tenant's
// traced charges, and exits non-zero on any violation.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/obs"
)

func main() {
	tenant := flag.String("tenant", "", "only requests of this tenant")
	traceID := flag.String("trace", "", "render the full span waterfall of this trace id")
	endpoint := flag.String("endpoint", "", "only requests of this endpoint")
	top := flag.Int("top", 10, "rows in the top-K-slowest table")
	check := flag.Bool("check", false, "verify the trace/ledger/access join invariants; exit non-zero on violation")
	flag.Parse()

	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "dplearn-trace: need at least one NDJSON file (trace and/or access log)")
		flag.Usage()
		os.Exit(2)
	}
	data := &obs.TraceData{}
	for _, path := range flag.Args() {
		f, err := os.Open(path)
		if err != nil {
			fatal(err)
		}
		part, err := obs.ReadTraceNDJSON(f)
		_ = f.Close() //dplint:ignore errdrop read-only input; a close error cannot lose data
		if err != nil {
			fatal(fmt.Errorf("%s: %w", path, err))
		}
		data.Merge(part)
	}

	if *check {
		os.Exit(runCheck(data))
	}
	reqs := filterRequests(joinRequests(data), *tenant, *endpoint)
	if *traceID != "" {
		for _, r := range reqs {
			if r.trace == *traceID {
				renderWaterfall(r)
				return
			}
		}
		fatal(fmt.Errorf("trace %s not found (after filters)", *traceID))
	}
	renderTable(reqs, *top)
}

// requestStory is everything known about one traced request.
type requestStory struct {
	trace  string
	root   *spanNode
	spans  []obs.SpanRecord
	ledger []obs.LedgerRecord
	// attempts holds the access record of every attempt, in log order.
	attempts []*obs.AccessRecord
}

// spanNode is one span in the reconstructed tree.
type spanNode struct {
	rec      obs.SpanRecord
	children []*spanNode
}

func (n *spanNode) duration() int64 { return n.rec.End - n.rec.Start }

// joinRequests groups spans, ledger lines, and access records by trace
// id and reconstructs each request's span tree. A request needs at least
// one of (root span, access record) to appear; ledger records without a
// trace id belong to no request and are left out of every story.
func joinRequests(data *obs.TraceData) []*requestStory {
	byTrace := map[string]*requestStory{}
	story := func(trace string) *requestStory {
		s, ok := byTrace[trace]
		if !ok {
			s = &requestStory{trace: trace}
			byTrace[trace] = s
		}
		return s
	}
	for _, sp := range data.Spans {
		if sp.Trace == "" {
			continue
		}
		story(sp.Trace).spans = append(story(sp.Trace).spans, sp)
	}
	for _, lr := range data.Ledger {
		if lr.Trace == "" {
			continue
		}
		story(lr.Trace).ledger = append(story(lr.Trace).ledger, lr)
	}
	for i := range data.Access {
		ar := &data.Access[i]
		if ar.Trace == "" {
			continue
		}
		story(ar.Trace).attempts = append(story(ar.Trace).attempts, ar)
	}
	var out []*requestStory
	for _, s := range byTrace {
		var rootID uint64
		if a := s.access(); a != nil {
			rootID = a.Span
		}
		s.root = buildTree(s.spans, rootID)
		out = append(out, s)
	}
	// Slowest first; ties (and missing spans) break by trace id so the
	// report is a deterministic function of the artifacts.
	sort.Slice(out, func(i, j int) bool {
		di, dj := out[i].durationTicks(), out[j].durationTicks()
		if di != dj {
			return di > dj
		}
		return out[i].trace < out[j].trace
	})
	return out
}

// access returns the attempt the table shows: the one that charged,
// else the last; nil when the trace has no access record.
func (s *requestStory) access() *obs.AccessRecord {
	for _, a := range s.attempts {
		if a.SpentEpsilon > 0 || a.Outcome == "committed" {
			return a
		}
	}
	if n := len(s.attempts); n > 0 {
		return s.attempts[n-1]
	}
	return nil
}

// durationTicks is the request's duration: the shown attempt's when
// present (it spans the whole middleware window), else the root span's.
func (s *requestStory) durationTicks() int64 {
	if a := s.access(); a != nil {
		return a.Duration
	}
	if s.root != nil {
		return s.root.duration()
	}
	return 0
}

// buildTree links spans into a tree by id/parent and returns the node
// of span rootID when the trace holds it — the shown attempt's request
// span — else the server-side request root: the earliest-starting
// parentless span with descendants (a merged client trace contributes
// its own root, which holds no children of interest on the server side).
func buildTree(spans []obs.SpanRecord, rootID uint64) *spanNode {
	if len(spans) == 0 {
		return nil
	}
	nodes := make(map[uint64]*spanNode, len(spans))
	for _, sp := range spans {
		nodes[sp.ID] = &spanNode{rec: sp}
	}
	var roots []*spanNode
	for _, n := range nodes {
		if p, ok := nodes[n.rec.Parent]; ok && n.rec.Parent != n.rec.ID {
			p.children = append(p.children, n)
		} else {
			roots = append(roots, n)
		}
	}
	for _, n := range nodes {
		sort.Slice(n.children, func(i, j int) bool {
			a, b := n.children[i].rec, n.children[j].rec
			if a.Start != b.Start {
				return a.Start < b.Start
			}
			return a.ID < b.ID
		})
	}
	if n, ok := nodes[rootID]; ok {
		return n
	}
	sort.Slice(roots, func(i, j int) bool {
		a, b := roots[i].rec, roots[j].rec
		// Prefer the root with descendants: the server-side request span.
		if (len(roots[i].children) > 0) != (len(roots[j].children) > 0) {
			return len(roots[i].children) > 0
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.ID < b.ID
	})
	return roots[0]
}

// criticalPath walks the tree from the root, descending into the
// longest-duration child at each level: the chain of operations that
// bounded the request's latency.
func criticalPath(n *spanNode) []*spanNode {
	var path []*spanNode
	for n != nil {
		path = append(path, n)
		var next *spanNode
		for _, c := range n.children {
			if next == nil || c.duration() > next.duration() ||
				(c.duration() == next.duration() && c.rec.ID < next.rec.ID) {
				next = c
			}
		}
		n = next
	}
	return path
}

func filterRequests(reqs []*requestStory, tenant, endpoint string) []*requestStory {
	var out []*requestStory
	for _, r := range reqs {
		if tenant != "" && (r.access() == nil || r.access().Tenant != tenant) {
			continue
		}
		if endpoint != "" && r.endpointName() != endpoint {
			continue
		}
		out = append(out, r)
	}
	return out
}

func (s *requestStory) endpointName() string {
	if a := s.access(); a != nil {
		return a.Endpoint
	}
	if s.root != nil {
		return s.root.rec.Name
	}
	return ""
}

// spentEpsilon composes the trace's ledger charges canonically.
func (s *requestStory) spentEpsilon() float64 {
	e, _ := obs.ComposeLedger(s.ledger)
	return e
}

// renderTable prints the top-K-slowest requests with ε attribution.
func renderTable(reqs []*requestStory, top int) {
	if len(reqs) == 0 {
		fmt.Fprintln(os.Stdout, "no traced requests (was the server run with -trace and the loadgen with traceparent injection?)")
		return
	}
	fmt.Fprintf(os.Stdout, "%-32s  %-10s  %-9s  %6s  %8s  %10s  %10s  %s\n",
		"TRACE", "TENANT", "ENDPOINT", "STATUS", "TICKS", "QUOTED ε", "SPENT ε", "CRITICAL PATH")
	n := 0
	for _, r := range reqs {
		if n >= top {
			break
		}
		n++
		tenant, status, quoted := "-", "-", "-"
		if a := r.access(); a != nil {
			tenant = a.Tenant
			status = fmt.Sprintf("%d", a.Status)
			quoted = fmt.Sprintf("%.4g", a.QuotedEpsilon)
		}
		var pathStr string
		if r.root != nil {
			var parts []string
			for _, pn := range criticalPath(r.root) {
				parts = append(parts, fmt.Sprintf("%s(%d)", pn.rec.Name, pn.duration()))
			}
			pathStr = strings.Join(parts, " > ")
		}
		fmt.Fprintf(os.Stdout, "%-32s  %-10s  %-9s  %6s  %8d  %10s  %10.4g  %s\n",
			r.trace, tenant, r.endpointName(), status, r.durationTicks(), quoted, r.spentEpsilon(), pathStr)
	}
	fmt.Fprintf(os.Stdout, "%d traced request(s), showing %d\n", len(reqs), n)
}

// renderWaterfall prints every attempt's access line, then the shown
// attempt's span tree with tick offsets, then the trace's ledger
// charges.
func renderWaterfall(r *requestStory) {
	fmt.Fprintf(os.Stdout, "trace %s\n", r.trace)
	for _, a := range r.attempts {
		fmt.Fprintf(os.Stdout, "access: span=%d tenant=%s endpoint=%s status=%d outcome=%s quoted_eps=%.6g spent_eps=%.6g ticks=%d\n",
			a.Span, a.Tenant, a.Endpoint, a.Status, a.Outcome, a.QuotedEpsilon, a.SpentEpsilon, a.Duration)
	}
	if r.root != nil {
		base := r.root.rec.Start
		var walk func(n *spanNode, depth int)
		walk = func(n *spanNode, depth int) {
			attrs := ""
			if len(n.rec.Attrs) > 0 {
				keys := make([]string, 0, len(n.rec.Attrs))
				for k := range n.rec.Attrs {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				var kv []string
				for _, k := range keys {
					kv = append(kv, fmt.Sprintf("%s=%v", k, n.rec.Attrs[k]))
				}
				attrs = "  {" + strings.Join(kv, " ") + "}"
			}
			fmt.Fprintf(os.Stdout, "%s%-24s  +%d..+%d  (%d ticks)%s\n",
				strings.Repeat("  ", depth), n.rec.Name, n.rec.Start-base, n.rec.End-base, n.duration(), attrs)
			for _, c := range n.children {
				walk(c, depth+1)
			}
		}
		walk(r.root, 0)
		var parts []string
		for _, pn := range criticalPath(r.root) {
			parts = append(parts, fmt.Sprintf("%s(%d)", pn.rec.Name, pn.duration()))
		}
		fmt.Fprintf(os.Stdout, "critical path: %s\n", strings.Join(parts, " > "))
	}
	for _, lr := range r.ledger {
		fmt.Fprintf(os.Stdout, "ledger: seq=%d mechanism=%s eps=%.6g delta=%.6g sensitivity=%.6g outcomes=%d span=%d\n",
			lr.Seq, lr.Mechanism, lr.Epsilon, lr.Delta, lr.Sensitivity, lr.Outcomes, lr.Span)
	}
	fmt.Fprintf(os.Stdout, "composed spent eps: %.17g\n", r.spentEpsilon())
}

// runCheck runs the shared join check, prints its findings and returns
// the exit code. The per-tenant totals are printed, not compared: the
// accountant's total is the drain line's business.
func runCheck(data *obs.TraceData) int {
	rep := obs.CheckJoin(data)
	for _, v := range rep.Violations {
		fmt.Fprintf(os.Stdout, "FAIL: %s\n", v)
	}
	for _, tc := range rep.Tenants {
		fmt.Fprintf(os.Stdout, "tenant %s: %d traced charge(s) compose to eps=%.17g\n", tc.Tenant, tc.Charges, tc.Epsilon)
	}
	fmt.Fprintf(os.Stdout, "checked %d attempt(s) across %d trace(s): %d violation(s)\n",
		rep.Attempts, rep.Traces, len(rep.Violations))
	if len(rep.Violations) > 0 {
		return 1
	}
	return 0
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "dplearn-trace: %v\n", err)
	os.Exit(1)
}
