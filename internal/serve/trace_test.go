package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/mechanism"
	"repro/internal/obs"
)

// postTraced is postJSON with a W3C traceparent header attached.
func postTraced(t *testing.T, url string, tc obs.TraceContext, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", tc.Traceparent())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, out
}

// TestTraceLedgerAccessJoin is the end-to-end join contract: every
// traced 2xx request's committed ε charges land in the ledger under
// exactly its trace id, the access log's spent_epsilon equals the
// canonical composition of those charges bit for bit, per-tenant spent ε
// grouped by trace recomposes to the Accountant's total bit for bit, and
// the span tree reconstructs under the same trace ids.
func TestTraceLedgerAccessJoin(t *testing.T) {
	clock := &obs.LogicalClock{}
	var traceBuf, accessBuf bytes.Buffer
	o := &obs.Observer{
		Tracer:  obs.NewTracer(&traceBuf, clock),
		Metrics: obs.NewRegistry(),
		Clock:   clock,
	}
	s, ts := newTestService(t, Config{
		Tenants: []TenantConfig{
			{ID: "alpha", Budget: mechanism.Guarantee{Epsilon: 5}},
			{ID: "beta", Budget: mechanism.Guarantee{Epsilon: 0.6}},
		},
		Learner:   LearnerSpec{Epsilon: 0.4},
		Observer:  o,
		AccessLog: obs.NewAccessLog(&accessBuf),
	})
	data := testData(42, 16, 2)

	steps := []struct {
		path string
		seed int64
		body any
		want int
	}{
		{"/v1/fit", 101, FitRequest{Tenant: "alpha", Seed: 1, Data: data}, http.StatusOK},
		{"/v1/summary", 102, SummaryRequest{Tenant: "alpha", Seed: 2, Feature: 0, Lo: -1, Hi: 1,
			Quantiles: []float64{0.5}, Epsilon: 0.05, Data: data}, http.StatusOK},
		{"/v1/density", 103, DensityRequest{Tenant: "beta", Seed: 3, Feature: 0, Lo: -1, Hi: 1,
			Epsilon: 0.05, Bins: 8, Data: data}, http.StatusOK},
		{"/v1/density", 104, DensityRequest{Tenant: "beta", Seed: 4, Kind: "gibbs", Feature: 0, Lo: -1, Hi: 1,
			Epsilon: 0.05, BinChoices: []int{4, 8}, Clip: 4, Data: data}, http.StatusOK},
		{"/v1/select", 105, SelectRequest{Tenant: "beta", Seed: 5, Epsilon: 0.05,
			Candidates: []CandidateJSON{{Name: "a", Theta: []float64{1, 0}}, {Name: "b", Theta: []float64{0, 1}}},
			Data:       data}, http.StatusOK},
		{"/v1/certify", 106, CertifyRequest{Tenant: "alpha", Data: data}, http.StatusOK},
		{"/v1/fit", 107, FitRequest{Tenant: "beta", Seed: 6, Data: data}, http.StatusOK},
		// beta's second 0.4-fit busts its 0.6 budget: a traced 429.
		{"/v1/fit", 108, FitRequest{Tenant: "beta", Seed: 7, Data: data}, http.StatusTooManyRequests},
	}
	wantTrace := map[string]obs.TraceContext{}
	for i, st := range steps {
		tc := obs.DeriveTraceContext(st.seed)
		wantTrace[tc.TraceID()] = tc
		resp, body := postTraced(t, ts.URL+st.path, tc, st.body)
		if resp.StatusCode != st.want {
			t.Fatalf("step %d (%s): HTTP %d, want %d: %s", i, st.path, resp.StatusCode, st.want, body)
		}
	}

	trace, err := obs.ReadTraceNDJSON(&traceBuf)
	if err != nil {
		t.Fatal(err)
	}
	access, err := obs.ReadTraceNDJSON(&accessBuf)
	if err != nil {
		t.Fatal(err)
	}
	trace.Merge(access)
	if got, want := len(trace.Access), len(steps); got != want {
		t.Fatalf("access log has %d records, want %d", got, want)
	}

	// Group ledger charges by trace id; every charge must carry one, and
	// it must be a trace we issued.
	ledgerByTrace := map[string][]obs.LedgerRecord{}
	for _, lr := range trace.Ledger {
		if lr.Trace == "" {
			t.Fatalf("ledger seq %d committed without a trace id", lr.Seq)
		}
		if _, ok := wantTrace[lr.Trace]; !ok {
			t.Fatalf("ledger seq %d carries unknown trace %s", lr.Seq, lr.Trace)
		}
		ledgerByTrace[lr.Trace] = append(ledgerByTrace[lr.Trace], lr)
	}

	// Each 2xx access record's spent ε must equal the canonical
	// composition of its trace's ledger charges, bit for bit; refused
	// requests must have charged nothing.
	accessByTrace := map[string]obs.AccessRecord{}
	for _, ar := range trace.Access {
		if _, dup := accessByTrace[ar.Trace]; dup {
			t.Fatalf("trace %s appears on two access records", ar.Trace)
		}
		accessByTrace[ar.Trace] = ar
		charges := ledgerByTrace[ar.Trace]
		eps := make([]float64, len(charges))
		del := make([]float64, len(charges))
		for i, lr := range charges {
			eps[i], del[i] = lr.Epsilon, lr.Delta
		}
		composed, _ := obs.ComposeBasic(eps, del)
		switch {
		case ar.Status == http.StatusOK && ar.Outcome == "committed":
			//dplint:ignore floateq bit-exact access-log-vs-ledger agreement is the property under test
			if composed != ar.SpentEpsilon {
				t.Errorf("trace %s: access says spent=%.17g, ledger composes to %.17g", ar.Trace, ar.SpentEpsilon, composed)
			}
			if len(charges) == 0 {
				t.Errorf("trace %s: committed but no ledger charges", ar.Trace)
			}
		case ar.Outcome == "refused", ar.Outcome == "free":
			if len(charges) != 0 {
				t.Errorf("trace %s: outcome %s but %d ledger charge(s)", ar.Trace, ar.Outcome, len(charges))
			}
			//dplint:ignore floateq an uncharged request must report the exact zero
			if ar.SpentEpsilon != 0 {
				t.Errorf("trace %s: outcome %s but spent=%.17g", ar.Trace, ar.Outcome, ar.SpentEpsilon)
			}
		}
	}

	// Per-tenant: the trace-grouped charges recompose to the Accountant's
	// canonical total bit for bit (every spend in this run was traced).
	for _, tn := range s.Tenants().Tenants() {
		var eps, del []float64
		for trID, charges := range ledgerByTrace {
			if accessByTrace[trID].Tenant != tn.ID {
				continue
			}
			for _, lr := range charges {
				eps = append(eps, lr.Epsilon)
				del = append(del, lr.Delta)
			}
		}
		ce, cd := obs.ComposeBasic(eps, del)
		g := tn.Acct.BasicComposition()
		//dplint:ignore floateq bit-exact trace-grouped-vs-accountant agreement is the property under test
		if ce != g.Epsilon || cd != g.Delta {
			t.Errorf("tenant %s: trace-grouped charges compose to (%.17g, %.17g), accountant to (%.17g, %.17g)",
				tn.ID, ce, cd, g.Epsilon, g.Delta)
		}
		checkBooks(t, tn)
	}

	// Span tree: every 2xx spending request reconstructs a root request
	// span with at least one child under its trace id, and each ledger
	// charge's span id names a span in the same trace.
	spansByTrace := map[string]map[uint64]obs.SpanRecord{}
	childCount := map[string]int{}
	for _, sp := range trace.Spans {
		if sp.Trace == "" {
			continue
		}
		if spansByTrace[sp.Trace] == nil {
			spansByTrace[sp.Trace] = map[uint64]obs.SpanRecord{}
		}
		spansByTrace[sp.Trace][sp.ID] = sp
		if sp.Parent != 0 {
			childCount[sp.Trace]++
		}
	}
	for trID, ar := range accessByTrace {
		if ar.Status != http.StatusOK {
			continue
		}
		if len(spansByTrace[trID]) == 0 {
			t.Errorf("trace %s: 2xx request left no spans", trID)
		}
		if ar.Outcome == "committed" && childCount[trID] == 0 {
			t.Errorf("trace %s: committed request has no child spans", trID)
		}
	}
	for _, lr := range trace.Ledger {
		if lr.Span == 0 {
			t.Errorf("ledger seq %d (trace %s) has no span id", lr.Seq, lr.Trace)
			continue
		}
		if _, ok := spansByTrace[lr.Trace][lr.Span]; !ok {
			t.Errorf("ledger seq %d names span %d, absent from trace %s", lr.Seq, lr.Span, lr.Trace)
		}
	}
}

// TestMetricsGoldenWithTracing replays the exact golden script with a
// live tracer wired in and demands the dplearn_serve_ metrics stay
// byte-identical to the golden file: silent spans consume the same clock
// reads as emitting ones, and exemplar attachment keys on the request's
// traceparent (the script sends none), so wiring a tracer must not move
// a single metric byte.
func TestMetricsGoldenWithTracing(t *testing.T) {
	clock := &obs.LogicalClock{}
	var traceBuf bytes.Buffer
	o := &obs.Observer{
		Tracer:  obs.NewTracer(&traceBuf, clock),
		Metrics: obs.NewRegistry(),
		Clock:   clock,
	}
	s, ts := newTestService(t, Config{
		Tenants: []TenantConfig{
			{ID: "alpha", Budget: mechanism.Guarantee{Epsilon: 5}},
			{ID: "beta", Budget: mechanism.Guarantee{Epsilon: 0.6}},
		},
		Learner:  LearnerSpec{Epsilon: 0.4},
		Observer: o,
	})
	drainScript(t, s, ts.URL)
	got := scrapeServeMetrics(t, ts.URL)
	want, err := os.ReadFile(filepath.Join("testdata", "metrics_serve.golden"))
	if err != nil {
		t.Fatalf("read golden (generate via TestMetricsGoldenAcrossWorkers -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("tracing perturbed the metrics:\n--- with tracer ---\n%s--- golden ---\n%s", got, want)
	}
	if traceBuf.Len() == 0 {
		t.Fatal("tracer emitted nothing — the run was not actually traced")
	}
}

// TestAccessLogExemplars sends one traced and one untraced request and
// checks exemplar attachment keys on the request's traceparent: the
// traced request's id may appear in /metrics, an untraced run's output
// must contain no exemplar markers at all.
func TestAccessLogExemplars(t *testing.T) {
	run := func(traced bool) string {
		_, ts := newTestService(t, Config{
			Tenants: []TenantConfig{{ID: "solo", Budget: mechanism.Guarantee{Epsilon: 5}}},
			Learner: LearnerSpec{Epsilon: 0.4},
		})
		// 2048 rows → 8 chunk spans per parallel pass, pushing the request
		// duration into the histogram's exemplar-carrying tail buckets.
		data := testData(42, 2048, 2)
		if traced {
			resp, _ := postTraced(t, ts.URL+"/v1/fit", obs.DeriveTraceContext(9), FitRequest{Tenant: "solo", Seed: 1, Data: data})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("traced fit: HTTP %d", resp.StatusCode)
			}
		} else {
			resp, _ := postJSON(t, ts.URL+"/v1/fit", FitRequest{Tenant: "solo", Seed: 1, Data: data})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("untraced fit: HTTP %d", resp.StatusCode)
			}
		}
		return scrapeServeMetrics(t, ts.URL)
	}
	if metrics := run(false); bytes.Contains([]byte(metrics), []byte("# {")) {
		t.Errorf("untraced run rendered exemplars:\n%s", metrics)
	}
	traced := run(true)
	if !bytes.Contains([]byte(traced), []byte(`trace_id="`+obs.DeriveTraceContext(9).TraceID()+`"`)) {
		t.Errorf("traced run rendered no exemplar for the request's trace id:\n%s", traced)
	}
}

// accessLines parses an access-log buffer into its records.
func accessLines(t *testing.T, buf *bytes.Buffer) []obs.AccessRecord {
	t.Helper()
	tr, err := obs.ReadTraceNDJSON(buf)
	if err != nil {
		t.Fatal(err)
	}
	return tr.Access
}

// headroom returns the tenant's remaining ε: exactly what its next
// widened fit charges, since a widen reserves and commits the
// remainder itself (core's TestFitWidenPolicy pins the bits).
func headroom(t *testing.T, tn *Tenant) float64 {
	t.Helper()
	rem, ok := tn.Acct.Remaining()
	if !ok || rem.Epsilon <= 0 {
		t.Fatalf("tenant %s has no headroom left to widen into: %+v", tn.ID, rem)
	}
	return rem.Epsilon
}

// TestAccessSpentUntracedWiden exhausts a tenant, then widens an
// untraced fit into the remainder: its access line must report exactly
// the remainder the accountant charged, not a handler-side guess.
func TestAccessSpentUntracedWiden(t *testing.T) {
	var accessBuf bytes.Buffer
	s, ts := newTestService(t, Config{
		Tenants:   []TenantConfig{{ID: "solo", Budget: mechanism.Guarantee{Epsilon: 1}}},
		Learner:   LearnerSpec{Epsilon: 0.8},
		AccessLog: obs.NewAccessLog(&accessBuf),
	})
	data := testData(13, 24, 2)
	if resp, body := postJSON(t, ts.URL+"/v1/fit", FitRequest{Tenant: "solo", Seed: 1, Data: data}); resp.StatusCode != http.StatusOK {
		t.Fatalf("first fit: HTTP %d: %s", resp.StatusCode, body)
	}
	tn, _ := s.Tenants().Get("solo")
	want := headroom(t, tn)
	if resp, body := postJSON(t, ts.URL+"/v1/fit", FitRequest{Tenant: "solo", Seed: 2, Degrade: "widen", Data: data}); resp.StatusCode != http.StatusOK {
		t.Fatalf("widen fit: HTTP %d: %s", resp.StatusCode, body)
	}
	lines := accessLines(t, &accessBuf)
	if len(lines) != 2 {
		t.Fatalf("access log has %d lines, want 2", len(lines))
	}
	got := lines[1]
	//dplint:ignore floateq the access line must carry the accountant's exact charge
	if got.SpentEpsilon != want {
		t.Errorf("widen fit logged spent=%.17g, accountant charged the remainder %.17g", got.SpentEpsilon, want)
	}
	if got.Outcome != "degraded" {
		t.Errorf("widen fit outcome %q, want degraded", got.Outcome)
	}
}

// TestAccessSpentSharedTraceparent parks a traced widen fit before its
// reservation, serves a certify under the same traceparent (the retry
// client re-sends one), then lets the fit commit: each request's line
// reports its own charge — the certify nothing, the fit exactly what the
// accountant charged it.
func TestAccessSpentSharedTraceparent(t *testing.T) {
	var accessBuf bytes.Buffer
	s, ts := newTestService(t, Config{
		Tenants:   []TenantConfig{{ID: "solo", Budget: mechanism.Guarantee{Epsilon: 1}}},
		Learner:   LearnerSpec{Epsilon: 0.8},
		AccessLog: obs.NewAccessLog(&accessBuf),
	})
	data := testData(13, 24, 2)
	if resp, body := postJSON(t, ts.URL+"/v1/fit", FitRequest{Tenant: "solo", Seed: 1, Data: data}); resp.StatusCode != http.StatusOK {
		t.Fatalf("first fit: HTTP %d: %s", resp.StatusCode, body)
	}
	tn, _ := s.Tenants().Get("solo")
	want := headroom(t, tn)
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.testHookInFlight = func(endpoint string) {
		if endpoint == "fit" {
			once.Do(func() {
				close(entered)
				<-release
			})
		}
	}
	tc := obs.DeriveTraceContext(77)
	b, err := json.Marshal(FitRequest{Tenant: "solo", Seed: 2, Degrade: "widen", Data: data})
	if err != nil {
		t.Fatal(err)
	}
	fitReq, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/fit", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	fitReq.Header.Set("traceparent", tc.Traceparent())
	done := make(chan int, 1)
	go func() {
		resp, err := http.DefaultClient.Do(fitReq)
		if err != nil {
			t.Errorf("parked widen fit: %v", err)
			done <- 0
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("traced fit never reached its in-flight point")
	}
	if resp, body := postTraced(t, ts.URL+"/v1/certify", tc, CertifyRequest{Tenant: "solo", Data: data}); resp.StatusCode != http.StatusOK {
		t.Fatalf("certify: HTTP %d: %s", resp.StatusCode, body)
	}
	close(release)
	if code := <-done; code != http.StatusOK {
		t.Fatalf("parked widen fit: HTTP %d", code)
	}
	byEndpoint := map[string]obs.AccessRecord{}
	for _, ar := range accessLines(t, &accessBuf) {
		if ar.Trace == tc.TraceID() {
			byEndpoint[ar.Endpoint] = ar
		}
	}
	if len(byEndpoint) != 2 {
		t.Fatalf("want a fit and a certify line under trace %s, got %+v", tc.TraceID(), byEndpoint)
	}
	//dplint:ignore floateq the access line must carry the accountant's exact charge
	if fit := byEndpoint["fit"]; fit.SpentEpsilon != want || fit.Outcome != "degraded" {
		t.Errorf("fit logged spent=%.17g outcome=%q, accountant charged the remainder %.17g", fit.SpentEpsilon, fit.Outcome, want)
	}
	//dplint:ignore floateq a free request must report the exact zero
	if cert := byEndpoint["certify"]; cert.SpentEpsilon != 0 || cert.Outcome != "free" {
		t.Errorf("certify logged spent=%.17g outcome=%q, want 0 free", cert.SpentEpsilon, cert.Outcome)
	}
	checkBooks(t, tn)
}
