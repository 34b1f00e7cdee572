package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/mechanism"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/serve/client"
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

// tracedService builds a service whose observer traces under a logical
// clock into traceBuf and whose access log writes to accessBuf.
func tracedService(t *testing.T, cfg Config, traceBuf, accessBuf *bytes.Buffer) (*Server, *httptest.Server) {
	t.Helper()
	clock := &obs.LogicalClock{}
	cfg.Observer = &obs.Observer{
		Tracer:  obs.NewTracer(traceBuf, clock),
		Metrics: obs.NewRegistry(),
		Clock:   clock,
	}
	cfg.AccessLog = obs.NewAccessLog(accessBuf)
	return newTestService(t, cfg)
}

// checkJoin reads the trace and access buffers back, runs the shared
// join check on them, fails the test on each violation, and returns the
// joined data and the report. Every spend the test made was traced, so
// each tenant's joined charges must recompose to its accountant's
// count and total bit for bit, and its books must audit clean.
func checkJoin(t *testing.T, s *Server, traceBuf, accessBuf *bytes.Buffer) (obs.TraceData, obs.JoinReport) {
	t.Helper()
	data, err := obs.ReadTraceNDJSON(traceBuf)
	if err != nil {
		t.Fatal(err)
	}
	access, err := obs.ReadTraceNDJSON(accessBuf)
	if err != nil {
		t.Fatal(err)
	}
	data.Merge(access)
	rep := obs.CheckJoin(&data)
	for _, v := range rep.Violations {
		t.Errorf("join check: %s", v)
	}
	joined := map[string]obs.TenantCharges{}
	for _, tc := range rep.Tenants {
		joined[tc.Tenant] = tc
	}
	for _, tn := range s.Tenants().Tenants() {
		tc, g := joined[tn.ID], tn.Acct.BasicComposition()
		//dplint:ignore floateq bit-exact trace-grouped-vs-accountant agreement is the property under test
		if tc.Charges != tn.Acct.Count() || tc.Epsilon != g.Epsilon || tc.Delta != g.Delta {
			t.Errorf("tenant %s: %d joined charge(s) compose to (%.17g, %.17g), the accountant holds %d at (%.17g, %.17g)",
				tn.ID, tc.Charges, tc.Epsilon, tc.Delta, tn.Acct.Count(), g.Epsilon, g.Delta)
		}
		checkBooks(t, tn)
	}
	return data, rep
}

// TestTraceLedgerAccessJoin is the end-to-end join contract: a traced
// run over every endpoint, a refusal included, passes the shared join
// check (obs.CheckJoin) attempt by attempt, and each tenant's joined
// charges recompose to its accountant.
func TestTraceLedgerAccessJoin(t *testing.T) {
	var traceBuf, accessBuf bytes.Buffer
	s, ts := tracedService(t, Config{
		Tenants: []TenantConfig{
			{ID: "alpha", Budget: mechanism.Guarantee{Epsilon: 5}},
			{ID: "beta", Budget: mechanism.Guarantee{Epsilon: 0.6}},
		},
		Learner: LearnerSpec{Epsilon: 0.4},
	}, &traceBuf, &accessBuf)
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
	for i, st := range steps {
		resp, body := postTraced(t, ts.URL+st.path, obs.DeriveTraceContext(st.seed), st.body)
		if resp.StatusCode != st.want {
			t.Fatalf("step %d (%s): HTTP %d, want %d: %s", i, st.path, resp.StatusCode, st.want, body)
		}
	}
	if _, rep := checkJoin(t, s, &traceBuf, &accessBuf); rep.Attempts != len(steps) || rep.Traces != len(steps) {
		t.Errorf("join check saw %d attempt(s) across %d trace(s), want %d across %d", rep.Attempts, rep.Traces, len(steps), len(steps))
	}
}

// roundTripFunc adapts a function to http.RoundTripper.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestRealClientRetriesOnlyTransient429 drives a traced tenant with
// the retry client. A 429 that an outstanding hold causes carries
// Retry-After, and the client retries it under the same traceparent
// into a commit once the hold is gone; a 429 the spends alone cause is
// final and takes exactly one attempt. The multi-attempt trace passes
// the shared join check.
func TestRealClientRetriesOnlyTransient429(t *testing.T) {
	var traceBuf, accessBuf bytes.Buffer
	s, ts := tracedService(t, Config{
		Tenants: []TenantConfig{{ID: "solo", Budget: mechanism.Guarantee{Epsilon: 1}}},
	}, &traceBuf, &accessBuf)
	data := testData(21, 24, 2)
	summary := func(seed int64, eps float64) []byte {
		b, err := json.Marshal(SummaryRequest{Tenant: "solo", Seed: seed, Feature: 0, Lo: -1, Hi: 1,
			Quantiles: []float64{0.5}, Epsilon: eps, Data: data})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	// The first 429 the client reads lets the parked hold go and waits
	// for it to be released, so the retry meets a budget it fits.
	entered, release, parkedDone := make(chan struct{}), make(chan struct{}), make(chan int, 1)
	letGo := sync.OnceFunc(func() { close(release) })
	defer letGo() // a failed test must not leave the handler parked
	var firstRefusal sync.Once
	var retryAfter string
	rc := client.New(client.Config{
		BaseURL: ts.URL,
		HTTP: &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
			resp, err := http.DefaultTransport.RoundTrip(r)
			if err == nil && resp.StatusCode == http.StatusTooManyRequests {
				firstRefusal.Do(func() {
					retryAfter = resp.Header.Get("Retry-After")
					letGo()
					if code := <-parkedDone; code != http.StatusInternalServerError {
						t.Errorf("abandoned release: HTTP %d, want 500", code)
					}
				})
			}
			return resp, err
		})},
		MaxAttempts:   3,
		BaseBackoff:   time.Millisecond,
		MaxBackoff:    5 * time.Millisecond,
		MaxRetryAfter: 5 * time.Millisecond,
		Seed:          1,
	})
	post := func(seed int64, eps float64) *client.Result {
		t.Helper()
		tc := obs.DeriveTraceContext(seed)
		res, err := rc.PostRaw(context.Background(), "/v1/summary", summary(seed, eps), "",
			http.Header{"Traceparent": []string{tc.Traceparent()}})
		if err != nil {
			t.Fatalf("summary seed %d: %v", seed, err)
		}
		return res
	}

	if res := post(1, 0.5); res.Status != http.StatusOK || res.Attempts != 1 {
		t.Fatalf("first summary: HTTP %d after %d attempt(s)", res.Status, res.Attempts)
	}
	// Park an untraced 0.3 hold in flight; it panics once let go, so its
	// hold is released and nothing is charged.
	var once sync.Once
	s.testHookInFlight = func(string) {
		parked := false
		once.Do(func() {
			close(entered)
			<-release
			parked = true
		})
		if parked {
			panic("abandon the parked release")
		}
	}
	go func() {
		resp, err := http.Post(ts.URL+"/v1/summary", "application/json", bytes.NewReader(summary(2, 0.3)))
		if err != nil {
			t.Errorf("parked summary: %v", err)
			parkedDone <- 0
			return
		}
		resp.Body.Close()
		parkedDone <- resp.StatusCode
	}()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("parked summary never reached its in-flight point")
	}
	// 0.5 spent + 0.3 held + 0.3 is over the budget, 0.5 + 0.3 is not:
	// the refusal is transient, and the retry commits.
	if res := post(3, 0.3); res.Status != http.StatusOK || res.Attempts != 2 {
		t.Fatalf("summary under the hold: HTTP %d after %d attempt(s), want a 200 on attempt 2", res.Status, res.Attempts)
	}
	if retryAfter == "" {
		t.Error("the 429 under a hold carries no Retry-After")
	}
	// 0.8 spent + 0.3 is over the budget: final, one attempt.
	res := post(4, 0.3)
	if res.Status != http.StatusTooManyRequests || res.Attempts != 1 {
		t.Fatalf("summary past the spent budget: HTTP %d after %d attempt(s), want one final 429", res.Status, res.Attempts)
	}
	var er ErrorResponse
	if err := json.Unmarshal(res.Body, &er); err != nil || er.Code != "budget_exhausted" {
		t.Errorf("final 429 body %s, want code budget_exhausted", res.Body)
	}

	joined, rep := checkJoin(t, s, &traceBuf, &accessBuf)
	if rep.Attempts != 4 || rep.Traces != 3 {
		t.Errorf("join check saw %d attempt(s) across %d trace(s), want 4 across 3", rep.Attempts, rep.Traces)
	}
	var retried []obs.AccessRecord
	for _, ar := range joined.Access {
		if ar.Trace == obs.DeriveTraceContext(3).TraceID() {
			retried = append(retried, ar)
		}
	}
	if len(retried) != 2 || retried[0].Outcome != "refused" || retried[1].Outcome != "committed" || retried[0].Span == retried[1].Span {
		t.Errorf("retried trace's attempts %+v, want a refused then a committed one on two request spans", retried)
	}
}

// TestRealClientExhaustsBudgets runs two tenants out of budget through
// the retry client against a traced server with a write-ahead log.
// Eight workers share one client and send a seeded stream of 1000
// requests over every endpoint. Each request carries a traceparent
// derived from its seed, and each spending request an idempotency key.
// Every request settles on a 2xx or a 429. No attempt follows a 429
// without Retry-After, and no budget_exhausted 429 carries one. Each
// tenant ends on final 429s within its budget, /v1/crosscheck finds
// both books on the log with nothing in flight, and the join check
// holds over every attempt. A 429 under a hold may still be retried
// into a final one, so the number of attempts a final 429 took is not
// asserted.
func TestRealClientExhaustsBudgets(t *testing.T) {
	var traceBuf, accessBuf bytes.Buffer
	s, ts := tracedService(t, Config{
		// The zero Degrade is refuse: an unaffordable fit answers 429.
		Tenants: []TenantConfig{
			{ID: "alpha", Budget: mechanism.Guarantee{Epsilon: 6}},
			{ID: "beta", Budget: mechanism.Guarantee{Epsilon: 2.5}},
		},
		WALDir: t.TempDir(),
	}, &traceBuf, &accessBuf)
	defer s.CloseWALs()

	// The stream: tenant uniform, endpoint by weight, then the
	// request's own seed, from which its 24-row dataset, its candidates
	// and its trace id all derive.
	type request struct {
		tenant, path, key string
		body              []byte
		header            http.Header
	}
	tenants := []string{"alpha", "beta"}
	endpoints, weights := []string{"fit", "certify", "select", "density", "summary"}, []float64{2, 1, 1, 2, 2}
	const quoted = 0.02
	master := rng.New(1)
	reqs := make([]request, 1000)
	for i := range reqs {
		tenant := tenants[master.Intn(len(tenants))]
		endpoint := endpoints[master.Categorical(weights)]
		seed := master.SplitSeed()
		data := testData(seed, 24, 2)
		var body any
		switch endpoint {
		case "fit":
			body = FitRequest{Tenant: tenant, Seed: seed, Data: data}
		case "certify":
			body = CertifyRequest{Tenant: tenant, Data: data}
		case "select":
			g := rng.New(seed)
			cands := make([]CandidateJSON, 3)
			for c := range cands {
				theta := make([]float64, 2)
				for j := range theta {
					theta[j] = g.Uniform(-1, 1)
				}
				cands[c] = CandidateJSON{Name: fmt.Sprintf("cand-%d", c), Theta: theta}
			}
			body = SelectRequest{Tenant: tenant, Seed: seed, Epsilon: quoted, Candidates: cands, Data: data}
		case "density":
			body = DensityRequest{Tenant: tenant, Seed: seed, Feature: 0, Lo: -1, Hi: 1, Epsilon: quoted, Bins: 8, Data: data}
		case "summary":
			body = SummaryRequest{Tenant: tenant, Seed: seed, Feature: 0, Lo: -1, Hi: 1, Bins: 8,
				Quantiles: []float64{0.25, 0.5, 0.75}, Epsilon: quoted, Data: data}
		}
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		reqs[i] = request{tenant: tenant, path: "/v1/" + endpoint, body: b,
			header: http.Header{"Traceparent": []string{obs.DeriveTraceContext(seed).Traceparent()}}}
		if endpoint != "certify" {
			reqs[i].key = fmt.Sprintf("lg-%d", seed)
		}
	}

	// The transport records every attempt; one request's attempts are
	// sequential, so each trace's attempts arrive in order.
	type attempt struct {
		traceparent, retryAfter, code string
		status                        int
	}
	var mu sync.Mutex
	var attempts []attempt
	rc := client.New(client.Config{
		BaseURL: ts.URL,
		HTTP: &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
			resp, err := http.DefaultTransport.RoundTrip(r)
			if err != nil {
				return nil, err
			}
			a := attempt{traceparent: r.Header.Get("Traceparent"), retryAfter: resp.Header.Get("Retry-After"), status: resp.StatusCode}
			if resp.StatusCode == http.StatusTooManyRequests {
				b, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					return nil, err
				}
				var er ErrorResponse
				if json.Unmarshal(b, &er) == nil {
					a.code = er.Code
				}
				resp.Body = io.NopCloser(bytes.NewReader(b))
			}
			mu.Lock()
			attempts = append(attempts, a)
			mu.Unlock()
			return resp, nil
		})},
		MaxAttempts:   3,
		BaseBackoff:   time.Millisecond,
		MaxBackoff:    5 * time.Millisecond,
		MaxRetryAfter: 5 * time.Millisecond,
		Seed:          1,
	})
	results := make([]*client.Result, len(reqs))
	errs := make([]error, len(reqs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				r := reqs[i]
				results[i], errs[i] = rc.PostRaw(context.Background(), r.path, r.body, r.key, r.header)
			}
		}()
	}
	for i := range reqs {
		next <- i
	}
	close(next)
	wg.Wait()

	var ok, refused, final int
	finals := map[string]int{}
	for i, res := range results {
		if errs[i] != nil {
			t.Errorf("request %d (%s): %v", i, reqs[i].path, errs[i])
			continue
		}
		switch {
		case res.Status >= 200 && res.Status < 300:
			ok++
		case res.Status == http.StatusTooManyRequests:
			refused++
			var er ErrorResponse
			if json.Unmarshal(res.Body, &er) == nil && er.Code == "budget_exhausted" {
				final++
				finals[reqs[i].tenant]++
			}
		default:
			t.Errorf("request %d (%s): HTTP %d: %s", i, reqs[i].path, res.Status, res.Body)
		}
	}
	t.Logf("%d ok, %d refused (%d final) in %d attempt(s)", ok, refused, final, len(attempts))

	prev := map[string]attempt{}
	for _, a := range attempts {
		if p, seen := prev[a.traceparent]; seen && p.status == http.StatusTooManyRequests && p.retryAfter == "" {
			t.Errorf("%s: an attempt follows a 429 without Retry-After", a.traceparent)
		}
		if a.code == "budget_exhausted" && a.retryAfter != "" {
			t.Errorf("%s: a budget_exhausted 429 carries Retry-After %q", a.traceparent, a.retryAfter)
		}
		prev[a.traceparent] = a
	}
	for _, tn := range s.Tenants().Tenants() {
		g := tn.Acct.BasicComposition()
		t.Logf("tenant %s spent eps=%.17g of %g across %d charge(s)", tn.ID, g.Epsilon, tn.Budget().Epsilon, tn.Acct.Count())
		if finals[tn.ID] == 0 {
			t.Errorf("tenant %s drew no final 429", tn.ID)
		}
		if g.Epsilon > tn.Budget().Epsilon {
			t.Errorf("tenant %s overspent: %.17g > %.17g", tn.ID, g.Epsilon, tn.Budget().Epsilon)
		}
	}
	audits := getCrossCheck(t, ts.URL)
	if len(audits) != len(tenants) {
		t.Errorf("crosscheck audits %d tenant(s), want %d", len(audits), len(tenants))
	}
	for _, a := range audits {
		if a.Witness != "wal" || a.InFlight != 0 {
			t.Errorf("crosscheck: %+v, want the wal witness with nothing in flight", a)
		}
	}
	if _, rep := checkJoin(t, s, &traceBuf, &accessBuf); rep.Traces != len(reqs) || rep.Attempts != len(attempts) {
		t.Errorf("join check saw %d attempt(s) across %d trace(s), want %d across %d", rep.Attempts, rep.Traces, len(attempts), len(reqs))
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
