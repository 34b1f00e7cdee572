package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/mechanism"
	"repro/internal/obs"
	"repro/internal/rng"
)

// testObserver builds the deterministic observer every test server
// shares: logical clock, fresh registry.
func testObserver() *obs.Observer {
	return &obs.Observer{Metrics: obs.NewRegistry(), Clock: &obs.LogicalClock{}}
}

// newTestService builds a Server plus an httptest front end.
func newTestService(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Observer == nil {
		cfg.Observer = testObserver()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// testData draws a deterministic labeled dataset.
func testData(seed int64, rows, dim int) DataJSON {
	g := rng.New(seed)
	d := DataJSON{X: make([][]float64, rows), Y: make([]float64, rows)}
	for i := range d.X {
		row := make([]float64, dim)
		for j := range row {
			row[j] = g.Uniform(-1, 1)
		}
		d.X[i] = row
		if g.Bernoulli(0.5) {
			d.Y[i] = 1
		} else {
			d.Y[i] = -1
		}
	}
	return d
}

// postJSON posts body and returns the response with its decoded bytes.
func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
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

// checkBooks audits one quiescent tenant end to end: with a WAL, the
// accountant against the log's books (counts equal, compositions
// bit-identical, nothing in flight); always, no leaked reservations.
func checkBooks(t *testing.T, tn *Tenant) {
	t.Helper()
	if _, _, err := tn.CrossCheck(true); err != nil {
		t.Errorf("cross-check: %v", err)
	}
	if r := tn.Acct.Reserved(); r != 0 {
		t.Errorf("tenant %s leaked %d reservation(s)", tn.ID, r)
	}
}

// tenantAudit is one tenant's line of the /v1/crosscheck answer.
type tenantAudit struct {
	Tenant   string `json:"tenant"`
	Witness  string `json:"witness"`
	InFlight int    `json:"in_flight"`
}

// getCrossCheck fetches /v1/crosscheck, which must answer 200, and
// returns its per-tenant audits.
func getCrossCheck(t *testing.T, base string) []tenantAudit {
	t.Helper()
	resp, err := http.Get(base + "/v1/crosscheck")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Status  string        `json:"status"`
		Tenants []tenantAudit `json:"tenants"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusOK || out.Status != "ok" {
		t.Fatalf("crosscheck: HTTP %d, %+v, %v", resp.StatusCode, out, err)
	}
	return out.Tenants
}

// TestTenantIsolation interleaves two tenants with very different
// budgets: alpha exhausts and starts drawing final 429s — no
// Retry-After, code budget_exhausted, since its spends alone refuse
// every later fit — while beta keeps being served.
func TestTenantIsolation(t *testing.T) {
	_, ts := newTestService(t, Config{
		Tenants: []TenantConfig{
			{ID: "alpha", Budget: mechanism.Guarantee{Epsilon: 1}},
			{ID: "beta", Budget: mechanism.Guarantee{Epsilon: 50}},
		},
		Learner: LearnerSpec{Epsilon: 0.4},
	})
	data := testData(11, 24, 2)
	var alphaRejected, betaOK int
	for i := 0; i < 10; i++ {
		for _, tenant := range []string{"alpha", "beta"} {
			resp, body := postJSON(t, ts.URL+"/v1/fit", FitRequest{Tenant: tenant, Seed: int64(100 + i), Data: data})
			switch resp.StatusCode {
			case http.StatusOK:
				if tenant == "beta" {
					betaOK++
				}
			case http.StatusTooManyRequests:
				if tenant == "beta" {
					t.Fatalf("beta rejected at round %d: %s", i, body)
				}
				alphaRejected++
				checkFinal429(t, resp, body)
			default:
				t.Fatalf("tenant %s round %d: HTTP %d: %s", tenant, i, resp.StatusCode, body)
			}
			// Interleave ε-quoting traffic on beta to prove alpha's state
			// never bleeds over.
			resp, body = postJSON(t, ts.URL+"/v1/summary", SummaryRequest{
				Tenant: "beta", Seed: int64(1000 + i), Feature: 0, Lo: -1, Hi: 1,
				Quantiles: []float64{0.5}, Epsilon: 0.05, Data: data,
			})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("beta summary round %d: HTTP %d: %s", i, resp.StatusCode, body)
			}
		}
	}
	// alpha's budget of 1 admits two 0.4-fits; the remaining 8 rounds
	// must all reject.
	if alphaRejected != 8 {
		t.Errorf("alpha: got %d rejections, want 8", alphaRejected)
	}
	if betaOK != 10 {
		t.Errorf("beta: got %d successful fits, want 10", betaOK)
	}
}

// checkFinal429 asserts a final refusal: a 429 with no Retry-After and
// an ErrorResponse carrying the code budget_exhausted.
func checkFinal429(t *testing.T, resp *http.Response, body []byte) {
	t.Helper()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("HTTP %d, want a final 429: %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		t.Errorf("final 429 carries Retry-After %q", ra)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Error == "" || er.Code != "budget_exhausted" {
		t.Errorf("final 429 body %s, want an ErrorResponse with code budget_exhausted", body)
	}
}

// TestRetryAfterCapsHugeQuote pins the refusal of a quote far past any
// budget: the spends alone refuse 1e300 ε, so the handler answers a
// final 429.
func TestRetryAfterCapsHugeQuote(t *testing.T) {
	s, ts := newTestService(t, Config{
		Tenants: []TenantConfig{{ID: "solo", Budget: mechanism.Guarantee{Epsilon: 1}}},
	})
	tn, _ := s.Tenants().Get("solo")
	tn.Acct.Spend(mechanism.Guarantee{Epsilon: 0.5})
	resp, body := postJSON(t, ts.URL+"/v1/summary", SummaryRequest{Tenant: "solo", Seed: 1, Feature: 0, Lo: -1, Hi: 1,
		Quantiles: []float64{0.5}, Epsilon: 1e300, Data: testData(11, 24, 2)})
	checkFinal429(t, resp, body)
}

// TestTenantIsolationBooks re-runs a short interleaved load against
// per-tenant write-ahead logs and audits both tenants' accountants
// bit-for-bit against their own logs.
func TestTenantIsolationBooks(t *testing.T) {
	s, ts := newTestService(t, Config{
		Tenants: []TenantConfig{
			{ID: "alpha", Budget: mechanism.Guarantee{Epsilon: 1}},
			{ID: "beta", Budget: mechanism.Guarantee{Epsilon: 50}},
		},
		Learner: LearnerSpec{Epsilon: 0.4},
		WALDir:  t.TempDir(),
	})
	defer s.CloseWALs()
	data := testData(12, 24, 2)
	for i := 0; i < 6; i++ {
		for _, tenant := range []string{"alpha", "beta"} {
			resp, body := postJSON(t, ts.URL+"/v1/fit", FitRequest{Tenant: tenant, Seed: int64(i), Data: data})
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
				t.Fatalf("tenant %s: HTTP %d: %s", tenant, resp.StatusCode, body)
			}
			resp, body = postJSON(t, ts.URL+"/v1/density", DensityRequest{
				Tenant: tenant, Seed: int64(50 + i), Feature: 0, Lo: -1, Hi: 1, Epsilon: 0.03, Bins: 8, Data: data,
			})
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
				t.Fatalf("tenant %s density: HTTP %d: %s", tenant, resp.StatusCode, body)
			}
		}
	}
	for _, tn := range s.Tenants().Tenants() {
		checkBooks(t, tn)
	}
	alpha, _ := s.Tenants().Get("alpha")
	if g := alpha.Acct.BasicComposition(); g.Epsilon > alpha.Budget().Epsilon {
		t.Errorf("alpha overspent: %.17g > %.17g", g.Epsilon, alpha.Budget().Epsilon)
	}
}

// TestDegradeOverride exhausts a tenant and then exercises the
// per-request policy override: fallback re-releases the cached fit for
// free, widen spends exactly the remainder, refuse still answers 429.
func TestDegradeOverride(t *testing.T) {
	s, ts := newTestService(t, Config{
		Tenants: []TenantConfig{{ID: "solo", Budget: mechanism.Guarantee{Epsilon: 1}}},
		Learner: LearnerSpec{Epsilon: 0.8},
	})
	data := testData(13, 24, 2)
	resp, body := postJSON(t, ts.URL+"/v1/fit", FitRequest{Tenant: "solo", Seed: 1, Data: data})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first fit: HTTP %d: %s", resp.StatusCode, body)
	}
	tn, _ := s.Tenants().Get("solo")
	countAfterFirst := tn.Acct.Count()

	// The default (refuse) cannot admit a second 0.8-fit.
	resp, _ = postJSON(t, ts.URL+"/v1/fit", FitRequest{Tenant: "solo", Seed: 2, Data: data})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("refused fit: got HTTP %d, want 429", resp.StatusCode)
	}

	// fallback: 200, degraded, and — post-processing — zero new spend.
	resp, body = postJSON(t, ts.URL+"/v1/fit", FitRequest{Tenant: "solo", Seed: 3, Degrade: "fallback", Data: data})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fallback fit: HTTP %d: %s", resp.StatusCode, body)
	}
	var fr FitResponse
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatalf("fallback response: %v", err)
	}
	if !fr.Degraded || fr.Policy != "fallback" {
		t.Errorf("fallback response: degraded=%v policy=%q", fr.Degraded, fr.Policy)
	}
	if got := tn.Acct.Count(); got != countAfterFirst {
		t.Errorf("fallback spent: %d records, want %d", got, countAfterFirst)
	}

	// widen: 200, degraded, and the budget closes to exactly zero.
	resp, body = postJSON(t, ts.URL+"/v1/fit", FitRequest{Tenant: "solo", Seed: 4, Degrade: "widen", Data: data})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("widen fit: HTTP %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatalf("widen response: %v", err)
	}
	if !fr.Degraded || fr.Policy != "widen" {
		t.Errorf("widen response: degraded=%v policy=%q", fr.Degraded, fr.Policy)
	}
	rem, ok := tn.Acct.Remaining()
	if !ok {
		t.Fatal("tenant lost its budget")
	}
	//dplint:ignore floateq widen must close the budget to exactly zero, no floating-point residue
	if rem.Epsilon != 0 {
		t.Errorf("after widen: remaining ε = %.17g, want exactly 0", rem.Epsilon)
	}
	checkBooks(t, tn)
}

// TestRequestValidation walks the 4xx surface: unknown tenant, bad ε,
// dimension mismatch, malformed JSON, wrong method — none of which may
// spend.
func TestRequestValidation(t *testing.T) {
	s, ts := newTestService(t, Config{
		Tenants: []TenantConfig{{ID: "solo", Budget: mechanism.Guarantee{Epsilon: 5}}},
	})
	data := testData(14, 8, 2)
	cases := []struct {
		name string
		path string
		body any
		want int
	}{
		{"unknown tenant", "/v1/fit", FitRequest{Tenant: "ghost", Seed: 1, Data: data}, http.StatusNotFound},
		{"no tenant", "/v1/fit", FitRequest{Seed: 1, Data: data}, http.StatusBadRequest},
		{"bad epsilon", "/v1/summary", SummaryRequest{Tenant: "solo", Epsilon: -1, Lo: -1, Hi: 1, Data: data}, http.StatusBadRequest},
		{"dim mismatch", "/v1/fit", FitRequest{Tenant: "solo", Seed: 1, Data: testData(14, 8, 3)}, http.StatusBadRequest},
		{"ragged rows", "/v1/fit", FitRequest{Tenant: "solo", Seed: 1, Data: DataJSON{X: [][]float64{{1, 2}, {3}}}}, http.StatusBadRequest},
		{"bad degrade", "/v1/fit", FitRequest{Tenant: "solo", Seed: 1, Degrade: "explode", Data: data}, http.StatusBadRequest},
		{"bad feature", "/v1/density", DensityRequest{Tenant: "solo", Feature: 7, Lo: -1, Hi: 1, Epsilon: 0.1, Data: data}, http.StatusBadRequest},
		{"bad kind", "/v1/density", DensityRequest{Tenant: "solo", Kind: "wavelet", Lo: -1, Hi: 1, Epsilon: 0.1, Data: data}, http.StatusBadRequest},
		{"short candidate", "/v1/select", SelectRequest{Tenant: "solo", Epsilon: 0.1, Candidates: []CandidateJSON{{Theta: []float64{1}}}, Data: data}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, ts.URL+tc.path, tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: got HTTP %d (%s), want %d", tc.name, resp.StatusCode, body, tc.want)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/fit", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: got HTTP %d, want 400", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/fit")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET on POST endpoint: got HTTP %d, want 405", resp.StatusCode)
	}
	tn, _ := s.Tenants().Get("solo")
	if tn.Acct.Count() != 0 {
		t.Errorf("validation failures spent %d release(s)", tn.Acct.Count())
	}
}

// TestCertifyIsFree proves certificates stay available to an exhausted
// tenant: no release, no ε, no 429.
func TestCertifyIsFree(t *testing.T) {
	s, ts := newTestService(t, Config{
		Tenants: []TenantConfig{{ID: "solo", Budget: mechanism.Guarantee{Epsilon: 0.1}}},
		Learner: LearnerSpec{Epsilon: 0.4},
	})
	data := testData(15, 24, 2)
	resp, _ := postJSON(t, ts.URL+"/v1/fit", FitRequest{Tenant: "solo", Seed: 1, Data: data})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("fit on a 0.1 budget: got HTTP %d, want 429", resp.StatusCode)
	}
	resp, body := postJSON(t, ts.URL+"/v1/certify", CertifyRequest{Tenant: "solo", Data: data})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("certify: HTTP %d: %s", resp.StatusCode, body)
	}
	var cr CertifyResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatalf("certify response: %v", err)
	}
	if cr.Certificate.RiskBound <= 0 {
		t.Errorf("certificate risk bound %v, want > 0", cr.Certificate.RiskBound)
	}
	tn, _ := s.Tenants().Get("solo")
	if tn.Acct.Count() != 0 {
		t.Errorf("certify spent %d release(s), want 0", tn.Acct.Count())
	}
}

// TestBudgetEndpoints covers the read-only surface.
func TestBudgetEndpoints(t *testing.T) {
	_, ts := newTestService(t, Config{
		Tenants: []TenantConfig{
			{ID: "a", Budget: mechanism.Guarantee{Epsilon: 2}, Degrade: core.DegradeWiden},
			{ID: "b", Budget: mechanism.Guarantee{Epsilon: 3}},
		},
	})
	resp, err := http.Get(ts.URL + "/v1/budget?tenant=a")
	if err != nil {
		t.Fatal(err)
	}
	var bs BudgetStatus
	if err := json.NewDecoder(resp.Body).Decode(&bs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	//dplint:ignore floateq the configured budget is echoed verbatim
	if bs.Tenant != "a" || bs.BudgetEpsilon != 2 || bs.Degrade != "widen" {
		t.Errorf("budget status: %+v", bs)
	}
	resp, err = http.Get(ts.URL + "/v1/tenants")
	if err != nil {
		t.Fatal(err)
	}
	var all []BudgetStatus
	if err := json.NewDecoder(resp.Body).Decode(&all); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(all) != 2 || all[0].Tenant != "a" || all[1].Tenant != "b" {
		t.Errorf("tenants listing: %+v", all)
	}
	// Without a WAL there is no in-process witness, and the audit says so.
	if audits := getCrossCheck(t, ts.URL); len(audits) != 2 || audits[0] != (tenantAudit{Tenant: "a", Witness: "none"}) ||
		audits[1] != (tenantAudit{Tenant: "b", Witness: "none"}) {
		t.Errorf("crosscheck: %+v, want both tenants without a witness", audits)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: HTTP %d", resp.StatusCode)
	}
}

// TestParseTenantBudgets covers the CLI declaration parser.
func TestParseTenantBudgets(t *testing.T) {
	cfgs, err := ParseTenantBudgets("beta=1.5, alpha=4", core.DegradeFallback)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != 2 || cfgs[0].ID != "alpha" || cfgs[1].ID != "beta" {
		t.Fatalf("parsed %+v", cfgs)
	}
	//dplint:ignore floateq parsed flag values are echoed verbatim
	if cfgs[0].Budget.Epsilon != 4 || cfgs[1].Budget.Epsilon != 1.5 {
		t.Errorf("budgets %+v", cfgs)
	}
	if cfgs[0].Degrade != core.DegradeFallback {
		t.Errorf("degrade %v", cfgs[0].Degrade)
	}
	for _, bad := range []string{"", "alpha", "alpha=x", "alpha=1,alpha=2", "=3"} {
		if _, err := ParseTenantBudgets(bad, core.DegradeRefuse); err == nil {
			t.Errorf("ParseTenantBudgets(%q) accepted", bad)
		}
	}
}

// ExampleParseTenantBudgets documents the declaration syntax.
func ExampleParseTenantBudgets() {
	cfgs, _ := ParseTenantBudgets("alpha=4,beta=1.5", core.DegradeRefuse)
	for _, c := range cfgs {
		fmt.Printf("%s: eps=%g\n", c.ID, c.Budget.Epsilon)
	}
	// Output:
	// alpha: eps=4
	// beta: eps=1.5
}
