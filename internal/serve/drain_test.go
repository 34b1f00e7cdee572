package serve

import (
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/mechanism"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestGracefulDrain parks a request inside the spending window (its
// reservation held), begins the drain, and demands: new /v1 requests
// and health checks answer 503 + Retry-After, while the parked request
// runs to a committed 200 — drain never abandons a held reservation.
func TestGracefulDrain(t *testing.T) {
	s, ts := newTestService(t, Config{
		Tenants: []TenantConfig{{ID: "solo", Budget: mechanism.Guarantee{Epsilon: 5}}},
	})
	entered := make(chan struct{})
	release := make(chan struct{})
	parked := false
	s.testHookInFlight = func(endpoint string) {
		if endpoint == "summary" && !parked {
			parked = true
			close(entered)
			<-release
		}
	}
	data := testData(41, 16, 2)
	done := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, ts.URL+"/v1/summary", SummaryRequest{
			Tenant: "solo", Seed: 1, Feature: 0, Lo: -1, Hi: 1,
			Quantiles: []float64{0.5}, Epsilon: 0.3, Data: data,
		})
		done <- resp.StatusCode
	}()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight request never reached the spending window")
	}

	s.BeginDrain()
	if !s.draining.Load() {
		t.Fatal("draining false after BeginDrain")
	}
	resp, body := postJSON(t, ts.URL+"/v1/fit", FitRequest{Tenant: "solo", Seed: 2, Data: data})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("fit during drain: HTTP %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("drain 503 without Retry-After header")
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz during drain: HTTP %d, want 503", hresp.StatusCode)
	}

	close(release)
	select {
	case code := <-done:
		if code != http.StatusOK {
			t.Fatalf("parked request finished with HTTP %d, want 200 (drain must let it commit)", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("parked request never finished")
	}
	tn, _ := s.Tenants().Get("solo")
	if tn.Acct.Count() != 1 {
		t.Errorf("parked request committed %d record(s), want 1", tn.Acct.Count())
	}
	checkBooks(t, tn)
}

// drainScript replays the fixed request sequence the metrics golden is
// pinned to.
func drainScript(t *testing.T, s *Server, ts string) {
	t.Helper()
	data := testData(42, 16, 2)
	steps := []struct {
		path string
		body any
		want int
	}{
		{"/v1/fit", FitRequest{Tenant: "alpha", Seed: 1, Data: data}, http.StatusOK},
		{"/v1/summary", SummaryRequest{Tenant: "alpha", Seed: 2, Feature: 0, Lo: -1, Hi: 1,
			Quantiles: []float64{0.5}, Epsilon: 0.05, Data: data}, http.StatusOK},
		{"/v1/density", DensityRequest{Tenant: "beta", Seed: 3, Feature: 0, Lo: -1, Hi: 1,
			Epsilon: 0.05, Bins: 8, Data: data}, http.StatusOK},
		{"/v1/select", SelectRequest{Tenant: "beta", Seed: 4, Epsilon: 0.05,
			Candidates: []CandidateJSON{{Name: "a", Theta: []float64{1, 0}}, {Name: "b", Theta: []float64{0, 1}}},
			Data:       data}, http.StatusOK},
		{"/v1/certify", CertifyRequest{Tenant: "alpha", Data: data}, http.StatusOK},
		{"/v1/fit", FitRequest{Tenant: "beta", Seed: 5, Data: data}, http.StatusOK},
		// beta's second 0.4-fit busts its 0.6 budget: a deterministic 429.
		{"/v1/fit", FitRequest{Tenant: "beta", Seed: 6, Data: data}, http.StatusTooManyRequests},
	}
	for i, st := range steps {
		resp, body := postJSON(t, ts+st.path, st.body)
		if resp.StatusCode != st.want {
			t.Fatalf("script step %d (%s): HTTP %d, want %d: %s", i, st.path, resp.StatusCode, st.want, body)
		}
	}
	// Drain and take one refused request so the golden pins the 503 path
	// too.
	s.BeginDrain()
	resp, _ := postJSON(t, ts+"/v1/fit", FitRequest{Tenant: "alpha", Seed: 7, Data: data})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain fit: HTTP %d, want 503", resp.StatusCode)
	}
}

// scrapeServeMetrics returns the /metrics lines belonging to the
// dplearn_serve_ families. The filter is the point: the shared registry
// also holds parallel-engine counters whose worker-chunk series
// legitimately vary with the worker count, while every dplearn_serve_
// series must be a pure function of the request history.
func scrapeServeMetrics(t *testing.T, ts string) string {
	t.Helper()
	resp, err := http.Get(ts + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var keep []string
	for _, line := range strings.Split(string(b), "\n") {
		if strings.Contains(line, "dplearn_serve_") {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "\n") + "\n"
}

// TestMetricsGoldenAcrossWorkers replays the fixed script at Workers=1
// and Workers=8 and demands byte-identical dplearn_serve_ metrics —
// spend gauges, request counters, and tick histograms are deterministic
// functions of the request history, not of the parallel fan-out — then
// pins them to a golden file.
func TestMetricsGoldenAcrossWorkers(t *testing.T) {
	outputs := map[int]string{}
	for _, workers := range []int{1, 8} {
		s, ts := newTestService(t, Config{
			Tenants: []TenantConfig{
				{ID: "alpha", Budget: mechanism.Guarantee{Epsilon: 5}},
				{ID: "beta", Budget: mechanism.Guarantee{Epsilon: 0.6}},
			},
			Learner: LearnerSpec{Epsilon: 0.4},
			Workers: workers,
		})
		drainScript(t, s, ts.URL)
		outputs[workers] = scrapeServeMetrics(t, ts.URL)
	}
	if outputs[1] != outputs[8] {
		t.Fatalf("dplearn_serve_ metrics differ between Workers=1 and Workers=8:\n--- w=1 ---\n%s--- w=8 ---\n%s",
			outputs[1], outputs[8])
	}
	golden := filepath.Join("testdata", "metrics_serve.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(outputs[1]), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if outputs[1] != string(want) {
		t.Errorf("metrics drifted from golden (re-run with -update if intended):\n--- got ---\n%s--- want ---\n%s",
			outputs[1], want)
	}
}
