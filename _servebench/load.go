package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// workers is the closed loop's client count: callers of a release
// service are pipelines that each wait for their reply, and the
// benchmark host has two CPUs.
const workers = 2

// maxProblems bounds how many failure messages a run keeps.
const maxProblems = 10

// loadStats is what the closed loop saw.
type loadStats struct {
	attempted, failed int
	// fresh counts 2xx, non-replayed responses of the units inside the
	// window, and inWindow all their requests.
	fresh, inWindow int
	// latencies are the wall times (ms) of the units sent and completed
	// inside the window, from sending the first request to reading the
	// last byte of the last answer. A grid-session unit is its certify
	// and fit: timing them apart would put the median on the boundary
	// between a cold risk grid and a cached one.
	latencies []float64
	// spends counts each tenant's spending 2xx responses over the whole
	// run, warm-up included.
	spends   map[string]int
	problems []string
	// badChecks counts 2xx bodies that failed their check.
	badChecks int
	// cpuTicks is the server's CPU time over the window.
	cpuTicks int64
}

func (st *loadStats) problem(format string, args ...any) {
	if len(st.problems) < maxProblems {
		st.problems = append(st.problems, fmt.Sprintf(format, args...))
	}
}

func (st *loadStats) merge(o *loadStats) {
	st.attempted += o.attempted
	st.failed += o.failed
	st.fresh += o.fresh
	st.inWindow += o.inWindow
	st.badChecks += o.badChecks
	st.latencies = append(st.latencies, o.latencies...)
	for t, n := range o.spends {
		st.spends[t] += n
	}
	for _, p := range o.problems {
		st.problem("%s", p)
	}
}

func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: workers, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
}

// runLoad drives the server with the workload's stream from unit 0 in a
// closed loop of workers clients: a warm-up, then a measured window.
// Each request is sent exactly once; anything but a 2xx is a failure.
func runLoad(c *http.Client, srv *server, w *workload, seed int64, warmup, window time.Duration) (*loadStats, error) {
	var next atomic.Int64
	start := time.Now()
	winStart := start.Add(warmup)
	winEnd := winStart.Add(window)
	per := make([]*loadStats, workers)
	var wg sync.WaitGroup
	for k := range per {
		st := &loadStats{spends: make(map[string]int)}
		per[k] = st
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(winEnd) {
				reqs, err := w.unit(seed, int(next.Add(1)-1))
				if err != nil {
					st.failed++
					st.problem("generate: %v", err)
					return
				}
				t0 := time.Now()
				fresh := 0
				for _, r := range reqs {
					if st.issue(c, srv.base(), r) {
						fresh++
					}
				}
				if t1 := time.Now(); !t0.Before(winStart) && !t1.After(winEnd) {
					st.latencies = append(st.latencies, float64(t1.Sub(t0).Nanoseconds())/1e6)
					st.fresh += fresh
					st.inWindow += len(reqs)
				}
			}
		}()
	}
	time.Sleep(time.Until(winStart))
	cpu0, err0 := srv.cpuTicks()
	time.Sleep(time.Until(winEnd))
	cpu1, err1 := srv.cpuTicks()
	wg.Wait()
	if err := errors.Join(err0, err1); err != nil {
		return nil, fmt.Errorf("server CPU time: %w", err)
	}
	total := &loadStats{spends: make(map[string]int), cpuTicks: cpu1 - cpu0}
	for _, st := range per {
		total.merge(st)
	}
	return total, nil
}

// issue sends one request, records its outcome, and reports whether it
// was a fresh (2xx, non-replayed) answer.
func (st *loadStats) issue(c *http.Client, base string, r request) bool {
	status, body, replayed, err := send(c, base, r)
	st.attempted++
	switch {
	case err != nil:
		st.failed++
		st.problem("%s %s: %v", r.method(), r.path(), err)
		return false
	case status/100 != 2:
		st.failed++
		st.problem("%s %s: HTTP %d: %s", r.method(), r.path(), status, strings.TrimSpace(string(body)))
		return false
	}
	if err := checkBody(r, body); err != nil {
		st.badChecks++
		st.problem("%s %s: %v", r.method(), r.path(), err)
	}
	if r.spends() && !replayed {
		st.spends[r.tenant]++
	}
	return !replayed
}

// send issues r once and reads the whole response body.
func send(c *http.Client, base string, r request) (status int, body []byte, replayed bool, err error) {
	var resp *http.Response
	if r.body == nil {
		resp, err = c.Get(base + r.path())
	} else {
		resp, err = c.Post(base+r.path(), "application/json", bytes.NewReader(r.body))
	}
	if err != nil {
		return 0, nil, false, err
	}
	defer resp.Body.Close() // read-only; a close error loses nothing
	body, err = io.ReadAll(resp.Body)
	return resp.StatusCode, body, resp.Header.Get("Idempotency-Replayed") == "true", err
}

// checkBody decodes a 2xx body into its serve wire type, rejecting
// unknown fields, and checks the values a correct server produces.
func checkBody(r request, body []byte) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	switch r.endpoint {
	case "fit":
		var v serve.FitResponse
		if err := dec.Decode(&v); err != nil {
			return err
		}
		if len(v.Theta) != dim {
			return fmt.Errorf("fit θ has %d coefficients, want %d", len(v.Theta), dim)
		}
		for _, x := range v.Theta {
			if !(math.Abs(x) <= box) {
				return fmt.Errorf("fit θ %v outside the grid box [-%g, %g]", v.Theta, box, box)
			}
		}
		if v.Degraded {
			return errors.New("fit was degraded: admission refused it")
		}
		return finite("fit certificate", v.Certificate.Epsilon, v.Certificate.RiskBound, v.Certificate.KL)
	case "certify":
		var v serve.CertifyResponse
		if err := dec.Decode(&v); err != nil {
			return err
		}
		return finite("certificate", v.Certificate.Epsilon, v.Certificate.RiskBound, v.Certificate.KL)
	case "select":
		var v serve.SelectResponse
		if err := dec.Decode(&v); err != nil {
			return err
		}
		if !strings.HasPrefix(v.Name, "cand-") || len(v.Theta) != dim {
			return fmt.Errorf("select returned %q θ=%v, not a posted candidate", v.Name, v.Theta)
		}
		return nil
	case "density":
		var v serve.DensityResponse
		if err := dec.Decode(&v); err != nil {
			return err
		}
		if v.Bins != bins || len(v.Density) != bins {
			return fmt.Errorf("density has %d/%d bins, want %d", v.Bins, len(v.Density), bins)
		}
		for _, x := range v.Density {
			if !(x >= 0) || math.IsInf(x, 0) {
				return fmt.Errorf("density bin %v is negative or not finite", x)
			}
		}
		return nil
	case "summary":
		var v serve.SummaryResponse
		if err := dec.Decode(&v); err != nil {
			return err
		}
		if len(v.Histogram) != bins || len(v.Quantiles) != len(quantiles) {
			return fmt.Errorf("summary has %d bins and %d quantiles, want %d and %d",
				len(v.Histogram), len(v.Quantiles), bins, len(quantiles))
		}
		return finite("summary", v.Count, v.Mean)
	case "budget":
		var v serve.BudgetStatus
		if err := dec.Decode(&v); err != nil {
			return err
		}
		if v.Tenant != r.tenant || !(v.RemainingEpsilon >= 0) {
			return fmt.Errorf("budget read for %s returned tenant %s with %v remaining", r.tenant, v.Tenant, v.RemainingEpsilon)
		}
		return nil
	}
	return fmt.Errorf("no check for endpoint %q", r.endpoint)
}

func finite(what string, xs ...float64) error {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("%s holds a non-finite value %v", what, x)
		}
	}
	return nil
}

// audit checks the books at the end of a run: /v1/crosscheck answers
// 200, and each tenant's release count equals its prefilled history
// plus the spending 2xx responses the run saw.
func audit(c *http.Client, base string, w *workload, spends map[string]int) []string {
	var problems []string
	status, body, _, err := send(c, base, request{endpoint: "crosscheck", body: nil})
	if err != nil || status != http.StatusOK {
		problems = append(problems, fmt.Sprintf("crosscheck: HTTP %d %v %s", status, err, strings.TrimSpace(string(body))))
	}
	for i := 0; i < w.tenants; i++ {
		id := tenantID(i)
		status, body, _, err := send(c, base, request{tenant: id, endpoint: "budget"})
		var b serve.BudgetStatus
		if err == nil && status == http.StatusOK {
			err = json.Unmarshal(body, &b)
		} else if err == nil {
			err = fmt.Errorf("HTTP %d", status)
		}
		if err != nil {
			problems = append(problems, fmt.Sprintf("budget %s: %v", id, err))
			continue
		}
		if want := w.history + spends[id]; b.Releases != want {
			problems = append(problems, fmt.Sprintf("tenant %s holds %d releases, want %d prefilled + %d served = %d",
				id, b.Releases, w.history, spends[id], want))
		}
	}
	return problems
}
