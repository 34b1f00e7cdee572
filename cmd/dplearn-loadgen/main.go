// Command dplearn-loadgen drives a deterministic request mix against a
// live dplearn-serve instance and writes the run as a BENCH_serve.json
// artifact (QPS, p50/p95/p99 latency, admission-reject rate).
//
//	dplearn-loadgen -addr localhost:8080 -tenants alpha,beta -requests 1000
//
// The whole request stream — tenant assignment, endpoint mix, per-request
// seeds, and synthetic datasets — is pre-generated from -seed before the
// first byte is sent, so two runs against identically configured servers
// issue byte-identical request bodies in the same order (per worker
// interleaving is the only wall-clock nondeterminism, and it only
// affects timing, never payloads). After the run the generator audits
// every tenant's books via /v1/crosscheck; a failed audit exits
// non-zero.
//
// Requests ride the retry-aware serve client: 429/503 responses back
// off with jitter honoring the server's Retry-After hint (capped by
// -max-retry-wait), spending requests carry deterministic
// Idempotency-Key headers ("lg-<seed>") so 5xx retries settle to the
// original outcome instead of buying a second release, and every
// logical request gets a -deadline. The artifact reports retry counts,
// replayed responses, and goodput (fresh successes per second) beside
// raw QPS.
//
// Every request carries a W3C traceparent header whose trace id is
// derived deterministically from the request's seed (disable with
// -no-traceparent), so a traced server run can be joined request-for-
// request to this generator's stream, and BENCH_serve.json names the
// exact trace ids sitting at the p95/p99 latencies. The shared obsglue
// flags (-trace / -metrics-addr / -pprof) additionally capture the
// client's side of every request as a span in the same trace ids.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obsglue"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/serve/client"
)

// request is one pre-generated unit of load.
type request struct {
	tenant   string
	endpoint string
	body     []byte
	// key is the Idempotency-Key stamped on spending requests
	// ("lg-<seed>"), making their retries exactly-once by protocol.
	key string
	// tc is the deterministic trace context injected as the request's
	// traceparent header (invalid when injection is disabled).
	tc obs.TraceContext
}

// outcome is the measured result of one logical request (all attempts).
type outcome struct {
	code     int
	degraded bool
	retries  int
	replayed bool
	millis   float64
	trace    string
}

func main() {
	addr := flag.String("addr", "", "serve address host:port (required)")
	tenants := flag.String("tenants", "", "comma-separated tenant IDs to spread load across (required)")
	requests := flag.Int("requests", 1000, "total requests to issue")
	seed := flag.Int64("seed", 1, "master seed for the deterministic request stream")
	concurrency := flag.Int("concurrency", 8, "concurrent client workers")
	mix := flag.String("mix", "fit=2,certify=1,select=1,density=2,summary=2", "endpoint weights")
	reqEps := flag.Float64("req-eps", 0.02, "ε quoted by each select/density/summary request")
	rows := flag.Int("rows", 24, "rows per synthetic dataset")
	dim := flag.Int("dim", 2, "feature dimension (must match the server's -dim)")
	degrade := flag.String("degrade", "", "degrade override stamped on fit requests (refuse|fallback|widen; empty = tenant default)")
	out := flag.String("out", "BENCH_serve.json", "bench artifact path")
	noTrace := flag.Bool("no-traceparent", false, "do not inject deterministic traceparent headers")
	retries := flag.Int("retries", 3, "max HTTP attempts per logical request (429/503 back off honoring Retry-After; 5xx retried under the idempotency key)")
	maxRetryWait := flag.Duration("max-retry-wait", 500*time.Millisecond, "cap on how long a server Retry-After hint is honored")
	deadline := flag.Duration("deadline", 30*time.Second, "per-request deadline including all retries and backoff")
	noIdem := flag.Bool("no-idempotency", false, "do not stamp Idempotency-Key headers (disables 5xx retries)")
	var obsFlags obsglue.Flags
	obsFlags.Register(flag.CommandLine)
	flag.Parse()

	if *addr == "" || *tenants == "" {
		fmt.Fprintln(os.Stderr, "dplearn-loadgen: -addr and -tenants are required")
		flag.Usage()
		os.Exit(2)
	}
	ids := splitIDs(*tenants)
	if len(ids) == 0 {
		fatal(fmt.Errorf("no tenant IDs in %q", *tenants))
	}
	endpoints, weights, err := parseMix(*mix)
	if err != nil {
		fatal(err)
	}

	glueFlags := obsFlags
	if glueFlags.MetricsAddr == "" {
		glueFlags.Pprof = false // nothing to mount pprof on without an address
	}
	rt, err := obsglue.Start(glueFlags)
	if err != nil {
		fatal(err)
	}

	reqs, err := generate(*seed, *requests, ids, endpoints, weights, *rows, *dim, *reqEps, *degrade, !*noTrace, !*noIdem)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "dplearn-loadgen: %d requests across %d tenant(s) against http://%s\n",
		len(reqs), len(ids), *addr)

	outcomes := make([]outcome, len(reqs))
	base := "http://" + *addr
	// One retry-aware client shared by all workers: the breaker and the
	// jitter stream are deliberately fleet-wide, so a crashed server is
	// backed off by everyone at once.
	rc := client.New(client.Config{
		BaseURL:       base,
		MaxAttempts:   *retries,
		Deadline:      *deadline,
		MaxRetryAfter: *maxRetryWait,
		Seed:          *seed,
	})
	var wg sync.WaitGroup
	next := make(chan int)
	start := time.Now()
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				outcomes[i] = issue(rc, rt.Obs, reqs[i])
			}
		}()
	}
	for i := range reqs {
		next <- i
	}
	close(next)
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	stats := aggregate(reqs, outcomes, elapsed)
	stats.CrossCheckOK = crossCheck(&http.Client{Timeout: 60 * time.Second}, base)

	if err := serve.WriteLoadReport(*out, "serve_load", map[string]any{
		"addr":        *addr,
		"tenants":     ids,
		"requests":    *requests,
		"seed":        *seed,
		"concurrency": *concurrency,
		"mix":         *mix,
		"req_eps":     *reqEps,
		"rows":        *rows,
		"dim":         *dim,
		"degrade":     *degrade,
	}, stats); err != nil {
		fatal(err)
	}

	fmt.Fprintf(os.Stderr, "dplearn-loadgen: %d ok, %d rejected (429), %d degraded, %d errors in %.2fs (%.1f qps, %.1f goodput)\n",
		stats.OK, stats.Rejected, stats.Degraded, stats.Errors, stats.ElapsedSeconds, stats.QPS, stats.GoodputQPS)
	fmt.Fprintf(os.Stderr, "dplearn-loadgen: %d retry attempt(s), %d response(s) replayed from the idempotency store\n",
		stats.Retries, stats.Replayed)
	fmt.Fprintf(os.Stderr, "dplearn-loadgen: latency p50=%.2fms p95=%.2fms p99=%.2fms, reject rate %.3f\n",
		stats.P50Millis, stats.P95Millis, stats.P99Millis, stats.AdmissionRejectRate)
	for _, t := range stats.ByTenant {
		fmt.Fprintf(os.Stderr, "dplearn-loadgen: tenant %s: %d requests, %d ok, %d rejected, %d errors\n",
			t.Tenant, t.Requests, t.OK, t.Rejected, t.Errors)
	}
	fmt.Fprintf(os.Stderr, "dplearn-loadgen: wrote %s\n", *out)
	if !stats.CrossCheckOK {
		fatal(fmt.Errorf("tenant cross-check FAILED"))
	}
	fmt.Fprintln(os.Stderr, "dplearn-loadgen: /v1/crosscheck passed")
	if err := rt.Close(os.Stderr); err != nil {
		fatal(err)
	}
	if stats.Errors > 0 {
		fatal(fmt.Errorf("%d request(s) failed with unexpected statuses", stats.Errors))
	}
}

// splitIDs parses the comma-separated tenant list.
func splitIDs(s string) []string {
	var ids []string
	for _, part := range strings.Split(s, ",") {
		if id := strings.TrimSpace(part); id != "" {
			ids = append(ids, id)
		}
	}
	return ids
}

// parseMix parses "fit=2,summary=1" into parallel endpoint/weight
// slices in declaration order.
func parseMix(s string) ([]string, []float64, error) {
	known := map[string]bool{"fit": true, "certify": true, "select": true, "density": true, "summary": true}
	var endpoints []string
	var weights []float64
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 || !known[kv[0]] {
			return nil, nil, fmt.Errorf("bad -mix entry %q (want fit|certify|select|density|summary=weight)", part)
		}
		w, err := strconv.ParseFloat(kv[1], 64)
		if err != nil || w < 0 {
			return nil, nil, fmt.Errorf("bad weight in -mix entry %q", part)
		}
		endpoints = append(endpoints, kv[0])
		weights = append(weights, w)
	}
	if len(endpoints) == 0 {
		return nil, nil, fmt.Errorf("empty -mix")
	}
	return endpoints, weights, nil
}

// generate pre-builds the full request stream from the master seed.
// When inject is true every request carries a TraceContext derived
// deterministically from its seed, so the trace ids a traced server
// emits are reproducible from the generator's configuration alone.
func generate(seed int64, n int, ids, endpoints []string, weights []float64, rows, dim int, reqEps float64, degrade string, inject, idem bool) ([]request, error) {
	master := rng.New(seed)
	reqs := make([]request, n)
	for i := range reqs {
		tenant := ids[master.Intn(len(ids))]
		endpoint := endpoints[master.Categorical(weights)]
		reqSeed := master.SplitSeed()
		data := synthData(rng.New(reqSeed), rows, dim)
		var payload any
		switch endpoint {
		case "fit":
			payload = serve.FitRequest{Tenant: tenant, Seed: reqSeed, Degrade: degrade, Data: data}
		case "certify":
			payload = serve.CertifyRequest{Tenant: tenant, Data: data}
		case "select":
			cands := make([]serve.CandidateJSON, 3)
			g := rng.New(reqSeed)
			for c := range cands {
				theta := make([]float64, dim)
				for j := range theta {
					theta[j] = g.Uniform(-1, 1)
				}
				cands[c] = serve.CandidateJSON{Name: fmt.Sprintf("cand-%d", c), Theta: theta}
			}
			payload = serve.SelectRequest{Tenant: tenant, Seed: reqSeed, Epsilon: reqEps, Candidates: cands, Data: data}
		case "density":
			payload = serve.DensityRequest{Tenant: tenant, Seed: reqSeed, Feature: 0, Lo: -1, Hi: 1, Epsilon: reqEps, Bins: 8, Data: data}
		case "summary":
			payload = serve.SummaryRequest{Tenant: tenant, Seed: reqSeed, Feature: 0, Lo: -1, Hi: 1, Bins: 8,
				Quantiles: []float64{0.25, 0.5, 0.75}, Epsilon: reqEps, Data: data}
		}
		body, err := json.Marshal(payload)
		if err != nil {
			return nil, err
		}
		reqs[i] = request{tenant: tenant, endpoint: endpoint, body: body}
		if idem && endpoint != "certify" {
			// Certify is free — no charge to protect. Every spending request
			// gets a key derived from its unique seed, so a retried 5xx
			// settles to the original outcome instead of a second release.
			reqs[i].key = fmt.Sprintf("lg-%d", reqSeed)
		}
		if inject {
			reqs[i].tc = obs.DeriveTraceContext(reqSeed)
		}
	}
	return reqs, nil
}

// synthData draws a labeled dataset with features in [-1, 1].
func synthData(g *rng.RNG, rows, dim int) serve.DataJSON {
	d := serve.DataJSON{X: make([][]float64, rows), Y: make([]float64, rows)}
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

// issue sends one logical request through the retry-aware client and
// measures it end to end (all attempts and backoff sleeps included —
// the latency a caller would actually wait). The request's trace
// context (when valid) travels as the traceparent header on every
// attempt, and the client's side is captured as a request span under
// the same trace id when -trace is on, so a merged client+server trace
// shows both halves of each call.
func issue(rc *client.Client, o *obs.Observer, r request) outcome {
	sp := o.RequestSpan(r.endpoint, r.tc)
	sp.SetAttr("tenant", r.tenant)
	defer sp.End()
	var header http.Header
	if r.tc.Valid() {
		header = http.Header{"Traceparent": []string{r.tc.Traceparent()}}
	}
	start := time.Now()
	res, err := rc.PostRaw(context.Background(), "/v1/"+r.endpoint, r.body, r.key, header)
	millis := float64(time.Since(start).Microseconds()) / 1000
	if err != nil {
		retries := 0
		if res != nil {
			retries = res.Retries()
		}
		return outcome{code: 0, retries: retries, millis: millis, trace: r.tc.TraceID()}
	}
	degraded := false
	if r.endpoint == "fit" && res.Status == http.StatusOK {
		var fr serve.FitResponse
		if json.Unmarshal(res.Body, &fr) == nil {
			degraded = fr.Degraded
		}
	}
	sp.SetAttr("status", res.Status)
	return outcome{code: res.Status, degraded: degraded, retries: res.Retries(),
		replayed: res.Replayed, millis: millis, trace: r.tc.TraceID()}
}

// aggregate folds the outcomes into the report stats.
func aggregate(reqs []request, outcomes []outcome, elapsed float64) *serve.LoadStats {
	stats := &serve.LoadStats{Requests: len(reqs), ElapsedSeconds: elapsed}
	latencies := make([]float64, 0, len(outcomes))
	byTenant := map[string]*serve.TenantLoadStats{}
	byEndpoint := map[string]*serve.EndpointLoadStats{}
	for i, o := range outcomes {
		r := reqs[i]
		t := byTenant[r.tenant]
		if t == nil {
			t = &serve.TenantLoadStats{Tenant: r.tenant}
			byTenant[r.tenant] = t
		}
		e := byEndpoint[r.endpoint]
		if e == nil {
			e = &serve.EndpointLoadStats{Endpoint: r.endpoint}
			byEndpoint[r.endpoint] = e
		}
		t.Requests++
		e.Requests++
		latencies = append(latencies, o.millis)
		stats.Retries += o.retries
		switch {
		case o.code >= 200 && o.code < 300:
			stats.OK++
			t.OK++
			e.OK++
			if o.degraded {
				stats.Degraded++
			}
			if o.replayed {
				stats.Replayed++
			}
		case o.code == http.StatusTooManyRequests:
			stats.Rejected++
			t.Rejected++
			e.Rejected++
		default:
			stats.Errors++
			t.Errors++
			e.Errors++
		}
	}
	if elapsed > 0 {
		stats.QPS = float64(stats.Requests) / elapsed
		stats.GoodputQPS = float64(stats.OK-stats.Replayed) / elapsed
	}
	stats.P50Millis = serve.Percentile(latencies, 50)
	stats.P95Millis = serve.Percentile(latencies, 95)
	stats.P99Millis = serve.Percentile(latencies, 99)
	stats.P95TraceID = traceAtPercentile(outcomes, 95)
	stats.P99TraceID = traceAtPercentile(outcomes, 99)
	if stats.Requests > 0 {
		stats.AdmissionRejectRate = float64(stats.Rejected) / float64(stats.Requests)
	}
	// Sorted slices keep the artifact independent of map iteration order.
	for _, t := range byTenant {
		stats.ByTenant = append(stats.ByTenant, *t)
	}
	sort.Slice(stats.ByTenant, func(i, j int) bool { return stats.ByTenant[i].Tenant < stats.ByTenant[j].Tenant })
	for _, e := range byEndpoint {
		stats.ByEndpoint = append(stats.ByEndpoint, *e)
	}
	sort.Slice(stats.ByEndpoint, func(i, j int) bool { return stats.ByEndpoint[i].Endpoint < stats.ByEndpoint[j].Endpoint })
	return stats
}

// traceAtPercentile returns the trace id of the request sitting exactly
// at the nearest-rank p-th latency percentile — the same element
// serve.Percentile reports the latency of — so the bench artifact's
// tail numbers come with the join key into the trace stream. Empty when
// traceparent injection was off.
func traceAtPercentile(outcomes []outcome, p float64) string {
	if len(outcomes) == 0 {
		return ""
	}
	idx := make([]int, len(outcomes))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return outcomes[idx[a]].millis < outcomes[idx[b]].millis })
	rank := int(math.Ceil(p / 100 * float64(len(idx))))
	if rank < 1 {
		rank = 1
	}
	return outcomes[idx[rank-1]].trace
}

// crossCheck audits every tenant's books on the server.
func crossCheck(client *http.Client, base string) bool {
	resp, err := client.Get(base + "/v1/crosscheck")
	if err != nil {
		fmt.Fprintf(os.Stderr, "dplearn-loadgen: crosscheck: %v\n", err)
		return false
	}
	defer resp.Body.Close() //dplint:ignore errdrop read-only response body
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body) //dplint:ignore errdrop best-effort diagnostic body
		fmt.Fprintf(os.Stderr, "dplearn-loadgen: crosscheck: HTTP %d: %s\n", resp.StatusCode, strings.TrimSpace(string(b)))
		return false
	}
	return true
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "dplearn-loadgen: %v\n", err)
	os.Exit(1)
}
