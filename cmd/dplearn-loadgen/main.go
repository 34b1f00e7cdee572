// Command dplearn-loadgen runs a live dplearn-serve instance's tenants
// out of budget through the retry client, then audits the books:
//
//	dplearn-loadgen -addr localhost:8080 -tenants alpha,beta -requests 1000
//
// It checks the service; it does not measure it (`make bench-serve`
// takes goodput and latency from a _servebench run). The request stream
// — tenant, endpoint (fit, certify, select, density and summary drawn
// with weights 2, 1, 1, 2, 2), seed and 24-row dataset of every request,
// 0.02 ε quoted by each select, density and summary — is generated from
// -seed before the first byte is sent. Every request carries a W3C
// traceparent derived from its seed, and every spending request the
// Idempotency-Key "lg-<seed>". The client makes at most 3 attempts per
// request within 30 s: it backs off on a 503 and on a 429 that carries
// Retry-After (an outstanding hold may free the budget), and stops on a
// final 429, which carries none.
//
// It exits non-zero when a request settles on anything but a 2xx or a
// 429, or when /v1/crosscheck fails after the run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/serve/client"
)

// The request mix: endpoints in draw order and their weights, the ε a
// select, density or summary quotes, and the shape of every dataset
// (dim matches dplearn-serve's default -dim).
var (
	endpoints = []string{"fit", "certify", "select", "density", "summary"}
	weights   = []float64{2, 1, 1, 2, 2}
)

const (
	reqEps = 0.02
	rows   = 24
	dim    = 2
)

// request is one pre-generated unit of load.
type request struct {
	endpoint string
	body     []byte
	// key is the Idempotency-Key of a spending request ("lg-<seed>"),
	// which makes its retries exactly-once by protocol.
	key    string
	header http.Header
}

func main() {
	addr := flag.String("addr", "", "serve address host:port (required)")
	tenants := flag.String("tenants", "", "comma-separated tenant IDs to spread load across (required)")
	requests := flag.Int("requests", 1000, "total requests to issue")
	seed := flag.Int64("seed", 1, "master seed for the deterministic request stream")
	concurrency := flag.Int("concurrency", 8, "concurrent client workers")
	flag.Parse()

	if *addr == "" || *tenants == "" {
		fmt.Fprintln(os.Stderr, "dplearn-loadgen: -addr and -tenants are required")
		flag.Usage()
		os.Exit(2)
	}
	ids := strings.FieldsFunc(*tenants, func(r rune) bool { return r == ',' || r == ' ' })
	if len(ids) == 0 {
		fatal(fmt.Errorf("no tenant IDs in %q", *tenants))
	}
	reqs, err := generate(*seed, *requests, ids)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "dplearn-loadgen: %d requests across %d tenant(s) against http://%s\n",
		len(reqs), len(ids), *addr)

	base := "http://" + *addr
	// One client shared by all workers: the breaker and the jitter
	// stream are fleet-wide, so a crashed server is backed off by
	// everyone at once.
	rc := client.New(client.Config{
		BaseURL:       base,
		MaxAttempts:   3,
		Deadline:      30 * time.Second,
		MaxRetryAfter: 500 * time.Millisecond,
		Seed:          *seed,
	})
	results := make([]*client.Result, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	next := make(chan int)
	start := time.Now()
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				r := reqs[i]
				results[i], errs[i] = rc.PostRaw(context.Background(), "/v1/"+r.endpoint, r.body, r.key, r.header)
			}
		}()
	}
	for i := range reqs {
		next <- i
	}
	close(next)
	wg.Wait()
	elapsed := time.Since(start)

	var ok, refused, final, retries, unexpected int
	for i, res := range results {
		if errs[i] != nil {
			unexpected++
			fmt.Fprintf(os.Stderr, "dplearn-loadgen: request %d (%s): %v\n", i, reqs[i].endpoint, errs[i])
			continue
		}
		retries += res.Attempts - 1
		switch {
		case res.Status >= 200 && res.Status < 300:
			ok++
		case res.Status == http.StatusTooManyRequests:
			refused++
			var er serve.ErrorResponse
			if json.Unmarshal(res.Body, &er) == nil && er.Code == "budget_exhausted" {
				final++
			}
		default:
			unexpected++
			fmt.Fprintf(os.Stderr, "dplearn-loadgen: request %d (%s): HTTP %d: %s\n",
				i, reqs[i].endpoint, res.Status, strings.TrimSpace(string(res.Body)))
		}
	}
	fmt.Fprintf(os.Stderr, "dplearn-loadgen: %d ok, %d refused (%d final), %d unexpected, %d retries in %.2fs\n",
		ok, refused, final, unexpected, retries, elapsed.Seconds())
	if err := crossCheck(&http.Client{Timeout: 60 * time.Second}, base); err != nil {
		fatal(fmt.Errorf("crosscheck: %w", err))
	}
	fmt.Fprintln(os.Stderr, "dplearn-loadgen: /v1/crosscheck passed")
	if unexpected > 0 {
		fatal(fmt.Errorf("%d request(s) settled on an unexpected status", unexpected))
	}
}

// generate pre-builds the full request stream from the master seed.
// Every request carries a traceparent derived from its own seed, so the
// trace ids a traced server emits are reproducible from -seed alone.
func generate(seed int64, n int, ids []string) ([]request, error) {
	master := rng.New(seed)
	reqs := make([]request, n)
	for i := range reqs {
		tenant := ids[master.Intn(len(ids))]
		endpoint := endpoints[master.Categorical(weights)]
		reqSeed := master.SplitSeed()
		data := synthData(rng.New(reqSeed))
		var payload any
		switch endpoint {
		case "fit":
			payload = serve.FitRequest{Tenant: tenant, Seed: reqSeed, Data: data}
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
		reqs[i] = request{endpoint: endpoint, body: body,
			header: http.Header{"Traceparent": []string{obs.DeriveTraceContext(reqSeed).Traceparent()}}}
		if endpoint != "certify" {
			// Certify is free: there is no charge for a key to protect.
			reqs[i].key = fmt.Sprintf("lg-%d", reqSeed)
		}
	}
	return reqs, nil
}

// synthData draws a labeled dataset with features in [-1, 1].
func synthData(g *rng.RNG) serve.DataJSON {
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

// crossCheck audits every tenant's books on the server.
func crossCheck(c *http.Client, base string) error {
	resp, err := c.Get(base + "/v1/crosscheck")
	if err != nil {
		return err
	}
	defer resp.Body.Close() //dplint:ignore errdrop read-only response body
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body) //dplint:ignore errdrop best-effort diagnostic body
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "dplearn-loadgen: %v\n", err)
	os.Exit(1)
}
