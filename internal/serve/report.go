package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// LoadStats aggregates one load-generation run against a live service.
// Latencies are wall-clock milliseconds (the one place the repo
// measures real time — load benchmarks characterize the machine, not
// the algorithm, so they are exempt from the LogicalClock determinism
// contract).
type LoadStats struct {
	// Requests is the total number of requests issued.
	Requests int `json:"requests"`
	// OK counts 2xx responses.
	OK int `json:"ok"`
	// Rejected counts 429 admission rejections.
	Rejected int `json:"rejected"`
	// Degraded counts 2xx fits answered by a degraded release.
	Degraded int `json:"degraded"`
	// Errors counts every other non-2xx response.
	Errors int `json:"errors"`
	// Retries counts extra HTTP attempts beyond each request's first
	// (backoff on 429/503 honoring Retry-After, keyed retries of 5xx).
	Retries int `json:"retries"`
	// Replayed counts 2xx responses served from the server's durable
	// idempotency store rather than a fresh release — retries that were
	// answered without spending ε a second time.
	Replayed int `json:"replayed"`
	// ElapsedSeconds is the wall-clock span of the run.
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	// QPS is Requests / ElapsedSeconds.
	QPS float64 `json:"qps"`
	// GoodputQPS is fresh successful releases per second: (OK − Replayed)
	// / ElapsedSeconds. Under retry pressure QPS counts traffic; goodput
	// counts work the budget actually paid for.
	GoodputQPS float64 `json:"goodput_qps"`
	// P50/P95/P99 are latency percentiles in milliseconds.
	P50Millis float64 `json:"p50_ms"`
	P95Millis float64 `json:"p95_ms"`
	P99Millis float64 `json:"p99_ms"`
	// P95TraceID/P99TraceID name the trace ids of the requests sitting
	// exactly at the nearest-rank p95/p99 latencies, when the load
	// generator injected traceparent headers — the join key from a tail
	// percentile in this artifact to its span waterfall in the trace
	// stream (dplearn-trace -trace <id>).
	P95TraceID string `json:"p95_trace_id,omitempty"`
	P99TraceID string `json:"p99_trace_id,omitempty"`
	// AdmissionRejectRate is Rejected / Requests.
	AdmissionRejectRate float64 `json:"admission_reject_rate"`
	// ByTenant breaks the mix down per tenant, sorted by ID.
	ByTenant []TenantLoadStats `json:"by_tenant,omitempty"`
	// ByEndpoint breaks the mix down per endpoint, sorted by name.
	ByEndpoint []EndpointLoadStats `json:"by_endpoint,omitempty"`
	// CrossCheckOK reports that /v1/crosscheck passed for every tenant at the
	// end of the run.
	CrossCheckOK bool `json:"crosscheck_ok"`
}

// TenantLoadStats is the per-tenant slice of a run.
type TenantLoadStats struct {
	Tenant   string `json:"tenant"`
	Requests int    `json:"requests"`
	OK       int    `json:"ok"`
	Rejected int    `json:"rejected"`
	Errors   int    `json:"errors"`
}

// EndpointLoadStats is the per-endpoint slice of a run.
type EndpointLoadStats struct {
	Endpoint string `json:"endpoint"`
	Requests int    `json:"requests"`
	OK       int    `json:"ok"`
	Rejected int    `json:"rejected"`
	Errors   int    `json:"errors"`
}

// Percentile returns the p-th percentile (0 < p ≤ 100) of samples by
// the nearest-rank method, NaN on empty input. Sorts a copy.
func Percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 || math.IsNaN(p) || p <= 0 || p > 100 {
		return math.NaN()
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// LoadReport is the BENCH_serve.json artifact envelope: run identity
// and configuration beside the measured stats, flattened so downstream
// tooling finds qps/p50_ms/p95_ms/p99_ms at the top of "results".
type LoadReport struct {
	Name   string         `json:"name"`
	Config map[string]any `json:"config,omitempty"`
	// Results embeds LoadStats (qps, p50_ms, p95_ms, p99_ms,
	// admission_reject_rate, ...).
	Results *LoadStats `json:"results"`
}

// WriteLoadReport writes the run as an indented, diffable BENCH_*.json
// artifact.
func WriteLoadReport(path, name string, config map[string]any, stats *LoadStats) error {
	b, err := json.MarshalIndent(LoadReport{Name: name, Config: config, Results: stats}, "", "  ")
	if err != nil {
		return fmt.Errorf("serve: bench artifact: %w", err)
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("serve: bench artifact dir: %w", err)
		}
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
