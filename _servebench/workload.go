package main

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/rng"
	"repro/internal/serve"
)

// The server runs with its default predictor space (-dim 2, -box 2) and
// per-fit price (-eps 0.5); quoted releases cost dplearn-loadgen's
// default -req-eps. Every tenant's budget is far above what any run can
// spend, so admission never refuses.
const (
	dim          = 2
	box          = 2.0
	fitEps       = 0.5
	reqEps       = 0.02
	bins         = 8
	tenantBudget = 1e6
	certDelta    = 0.05
)

// quantiles are the probabilities every summary request asks for.
var quantiles = []float64{0.25, 0.5, 0.75}

type endpointWeight struct {
	endpoint string
	weight   float64
}

// workload is one traffic mix against a freshly booted server. README.md
// records why each one exists.
type workload struct {
	name    string
	tenants int
	rows    int
	grid    int
	mix     []endpointWeight
	// session makes each unit a certify followed by a fit on one dataset,
	// sent back to back by the same worker.
	session bool
	// history is the number of reserve/commit pairs prefilled into each
	// tenant's WAL before every boot.
	history int
	// predicted is the layer the traced run is expected to find with the
	// largest self time.
	predicted string
}

var workloads = []workload{
	{
		name: "durable-mix", tenants: 8, rows: 24, grid: 5,
		mix:       []endpointWeight{{"fit", 2}, {"certify", 1}, {"select", 1}, {"density", 2}, {"summary", 2}},
		predicted: "wal",
	},
	{
		name: "grid-session", tenants: 2, rows: 500, grid: 30, session: true,
		predicted: "core",
	},
	{
		name: "long-history", tenants: 2, rows: 24, grid: 5, history: 20000,
		mix:       []endpointWeight{{"select", 1}, {"density", 1}, {"summary", 1}, {"budget", 1}},
		predicted: "mechanism",
	},
}

func findWorkload(name string) (*workload, error) {
	var names []string
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
		names = append(names, workloads[i].name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

func tenantID(i int) string { return fmt.Sprintf("t%d", i) }

// tenantDecl is the server's -tenants declaration.
func (w *workload) tenantDecl() string {
	parts := make([]string, w.tenants)
	for i := range parts {
		parts[i] = fmt.Sprintf("%s=%g", tenantID(i), float64(tenantBudget))
	}
	return strings.Join(parts, ",")
}

// request is one HTTP request of the stream. A nil body is the budget
// read, sent as GET /v1/budget?tenant=<tenant>.
type request struct {
	tenant   string
	endpoint string
	body     []byte
}

// spends reports whether a 2xx answer to r charged the tenant's budget.
func (r request) spends() bool {
	switch r.endpoint {
	case "fit", "select", "density", "summary":
		return true
	}
	return false
}

func (r request) method() string {
	if r.body == nil {
		return "GET"
	}
	return "POST"
}

func (r request) path() string {
	if r.endpoint == "budget" {
		return "/v1/budget?tenant=" + r.tenant
	}
	return "/v1/" + r.endpoint
}

// mixSeed derives an independent seed from (seed, i) with the splitmix64
// finalizer, so unit i has the same bytes whatever order the workers
// claim units in.
func mixSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9 + 0x632be59bd9b4e019
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// unit returns the i-th unit of the workload's request stream: one
// request, or the certify+fit pair of a session. It is a pure function
// of (seed, i).
func (w *workload) unit(seed int64, i int) ([]request, error) {
	g := rng.New(mixSeed(seed, i))
	tenant := tenantID(g.Intn(w.tenants))
	reqSeed := g.SplitSeed()
	if w.session {
		data := synthData(g, w.rows)
		cert, err := json.Marshal(serve.CertifyRequest{Tenant: tenant, Data: data})
		if err != nil {
			return nil, err
		}
		fit, err := json.Marshal(serve.FitRequest{Tenant: tenant, Seed: reqSeed, Data: data})
		if err != nil {
			return nil, err
		}
		return []request{{tenant, "certify", cert}, {tenant, "fit", fit}}, nil
	}
	weights := make([]float64, len(w.mix))
	for j, m := range w.mix {
		weights[j] = m.weight
	}
	endpoint := w.mix[g.Categorical(weights)].endpoint
	var payload any
	switch endpoint {
	case "budget":
		return []request{{tenant, endpoint, nil}}, nil
	case "fit":
		payload = serve.FitRequest{Tenant: tenant, Seed: reqSeed, Data: synthData(g, w.rows)}
	case "certify":
		payload = serve.CertifyRequest{Tenant: tenant, Data: synthData(g, w.rows)}
	case "select":
		cands := make([]serve.CandidateJSON, 3)
		for c := range cands {
			theta := make([]float64, dim)
			for j := range theta {
				theta[j] = g.Uniform(-1, 1)
			}
			cands[c] = serve.CandidateJSON{Name: fmt.Sprintf("cand-%d", c), Theta: theta}
		}
		payload = serve.SelectRequest{Tenant: tenant, Seed: reqSeed, Epsilon: reqEps, Candidates: cands, Data: synthData(g, w.rows)}
	case "density":
		payload = serve.DensityRequest{Tenant: tenant, Seed: reqSeed, Feature: 0, Lo: -1, Hi: 1, Epsilon: reqEps, Bins: bins, Data: synthData(g, w.rows)}
	case "summary":
		payload = serve.SummaryRequest{Tenant: tenant, Seed: reqSeed, Feature: 0, Lo: -1, Hi: 1, Bins: bins,
			Quantiles: quantiles, Epsilon: reqEps, Data: synthData(g, w.rows)}
	default:
		return nil, fmt.Errorf("workload %s: unknown endpoint %q", w.name, endpoint)
	}
	body, err := json.Marshal(payload)
	if err != nil {
		return nil, err
	}
	return []request{{tenant, endpoint, body}}, nil
}

// synthData draws a labeled dataset with features in [-1, 1].
func synthData(g *rng.RNG, rows int) serve.DataJSON {
	d := serve.DataJSON{X: make([][]float64, rows), Y: make([]float64, rows)}
	for i := range d.X {
		row := make([]float64, dim)
		for j := range row {
			row[j] = g.Uniform(-1, 1)
		}
		d.X[i] = row
		d.Y[i] = -1
		if g.Bernoulli(0.5) {
			d.Y[i] = 1
		}
	}
	return d
}
