package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/learn"
	"repro/internal/mechanism"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/wal"
)

// programLayers are the layers a traced request is split into; the
// benchmark's own glue is layer "bench" and in-process handler replays
// are layer "replay".
var programLayers = []string{"serve", "wal", "mechanism", "core"}

// releaseSpans names the span around each endpoint's release call.
var releaseSpans = map[string]string{
	"fit": "core.fit", "certify": "core.certify", "select": "learn.select",
	"density": "core.density", "summary": "core.summary",
}

// span is one timed call the benchmark made into a layer. Spans of one
// unit of the stream share Trace; a root span has Parent 0.
type span struct {
	Trace  int    `json:"trace"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Worker int    `json:"worker"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps one worker's spans in memory until the run ends. A nil
// tracer records nothing.
type tracer struct {
	worker int
	epoch  time.Time
	spans  []span
}

func (t *tracer) begin(trace int, parent int64, name, layer string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{
		Trace: trace, ID: int64(t.worker)<<40 | int64(len(t.spans)+1), Parent: parent,
		Name: name, Layer: layer, Worker: t.worker, Start: time.Since(t.epoch).Nanoseconds(),
	})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t != nil {
		t.spans[i].End = time.Since(t.epoch).Nanoseconds()
	}
}

func (t *tracer) id(i int) int64 {
	if t == nil {
		return 0
	}
	return t.spans[i].ID
}

// selfTimes returns each layer's self time in ns: over its spans, the
// span's duration minus the part of it that its child spans cover.
func selfTimes(spans []span) map[string]int64 {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]int64)
	for _, s := range spans {
		out[s.Layer] += s.End - s.Start - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's, so overlapping children count once.
func covered(parent span, kids []span) int64 {
	type interval struct{ lo, hi int64 }
	var ivs []interval
	for _, k := range kids {
		if lo, hi := max(k.Start, parent.Start), min(k.End, parent.End); lo < hi {
			ivs = append(ivs, interval{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total int64
	for i := 0; i < len(ivs); {
		lo, hi := ivs[i].lo, ivs[i].hi
		for i++; i < len(ivs) && ivs[i].lo <= hi; i++ {
			hi = max(hi, ivs[i].hi)
		}
		total += hi - lo
	}
	return total
}

// dominantLayer is the program layer with the largest self time.
func dominantLayer(self map[string]int64) string {
	best := programLayers[0]
	for _, l := range programLayers[1:] {
		if self[l] > self[best] {
			best = l
		}
	}
	return best
}

// layerTenant is the benchmark's own instance of one tenant's layers,
// configured as dplearn-serve configures them.
type layerTenant struct {
	acct *mechanism.Accountant
	// learner spends nothing itself: admission and commit are timed as
	// spans of their own around the release.
	learner *core.Learner
	log     *wal.Log
}

// layerRun holds the layers the traced run calls directly, plus an
// in-process server whose handler it replays each request through.
type layerRun struct {
	w       *workload
	tenants map[string]*layerTenant
	srv     *serve.Server
	// recovery is the time wal.Open, wal.Replay and the SpendDetail
	// replay took over every tenant's prefilled log.
	recovery time.Duration
}

func newLayerRun(w *workload, walDir, replayWALDir string) (*layerRun, error) {
	thetas := learn.NewGrid(-box, box, dim, w.grid).Thetas()
	lr := &layerRun{w: w, tenants: make(map[string]*layerTenant, w.tenants)}
	for i := 0; i < w.tenants; i++ {
		acct := &mechanism.Accountant{}
		if err := acct.SetBudget(mechanism.Guarantee{Epsilon: tenantBudget}); err != nil {
			return nil, errors.Join(err, lr.close())
		}
		learner, err := core.NewLearner(core.Config{Loss: learn.ZeroOneLoss{}, Thetas: thetas, Epsilon: fitEps, Delta: certDelta})
		if err != nil {
			return nil, errors.Join(err, lr.close())
		}
		start := time.Now()
		log, err := recoverTenant(filepath.Join(walDir, tenantID(i)+".wal"), acct)
		lr.recovery += time.Since(start)
		if err != nil {
			return nil, errors.Join(err, lr.close())
		}
		lr.tenants[tenantID(i)] = &layerTenant{acct: acct, learner: learner, log: log}
	}
	cfgs, err := serve.ParseTenantBudgets(w.tenantDecl(), core.DegradeRefuse)
	if err != nil {
		return nil, errors.Join(err, lr.close())
	}
	lr.srv, err = serve.New(serve.Config{
		Tenants:  cfgs,
		Learner:  serve.LearnerSpec{Dim: dim, GridPoints: w.grid, Box: box, Epsilon: fitEps, Delta: certDelta},
		Observer: &obs.Observer{Metrics: obs.NewRegistry(), Clock: &obs.LogicalClock{}},
		WALDir:   replayWALDir,
	})
	if err != nil {
		return nil, errors.Join(err, lr.close())
	}
	return lr, nil
}

// recoverTenant is the server's boot-time recovery called directly:
// open the log, replay it, and re-spend every committed charge.
func recoverTenant(path string, acct *mechanism.Accountant) (*wal.Log, error) {
	l, recs, err := wal.Open(path)
	if err != nil {
		return nil, err
	}
	for _, ch := range wal.Replay(recs).Charges() {
		acct.SpendDetail(mechanism.Guarantee{Epsilon: ch.Epsilon, Delta: ch.Delta},
			mechanism.SpendMeta{Mechanism: ch.Mechanism, Sensitivity: ch.Sensitivity, Outcomes: ch.Outcomes})
	}
	return l, nil
}

func (lr *layerRun) close() error {
	var errs []error
	for _, t := range lr.tenants {
		errs = append(errs, t.log.Close())
	}
	if lr.srv != nil {
		lr.srv.CloseWALs()
	}
	return errors.Join(errs...)
}

// historyLen is the mean number of releases on the tenants' books.
func (lr *layerRun) historyLen() float64 {
	var n int
	for _, t := range lr.tenants {
		n += t.acct.Count()
	}
	return float64(n) / float64(len(lr.tenants))
}

// decompose runs r through the layers in the order the server runs it —
// decode, WAL reserve, admission, release, commit, encode, WAL commit —
// each call under its own span, all children of one "request" span.
func (lr *layerRun) decompose(tr *tracer, trace int, r request) error {
	root := tr.begin(trace, 0, "request", "bench")
	defer tr.end(root)
	p := tr.id(root)
	t := lr.tenants[r.tenant]
	if r.endpoint == "budget" {
		s := tr.begin(trace, p, "mechanism.read", "mechanism")
		rem, _ := t.acct.Remaining()
		st := serve.BudgetStatus{Tenant: r.tenant, BudgetEpsilon: tenantBudget, SpentEpsilon: t.acct.BasicComposition().Epsilon,
			RemainingEpsilon: rem.Epsilon, Releases: t.acct.Count(), Reserved: t.acct.Reserved(), Degrade: core.DegradeRefuse.String()}
		tr.end(s)
		_, err := encode(tr, trace, p, st)
		return err
	}
	s := tr.begin(trace, p, "serve.decode", "serve")
	in, d, err := decodeRequest(r)
	tr.end(s)
	if err != nil {
		return err
	}
	if r.endpoint == "certify" {
		s = tr.begin(trace, p, releaseSpans[r.endpoint], "core")
		cert, err := t.learner.CertifyCtx(context.Background(), d)
		tr.end(s)
		if err != nil {
			return err
		}
		_, err = encode(tr, trace, p, serve.CertifyResponse{Certificate: certificateJSON(cert)})
		return err
	}
	seed, eps := price(in)
	s = tr.begin(trace, p, "wal.reserve", "wal")
	tx, err := t.log.Begin(wal.Intent{Endpoint: r.endpoint, Seed: seed, Epsilon: eps})
	tr.end(s)
	if err != nil {
		return err
	}
	defer tx.Release()
	s = tr.begin(trace, p, "mechanism.admit", "mechanism")
	res, err := t.acct.Reserve(mechanism.Guarantee{Epsilon: eps})
	tr.end(s)
	if err != nil {
		return err
	}
	defer res.Release()
	s = tr.begin(trace, p, releaseSpans[r.endpoint], "core")
	out, err := release(t, in, d)
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.begin(trace, p, "mechanism.commit", "mechanism")
	res.Commit(mechanism.SpendMeta{Mechanism: r.endpoint})
	t.acct.BasicComposition() // the server refreshes its spend gauge after every commit
	tr.end(s)
	body, err := encode(tr, trace, p, out)
	if err != nil {
		return err
	}
	s = tr.begin(trace, p, "wal.commit", "wal")
	err = tx.Commit(mechanism.SpendMeta{}, wal.Outcome{Status: http.StatusOK, Response: body,
		Charges: []wal.Charge{{Mechanism: r.endpoint, Epsilon: eps}}})
	tr.end(s)
	return err
}

func encode(tr *tracer, trace int, parent int64, v any) ([]byte, error) {
	s := tr.begin(trace, parent, "serve.encode", "serve")
	defer tr.end(s)
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// decodeRequest parses r's body into its serve wire type and converts
// the dataset, as the server's handlers do.
func decodeRequest(r request) (any, *dataset.Dataset, error) {
	var v any
	var data *serve.DataJSON
	switch r.endpoint {
	case "fit":
		q := &serve.FitRequest{}
		v, data = q, &q.Data
	case "certify":
		q := &serve.CertifyRequest{}
		v, data = q, &q.Data
	case "select":
		q := &serve.SelectRequest{}
		v, data = q, &q.Data
	case "density":
		q := &serve.DensityRequest{}
		v, data = q, &q.Data
	case "summary":
		q := &serve.SummaryRequest{}
		v, data = q, &q.Data
	default:
		return nil, nil, fmt.Errorf("decode: unknown endpoint %q", r.endpoint)
	}
	if err := json.Unmarshal(r.body, v); err != nil {
		return nil, nil, err
	}
	d := &dataset.Dataset{Examples: make([]dataset.Example, len(data.X))}
	for i, row := range data.X {
		d.Examples[i] = dataset.Example{X: append([]float64(nil), row...), Y: data.Y[i]}
	}
	return v, d, nil
}

// price returns a spending request's seed and quoted ε.
func price(v any) (int64, float64) {
	switch q := v.(type) {
	case *serve.FitRequest:
		return q.Seed, fitEps
	case *serve.SelectRequest:
		return q.Seed, q.Epsilon
	case *serve.DensityRequest:
		return q.Seed, q.Epsilon
	case *serve.SummaryRequest:
		return q.Seed, q.Epsilon
	}
	return 0, 0
}

// release calls the facade function behind a spending endpoint with no
// accountant, since admission and commit are timed separately.
func release(t *layerTenant, v any, d *dataset.Dataset) (any, error) {
	ctx := context.Background()
	switch q := v.(type) {
	case *serve.FitRequest:
		fit, err := t.learner.FitPolicyCtx(ctx, d, rng.New(q.Seed), core.DegradeRefuse)
		if err != nil {
			return nil, err
		}
		return serve.FitResponse{Theta: fit.Theta, Index: fit.Index, Degraded: fit.Degraded,
			Policy: fit.Policy.String(), Certificate: certificateJSON(fit.Certificate)}, nil
	case *serve.SelectRequest:
		cands := make([]learn.Candidate, len(q.Candidates))
		for i, c := range q.Candidates {
			cands[i] = learn.Candidate{Name: c.Name, Theta: c.Theta}
		}
		c, err := learn.PrivateSelect(cands, learn.ZeroOneLoss{}, d, q.Epsilon, nil, rng.New(q.Seed))
		return serve.SelectResponse{Name: c.Name, Theta: c.Theta, Epsilon: q.Epsilon}, err
	case *serve.DensityRequest:
		est, err := core.PrivateHistogramDensityCtx(ctx, d, q.Feature, q.Bins, q.Lo, q.Hi, q.Epsilon, nil, rng.New(q.Seed))
		if err != nil {
			return nil, err
		}
		return serve.DensityResponse{Lo: est.Lo, Hi: est.Hi, Bins: len(est.Density), Density: est.Density, Epsilon: q.Epsilon}, nil
	case *serve.SummaryRequest:
		sum, err := core.ReleaseSummaryCtx(ctx, d, core.SummaryConfig{Feature: q.Feature, Lo: q.Lo, Hi: q.Hi,
			Bins: q.Bins, Quantiles: q.Quantiles, Epsilon: q.Epsilon}, rng.New(q.Seed))
		if err != nil {
			return nil, err
		}
		qs := make([]serve.QuantilePoint, 0, len(sum.Quantiles))
		for p, x := range sum.Quantiles {
			qs = append(qs, serve.QuantilePoint{P: p, Value: x})
		}
		sort.Slice(qs, func(i, j int) bool { return qs[i].P < qs[j].P })
		return serve.SummaryResponse{Count: sum.Count, Mean: sum.Mean, Quantiles: qs, Histogram: sum.Histogram,
			Lo: sum.Lo, Hi: sum.Hi, Epsilon: q.Epsilon}, nil
	}
	return nil, fmt.Errorf("release: unexpected request %T", v)
}

func certificateJSON(c core.Certificate) serve.CertificateJSON {
	return serve.CertificateJSON{Epsilon: c.Privacy.Epsilon, Delta: c.Privacy.Delta, Lambda: c.Lambda,
		RiskBound: c.RiskBound, Confidence: c.Delta, ExpEmpRisk: c.ExpEmpRisk, KL: c.KL}
}

// replay sends r through the in-process server's handler with a
// recorder: the server's whole cost for r without loopback, HTTP
// parsing or the client.
func (lr *layerRun) replay(tr *tracer, trace int, r request) error {
	req := httptest.NewRequest(r.method(), r.path(), bytes.NewReader(r.body))
	rec := httptest.NewRecorder()
	s := tr.begin(trace, 0, "serve.handler", "replay")
	lr.srv.Handler().ServeHTTP(rec, req)
	tr.end(s)
	if rec.Code/100 != 2 {
		return fmt.Errorf("replay %s %s: HTTP %d: %s", r.method(), r.path(), rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	return checkBody(r, rec.Body.Bytes())
}

// traceStats is what the traced run measured.
type traceStats struct {
	spans []span
	// Units alternate between decomposition with spans (even units) and
	// without (odd units); the wall time of each half per request shows
	// what recording spans costs.
	tracedNS, untracedNS     int64
	tracedReqs, untracedReqs int
}

// runTraced replays the workload's stream from unit 0 through the
// layers for d with workers goroutines, as the closed loop does.
func runTraced(lr *layerRun, seed int64, d time.Duration) (*traceStats, error) {
	var next atomic.Int64
	epoch := time.Now()
	deadline := epoch.Add(d)
	per := make([]traceStats, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for k := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := &tracer{worker: k, epoch: epoch}
			errs[k] = lr.traceWorker(tr, &per[k], seed, &next, deadline)
			per[k].spans = tr.spans
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	total := &traceStats{}
	for _, st := range per {
		total.spans = append(total.spans, st.spans...)
		total.tracedNS += st.tracedNS
		total.untracedNS += st.untracedNS
		total.tracedReqs += st.tracedReqs
		total.untracedReqs += st.untracedReqs
	}
	return total, nil
}

func (lr *layerRun) traceWorker(tr *tracer, st *traceStats, seed int64, next *atomic.Int64, deadline time.Time) error {
	for time.Now().Before(deadline) {
		i := int(next.Add(1) - 1)
		reqs, err := lr.w.unit(seed, i)
		if err != nil {
			return err
		}
		unitTracer := tr
		if i%2 == 1 {
			unitTracer = nil
		}
		start := time.Now()
		for _, r := range reqs {
			if err := lr.decompose(unitTracer, i, r); err != nil {
				return fmt.Errorf("unit %d %s: %w", i, r.endpoint, err)
			}
		}
		elapsed := time.Since(start).Nanoseconds()
		if unitTracer != nil {
			st.tracedNS += elapsed
			st.tracedReqs += len(reqs)
		} else {
			st.untracedNS += elapsed
			st.untracedReqs += len(reqs)
		}
		for _, r := range reqs {
			if err := lr.replay(tr, i, r); err != nil {
				return fmt.Errorf("unit %d: %w", i, err)
			}
		}
	}
	return nil
}

// writeSpans writes the spans as NDJSON, one span per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close() // the encode error supersedes
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error supersedes
		return err
	}
	return f.Close()
}

// unitMicros returns, per unit of the stream, the summed duration (µs)
// of its spans named name.
func unitMicros(spans []span, name string) []float64 {
	byUnit := make(map[int]float64)
	for _, s := range spans {
		if s.Name == name {
			byUnit[s.Trace] += float64(s.End-s.Start) / 1e3
		}
	}
	out := make([]float64, 0, len(byUnit))
	for _, d := range byUnit {
		out = append(out, d)
	}
	return out
}

// spanMicros returns the durations (µs) of the spans named name.
func spanMicros(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}
