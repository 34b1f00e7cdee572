// Package serve is the multi-tenant DP release service layer: it
// exposes the facade (Fit / Certify / PrivateSelect / density and
// summary releases) as JSON-over-HTTP endpoints to many concurrent
// tenants, each with a dedicated Accountant enforcing a hard (ε, δ)
// budget.
//
// The correctness surface is per-tenant budget accounting under
// concurrent load: every ε-spending request rides the accountant's
// two-phase Reserve/Commit/Release protocol, so admission control is
// decided on the canonical composition of spends plus outstanding
// reservations (no TOCTOU window), a request the budget cannot admit is
// rejected with 429 (or degraded per the request's
// refuse/fallback/widen policy), and a request that fails mid-release —
// error, cancellation, or panic — releases its reservation instead of
// committing, so the books never hold a half-spend. A 429 the committed
// spends alone cause is final: it carries no Retry-After and the code
// "budget_exhausted". One that an outstanding hold could still clear
// carries the Retry-After hint. With a write-ahead log, each tenant's
// accountant is audited bit for bit against the log's books (the
// dynamic analogue of acctlint); the trace's ledger lines are the
// offline witness (dplearn-trace -check).
//
// Isolation between tenants is structural: separate accountants,
// ledgers, learners, and fallback caches. One tenant exhausting its
// budget changes nothing for another.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/faults"
	"repro/internal/learn"
	"repro/internal/mechanism"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/rng"
)

// maxBody bounds a request payload (datasets travel in the body).
const maxBody = 8 << 20

// requestTickBuckets are the latency-histogram bounds in logical clock
// ticks (deterministic under LogicalClock; see the obs determinism
// contract). The low end is deliberately fine-grained: a spending
// request's span tree costs tens of clock reads, so the ≥16-tick slots
// form the exemplar-carrying tail (Histogram.tailBucket) where slow
// traced requests pin their trace ids.
var requestTickBuckets = []float64{1, 4, 8, 16, 64, 256, 1024}

// Config assembles one service instance.
type Config struct {
	// Tenants declares the isolation domains (at least one).
	Tenants []TenantConfig
	// Learner shapes every tenant's private learner (zero values take
	// the LearnerSpec defaults).
	Learner LearnerSpec
	// Observer supplies the metrics registry and clock shared by all
	// tenants; nil disables metrics and timing (still fully functional).
	Observer *obs.Observer
	// Faults optionally injects deterministic failures into in-flight
	// requests (chaos battery only; nil in production). Faults are keyed
	// by the request's Seed, so a chaos run replays exactly.
	Faults *faults.Schedule
	// Workers caps the parallel fan-out of learner hot paths (0 = all
	// CPUs). Results are bit-identical for every setting.
	Workers int
	// RetryAfterSeconds is the Retry-After hint on 503 responses and on
	// the 429s an outstanding hold could still clear (default 1). A
	// final 429 carries none.
	RetryAfterSeconds int
	// Pprof mounts /debug/pprof on the service mux (opt-in, as in the
	// CLIs).
	Pprof bool
	// AccessLog optionally receives one NDJSON "access" line per /v1
	// request: trace id, tenant, endpoint, status, quoted vs. spent ε,
	// reservation outcome, and duration. Nil disables access logging.
	AccessLog *obs.AccessLog
	// WALDir, when set, attaches a write-ahead privacy ledger per tenant
	// under this directory (<id>.wal): budget state becomes
	// crash-recoverable (New replays surviving logs and rebuilds each
	// accountant bit-identically before serving) and idempotency-keyed
	// responses replay across restarts. Empty disables durability; the
	// request flow is identical either way.
	WALDir string
}

// Server is one live service instance. Safe for concurrent use; build
// with New.
type Server struct {
	cfg  Config
	spec LearnerSpec
	reg  *Registry
	obs  *obs.Observer
	mux  *http.ServeMux

	draining atomic.Bool

	inflight *obs.Gauge
	panics   *obs.Counter

	// recovery holds the per-tenant WAL recovery summaries from boot.
	recovery []RecoveryReport

	// testHookInFlight, when set (tests only), runs at a spending
	// request's in-flight point (see inFlight) — the drain test parks a
	// request here.
	testHookInFlight func(endpoint string)
}

// parallelOptions builds the engine options threaded into every learner
// hot path.
func parallelOptions(workers int, o *obs.Observer) parallel.Options {
	return parallel.Options{Workers: workers, Obs: o}
}

// New validates the config and builds the service.
func New(cfg Config) (*Server, error) {
	if cfg.RetryAfterSeconds <= 0 {
		cfg.RetryAfterSeconds = 1
	}
	spec := cfg.Learner.withDefaults()
	reg, err := newRegistry(cfg.Tenants, spec, cfg.Observer, cfg.Workers)
	if err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, spec: spec, reg: reg, obs: cfg.Observer}
	if cfg.WALDir != "" {
		// Recovery before traffic: replay each tenant's surviving WAL,
		// rebuild its accountant bit-identically (audited against the
		// log's books), restore idempotency outcomes. A tenant whose
		// books cannot be audited fails the boot.
		if err := s.recoverWALs(reg.Tenants()); err != nil {
			return nil, err
		}
	}
	mreg := s.obs.Reg()
	s.inflight = mreg.Gauge("dplearn_serve_inflight_requests",
		"requests currently being served")
	s.panics = mreg.Counter("dplearn_serve_panics_total",
		"handler panics recovered into 500 responses")
	s.routes()
	return s, nil
}

// Tenants exposes the tenant registry (the CLI audits it at drain).
func (s *Server) Tenants() *Registry { return s.reg }

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// BeginDrain flips the service into draining: every subsequent /v1
// request is refused with 503 + Retry-After while in-flight requests
// run to completion (commit or release — never half-spend). It also
// refreshes the per-tenant spend gauges so the final /metrics scrape
// reflects the canonical composition.
func (s *Server) BeginDrain() {
	s.draining.Store(true)
	for _, t := range s.reg.Tenants() {
		t.refreshSpent()
	}
}

// routes assembles the mux.
func (s *Server) routes() {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/fit", s.instrument("fit", http.MethodPost, s.handleFit))
	mux.HandleFunc("/v1/certify", s.instrument("certify", http.MethodPost, s.handleCertify))
	mux.HandleFunc("/v1/select", s.instrument("select", http.MethodPost, s.handleSelect))
	mux.HandleFunc("/v1/density", s.instrument("density", http.MethodPost, s.handleDensity))
	mux.HandleFunc("/v1/summary", s.instrument("summary", http.MethodPost, s.handleSummary))
	mux.HandleFunc("/v1/budget", s.instrument("budget", http.MethodGet, s.handleBudget))
	mux.HandleFunc("/v1/tenants", s.instrument("tenants", http.MethodGet, s.handleTenants))
	mux.HandleFunc("/v1/crosscheck", s.instrument("crosscheck", http.MethodGet, s.handleCrossCheck))
	mux.HandleFunc("/healthz", s.handleHealthz)
	if mreg := s.obs.Reg(); mreg != nil {
		omux := obs.NewServeMux(mreg, s.cfg.Pprof)
		mux.Handle("/metrics", omux)
		mux.Handle("/debug/", omux)
	}
	s.mux = mux
}

// statusRecorder captures the response code for metrics.
type statusRecorder struct {
	http.ResponseWriter
	code    int
	written bool
}

func (sr *statusRecorder) WriteHeader(code int) {
	if !sr.written {
		sr.code = code
		sr.written = true
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	if !sr.written {
		sr.code = http.StatusOK
		sr.written = true
	}
	return sr.ResponseWriter.Write(b)
}

// instrument wraps a handler with the service middleware: the draining
// gate (503 + Retry-After), method enforcement, panic recovery (a
// panicking release's deferred reservation cleanup runs during the
// unwind, so recovery only converts the unwound stack into a 500),
// request metrics (count by endpoint/code, in-flight gauge, latency in
// logical ticks), and request-scoped tracing — a W3C traceparent is
// adopted (or the request stays untraced), a request span is opened and
// carried through the context into the facade, the mechanisms, and the
// parallel engine's chunks, and one access-log line joins the request
// to the ε it spent. The request's charge scope rides the same context:
// the accountant appends every spend the request commits to it, and the
// access line, its outcome and the WAL commit all read that one record.
//
// Determinism: the span is created whether or not a tracer is wired
// (silent spans consume identical clock reads), and exemplar attachment
// is keyed on the *request's* traceparent, never on server wiring — so
// every dplearn_serve_ metric stays a pure function of the request
// history, byte-identical with tracing on and off.
func (s *Server) instrument(endpoint, method string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w}
		tc, _ := obs.ParseTraceparent(r.Header.Get("traceparent")) // malformed → untraced
		sp := s.obs.RequestSpan(endpoint, tc)
		sp.SetAttr("endpoint", endpoint)
		ai := &accessInfo{}
		r = r.WithContext(withAccessInfo(obs.ContextWithSpan(r.Context(), sp), ai))
		start := s.obs.Now()
		s.inflight.Add(1)
		defer func() {
			if p := recover(); p != nil {
				s.panics.Inc()
				if !rec.written {
					s.writeJSON(rec, http.StatusInternalServerError,
						ErrorResponse{Error: fmt.Sprintf("internal panic: %v", p)})
				}
			}
			s.inflight.Add(-1)
			dur := s.obs.Now() - start
			sp.SetAttr("status", rec.code)
			sp.End()
			spent, outcome := ai.settle(rec.code)
			mreg := s.obs.Reg()
			mreg.Counter("dplearn_serve_requests_total",
				"requests served by endpoint and status code",
				"endpoint", endpoint, "code", strconv.Itoa(rec.code)).Inc()
			mreg.Histogram("dplearn_serve_request_ticks",
				"request duration in logical clock ticks", requestTickBuckets,
				"endpoint", endpoint).ObserveExemplar(float64(dur), tc.TraceID())
			var span uint64
			if tc.Valid() {
				span = sp.ID()
			}
			s.cfg.AccessLog.Record(obs.AccessRecord{
				Trace:          tc.TraceID(),
				Span:           span,
				Tenant:         ai.tenant,
				Endpoint:       endpoint,
				Status:         rec.code,
				QuotedEpsilon:  ai.quoted,
				SpentEpsilon:   spent,
				Outcome:        outcome,
				IdempotencyKey: ai.idemKey,
				Start:          start,
				Duration:       dur,
			})
		}()
		if s.draining.Load() {
			w.Header().Set("Retry-After", strconv.Itoa(s.cfg.RetryAfterSeconds))
			s.writeJSON(rec, http.StatusServiceUnavailable,
				ErrorResponse{Error: "serve: draining, not accepting new requests"})
			return
		}
		if r.Method != method {
			s.writeJSON(rec, http.StatusMethodNotAllowed,
				ErrorResponse{Error: fmt.Sprintf("serve: %s requires %s", r.URL.Path, method)})
			return
		}
		r.Body = http.MaxBytesReader(w, r.Body, maxBody)
		h(rec, r)
	}
}

// writeJSON marshals v and writes it with the given status. The body is
// rendered before the header so a marshal failure can still become a
// clean 500.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		http.Error(w, `{"error":"serve: response encoding failed"}`, http.StatusInternalServerError)
		return
	}
	s.writeRaw(w, status, buf.Bytes())
}

// writeRaw writes pre-encoded JSON response bytes.
func (s *Server) writeRaw(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if _, err := w.Write(body); err != nil {
		// The client went away mid-response; there is no one to tell.
		return
	}
}

// status maps a handler error to its HTTP status.
func status(err error) int {
	switch {
	case errors.Is(err, mechanism.ErrBudgetExhausted):
		return http.StatusTooManyRequests
	case errors.Is(err, errUnknownTenant):
		return http.StatusNotFound
	case errors.Is(err, errDuplicateKey):
		return http.StatusConflict
	case errors.Is(err, errBadRequest),
		errors.Is(err, core.ErrBadConfig),
		errors.Is(err, core.ErrNonFiniteInput):
		return http.StatusBadRequest
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// writeError renders err with its mapped status, and counts a budget
// rejection per tenant. A final 429 — the accountant found that the
// committed spends alone refuse the request (mechanism.ErrBudgetSpent)
// — carries the code "budget_exhausted" and no Retry-After: spends
// never fall, so no retry can succeed. Every other 429, and every 503,
// carries the constant Retry-After hint.
func (s *Server) writeError(w http.ResponseWriter, tenantID string, err error) {
	code := status(err)
	resp := ErrorResponse{Error: err.Error()}
	switch {
	case code == http.StatusTooManyRequests && errors.Is(err, mechanism.ErrBudgetSpent):
		resp.Code = "budget_exhausted"
	case code == http.StatusTooManyRequests, code == http.StatusServiceUnavailable:
		w.Header().Set("Retry-After", strconv.Itoa(s.cfg.RetryAfterSeconds))
	}
	if code == http.StatusTooManyRequests && tenantID != "" {
		s.obs.Reg().Counter("dplearn_serve_admission_rejects_total",
			"requests rejected by budget admission control", "tenant", tenantID).Inc()
	}
	s.writeJSON(w, code, resp)
}

// tenant resolves the tenant or fails with errUnknownTenant.
func (s *Server) tenant(id string) (*Tenant, error) {
	if id == "" {
		return nil, fmt.Errorf("%w: request names no tenant", errBadRequest)
	}
	t, ok := s.reg.Get(id)
	if !ok {
		return nil, fmt.Errorf("%w: %q", errUnknownTenant, id)
	}
	return t, nil
}

// request is what a POST /v1 handler tells serveRequest about its body:
// where to decode it, and pointers — read once it is decoded — to the
// tenant it names, the ε it quotes and the seed that keys its durable
// record and fault schedule. A free endpoint leaves quoted and seed nil.
type request struct {
	endpoint string
	body     any
	tenant   *string
	quoted   *float64
	seed     *int64
}

// serveRequest is the prelude every POST /v1 handler shares, in one
// fixed order: decode the body, resolve the tenant it names, stamp the
// tenant and the quote on the access line, then run the endpoint's own
// validate. Each failure is written as the error response. A free
// endpoint then answers with release's payload; a spending one runs
// release inside the durable envelope.
func (s *Server) serveRequest(w http.ResponseWriter, r *http.Request, rq request, validate func(t *Tenant) error, release func(ctx context.Context, t *Tenant) (any, error)) {
	if err := json.NewDecoder(r.Body).Decode(rq.body); err != nil {
		s.writeError(w, "", fmt.Errorf("%w: %v", errBadRequest, err))
		return
	}
	t, err := s.tenant(*rq.tenant)
	if err != nil {
		s.writeError(w, *rq.tenant, err)
		return
	}
	ai := accessFrom(r.Context())
	ai.setTenant(t.ID)
	if rq.quoted != nil {
		ai.setQuoted(*rq.quoted)
	}
	if err := validate(t); err != nil {
		s.writeError(w, t.ID, err)
		return
	}
	if rq.seed == nil {
		payload, err := release(r.Context(), t)
		if err != nil {
			s.writeError(w, t.ID, err)
			return
		}
		s.writeJSON(w, http.StatusOK, payload)
		return
	}
	s.durable(w, r, t, rq.endpoint, *rq.seed, *rq.quoted, release)
}

// inFlight is a spending request's chaos and test seam, passed once its
// release is about to run: the test hook may park the request there,
// then the fault schedule fires for the request key — a WorkerPanic
// unwinds the handler (exercising reservation release on panic paths), a
// CheckpointWrite becomes a 500-mapped error. select and summary pass it
// inside the reservation spendQuoted holds; fit and density before the
// facade takes its own.
func (s *Server) inFlight(endpoint string, key int) error {
	if s.testHookInFlight != nil {
		s.testHookInFlight(endpoint)
	}
	sched := s.cfg.Faults
	if sched == nil {
		return nil
	}
	sched.Panic(faults.WorkerPanic, key)
	if err := sched.Err(faults.CheckpointWrite, key); err != nil {
		return fmt.Errorf("serve: ledger checkpoint write failed: %w", err)
	}
	return nil
}

// spendQuoted runs one release under the two-phase protocol with the
// quoted price g: Reserve decides admission against the tenant's budget
// (composed with every spend and outstanding hold), the deferred
// Release frees the hold on every error and panic path, and Commit
// charges exactly the quoted guarantee once the release succeeded. The
// in-flight seam fires while the reservation is held, which is
// precisely the window the chaos battery must prove never half-spends.
//
// The release runs under a child span of the request span carried by
// ctx ("<endpoint>.release"), and the commit is stamped with the span
// and trace ids and the request's charge scope, so the resulting ledger
// record joins back to the request that paid for it.
func (s *Server) spendQuoted(ctx context.Context, t *Tenant, endpoint string, g mechanism.Guarantee, meta mechanism.SpendMeta, key int, release func(ctx context.Context) error) error {
	res, err := t.Acct.Reserve(g)
	if err != nil {
		return err
	}
	defer res.Release()
	if err := s.inFlight(endpoint, key); err != nil {
		return err
	}
	sp := obs.SpanFromContext(ctx).Child(endpoint + ".release")
	defer sp.End()
	start := s.obs.Now()
	if err := release(obs.ContextWithSpan(ctx, sp)); err != nil {
		return err
	}
	meta.Duration = s.obs.Now() - start
	meta.Span = sp.ID()
	meta.Trace = sp.TraceID()
	meta.Charge = mechanism.ChargeScopeFrom(ctx)
	res.Commit(meta)
	t.refreshSpent()
	return nil
}

// handleFit privately fits the tenant's learner on the posted data.
// Admission rides the reservation inside core.FitPolicyCtx; the
// request's degrade policy (or the tenant default) decides what an
// ErrBudgetExhausted becomes: 429, a free cached re-release, or a
// widened posterior.
func (s *Server) handleFit(w http.ResponseWriter, r *http.Request) {
	var req FitRequest
	var d *dataset.Dataset
	var policy core.DegradePolicy
	s.serveRequest(w, r, request{endpoint: "fit", body: &req, tenant: &req.Tenant, quoted: &s.spec.Epsilon, seed: &req.Seed},
		func(t *Tenant) (err error) {
			if d, err = s.spec.data(&req.Data); err != nil {
				return err
			}
			policy = t.Degrade
			if req.Degrade != "" {
				if policy, err = core.ParseDegradePolicy(req.Degrade); err != nil {
					return fmt.Errorf("%w: %v", errBadRequest, err)
				}
			}
			return nil
		},
		func(ctx context.Context, t *Tenant) (any, error) {
			if err := s.inFlight("fit", int(req.Seed)); err != nil {
				return nil, err
			}
			fit, err := t.Learner.FitPolicyCtx(ctx, d, rng.New(req.Seed), policy)
			if err != nil {
				return nil, err
			}
			if fit.Degraded {
				// A cached re-release or a widened posterior; what it paid,
				// if anything, is in the request's charge scope.
				accessFrom(ctx).setOutcome("degraded")
			}
			t.refreshSpent()
			return FitResponse{
				Theta:       fit.Theta,
				Index:       fit.Index,
				Degraded:    fit.Degraded,
				Policy:      fit.Policy.String(),
				Certificate: certificateJSON(fit.Certificate),
			}, nil
		})
}

// handleCertify evaluates the certificates without releasing; no ε is
// spent, so budget exhaustion can never refuse it.
func (s *Server) handleCertify(w http.ResponseWriter, r *http.Request) {
	var req CertifyRequest
	var d *dataset.Dataset
	s.serveRequest(w, r, request{endpoint: "certify", body: &req, tenant: &req.Tenant},
		func(*Tenant) (err error) {
			d, err = s.spec.data(&req.Data)
			return err
		},
		func(ctx context.Context, t *Tenant) (any, error) {
			cert, err := t.Learner.CertifyCtx(ctx, d)
			if err != nil {
				return nil, err
			}
			return CertifyResponse{Certificate: certificateJSON(cert)}, nil
		})
}

// handleSelect picks one posted candidate by the exponential mechanism
// scored on the posted validation data. The serve layer owns the
// two-phase spend here: PrivateSelect runs with a nil accountant and
// the quoted ε is reserved, then committed, on the tenant's books.
func (s *Server) handleSelect(w http.ResponseWriter, r *http.Request) {
	var req SelectRequest
	var d *dataset.Dataset
	var cands []learn.Candidate
	s.serveRequest(w, r, request{endpoint: "select", body: &req, tenant: &req.Tenant, quoted: &req.Epsilon, seed: &req.Seed},
		func(*Tenant) (err error) {
			if err = validEpsilon(req.Epsilon); err != nil {
				return err
			}
			if d, err = req.Data.dataset(); err != nil {
				return err
			}
			cands, err = candidates(req.Candidates, d.Dim())
			return err
		},
		func(ctx context.Context, t *Tenant) (any, error) {
			var selected learn.Candidate
			loss := learn.ZeroOneLoss{}
			err := s.spendQuoted(ctx, t, "select", quotedGuarantee(req.Epsilon), mechanism.SpendMeta{
				Mechanism:   "select",
				Sensitivity: loss.Bound() / float64(d.Len()),
				Outcomes:    len(cands),
			}, int(req.Seed), func(context.Context) error {
				var rerr error
				selected, rerr = learn.PrivateSelect(cands, loss, d, req.Epsilon, nil, rng.New(req.Seed))
				return rerr
			})
			if err != nil {
				return nil, err
			}
			return SelectResponse{
				Name:    selected.Name,
				Theta:   selected.Theta,
				Epsilon: req.Epsilon,
			}, nil
		})
}

// handleDensity releases a private histogram density. Both flavors
// reserve and commit inside the facade against the tenant's accountant,
// so admission control is already two-phase; the handler only maps
// ErrBudgetExhausted to 429.
func (s *Server) handleDensity(w http.ResponseWriter, r *http.Request) {
	var req DensityRequest
	var d *dataset.Dataset
	s.serveRequest(w, r, request{endpoint: "density", body: &req, tenant: &req.Tenant, quoted: &req.Epsilon, seed: &req.Seed},
		func(*Tenant) (err error) {
			d, err = featureData(req.Epsilon, &req.Data, req.Feature)
			return err
		},
		func(ctx context.Context, t *Tenant) (any, error) {
			if err := s.inFlight("density", int(req.Seed)); err != nil {
				return nil, err
			}
			g := rng.New(req.Seed)
			var est *core.DensityEstimate
			var err error
			switch req.Kind {
			case "", "laplace":
				bins := req.Bins
				if bins == 0 {
					bins = 16
				}
				est, err = core.PrivateHistogramDensityCtx(ctx, d, req.Feature, bins, req.Lo, req.Hi, req.Epsilon, t.Acct, g)
			case "gibbs":
				choices := req.BinChoices
				if len(choices) == 0 {
					choices = []int{4, 8, 16, 32}
				}
				clip := req.Clip
				if clip <= 0 {
					clip = 8
				}
				est, _, err = core.GibbsHistogramDensityCtx(ctx, d, req.Feature, choices, req.Lo, req.Hi, clip, req.Epsilon, t.Acct, g)
			default:
				err = fmt.Errorf("%w: unknown density kind %q (want laplace|gibbs)", errBadRequest, req.Kind)
			}
			if err != nil {
				return nil, err
			}
			t.refreshSpent()
			return DensityResponse{
				Lo:      est.Lo,
				Hi:      est.Hi,
				Bins:    len(est.Density),
				Density: est.Density,
				Epsilon: req.Epsilon,
			}, nil
		})
}

// handleSummary releases the ε-DP feature summary. ReleaseSummary
// splits its budget across the parts on an internal accountant; the
// serve layer reserves the quoted total against the tenant's budget
// before any noise is drawn and commits it only once the whole summary
// succeeded.
func (s *Server) handleSummary(w http.ResponseWriter, r *http.Request) {
	var req SummaryRequest
	var d *dataset.Dataset
	s.serveRequest(w, r, request{endpoint: "summary", body: &req, tenant: &req.Tenant, quoted: &req.Epsilon, seed: &req.Seed},
		func(*Tenant) (err error) {
			d, err = featureData(req.Epsilon, &req.Data, req.Feature)
			return err
		},
		func(ctx context.Context, t *Tenant) (any, error) {
			var sum *core.PrivateSummary
			bins := req.Bins
			if bins == 0 {
				bins = 16
			}
			err := s.spendQuoted(ctx, t, "summary", quotedGuarantee(req.Epsilon), mechanism.SpendMeta{
				Mechanism: "summary",
				Outcomes:  bins,
			}, int(req.Seed), func(ctx context.Context) error {
				var rerr error
				sum, rerr = core.ReleaseSummaryCtx(ctx, d, core.SummaryConfig{
					Feature:   req.Feature,
					Lo:        req.Lo,
					Hi:        req.Hi,
					Bins:      req.Bins,
					Quantiles: req.Quantiles,
					Epsilon:   req.Epsilon,
				}, rng.New(req.Seed))
				return rerr
			})
			if err != nil {
				return nil, err
			}
			return summaryResponse(sum, req.Epsilon), nil
		})
}

// handleBudget reports one tenant's books (?tenant=<id>).
func (s *Server) handleBudget(w http.ResponseWriter, r *http.Request) {
	t, err := s.tenant(r.URL.Query().Get("tenant"))
	if err != nil {
		s.writeError(w, "", err)
		return
	}
	accessFrom(r.Context()).setTenant(t.ID)
	s.writeJSON(w, http.StatusOK, budgetStatus(t))
}

// handleTenants lists every tenant's books in declaration order.
func (s *Server) handleTenants(w http.ResponseWriter, r *http.Request) {
	tenants := s.reg.Tenants()
	out := make([]BudgetStatus, len(tenants))
	for i, t := range tenants {
		out[i] = budgetStatus(t)
	}
	s.writeJSON(w, http.StatusOK, out)
}

// handleCrossCheck audits every tenant's accountant against its
// witness under live traffic, reporting the witness and the charges in
// flight per tenant, and refreshes the spend gauges; a failed audit is
// a 500 — the books are the service's contract.
func (s *Server) handleCrossCheck(w http.ResponseWriter, r *http.Request) {
	for _, t := range s.reg.Tenants() {
		t.refreshSpent()
	}
	var audits []map[string]any
	for _, t := range s.reg.Tenants() {
		witness, n, err := t.CrossCheck(false)
		if err != nil {
			s.writeJSON(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error()})
			return
		}
		audits = append(audits, map[string]any{"tenant": t.ID, "witness": witness, "in_flight": n})
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "tenants": audits})
}

// handleHealthz reports liveness; a draining server answers 503 so load
// balancers stop routing to it while in-flight requests finish.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", strconv.Itoa(s.cfg.RetryAfterSeconds))
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
