package serve

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/learn"
	"repro/internal/mathx"
	"repro/internal/mechanism"
	"repro/internal/obs"
	"repro/internal/obsglue"
	"repro/internal/wal"
)

// TenantConfig declares one tenant of the release service: an isolation
// domain with its own dataset universe, hard privacy budget, and default
// degrade policy.
type TenantConfig struct {
	// ID names the tenant; requests address it by this string.
	ID string
	// Budget is the tenant's hard (ε, δ) cap. Every admitted release
	// composes against it; Reserve rejects past it.
	Budget mechanism.Guarantee
	// Degrade is the tenant's default policy when the budget cannot
	// admit a fit (requests may override it per call).
	Degrade core.DegradePolicy
}

// Tenant is one live tenant: a dedicated Accountant enforcing the hard
// budget, the privacy ledger streaming every spend to the trace, and a
// Learner configured against the accountant. All fields are safe for
// concurrent use; isolation between tenants is structural — no shared
// accountant, ledger, fallback cache, or write-ahead log.
type Tenant struct {
	ID      string
	Degrade core.DegradePolicy
	Acct    *mechanism.Accountant
	Learner *core.Learner

	observer *obs.Observer
	spent    *obs.Gauge
	burn     *obs.Gauge
	budget   *obs.Gauge
	releases *obs.Counter

	// wal is the tenant's write-ahead privacy ledger (nil without
	// -wal-dir; every call is then a no-op) and idem its idempotency
	// index, rebuilt from the WAL at recovery.
	wal  *wal.Log
	idem *idemStore
}

// Budget returns the tenant's hard (ε, δ) cap. It reads the accountant
// — the single authority, mutex-guarded — so hot-reloaded raises are
// visible immediately and race-free.
func (t *Tenant) Budget() mechanism.Guarantee {
	g, _ := t.Acct.Budget()
	return g
}

// CrossCheck holds the tenant's accountant to its write-ahead log and
// names the witness it used: "wal", or "none" without a log (the
// offline witness is then dplearn-trace -check). The log's books are
// read first and the accountant's second: a charge lands on the
// accountant before its commit record lands on the log, so the log
// never leads. More charges on the log, or as many with other sum bits,
// fail. Fewer are charges in flight — an error on a poisoned log, which
// can never write them, and for a quiescent caller, naming their ε and δ
// as the exact difference of the two books, rounded once.
func (t *Tenant) CrossCheck(quiescent bool) (witness string, inFlight int, err error) {
	if t.wal == nil {
		return "none", 0, nil
	}
	var logEps, logDel, eps, del mathx.ExactSum
	logged, logErr := t.wal.Committed(&logEps, &logDel)
	count := t.Acct.Audit(&eps, &del)
	inFlight = count - logged
	onLog := mechanism.Guarantee{Epsilon: logEps.Float64(), Delta: logDel.Float64()}
	spent := mechanism.Guarantee{Epsilon: eps.Float64(), Delta: del.Float64()}
	switch {
	case inFlight < 0:
		err = fmt.Errorf("the write-ahead log holds %d charge(s), the accountant %d", logged, count)
	//dplint:ignore floateq bit-exact agreement between the accountant and its write-ahead log is the audited property
	case inFlight == 0 && (spent.Epsilon != onLog.Epsilon || spent.Delta != onLog.Delta):
		err = fmt.Errorf("the write-ahead log composes %d charge(s) to (%.17g, %.17g), the accountant to (%.17g, %.17g)",
			count, onLog.Epsilon, onLog.Delta, spent.Epsilon, spent.Delta)
	case inFlight > 0 && (quiescent || logErr != nil):
		// The missing charges' guarantee: the exact difference of the
		// two books, rounded once.
		eps.SetDiff(&eps, &logEps)
		del.SetDiff(&del, &logDel)
		err = fmt.Errorf("%d charge(s) (ε %.17g, δ %.17g) on the accountant are missing from the write-ahead log",
			inFlight, eps.Float64(), del.Float64())
		if logErr != nil {
			err = fmt.Errorf("%w, which failed: %w", err, logErr)
		}
	}
	if err != nil {
		err = fmt.Errorf("serve: tenant %s: %w", t.ID, err)
	}
	return "wal", inFlight, err
}

// refreshSpent sets the tenant's spend gauge to the accountant's
// composition — a pure function of the spend multiset, so the exposed
// value is deterministic for a given request history at any worker
// count, read in constant time at any history length. Called after
// every commit and once more at drain. It also refreshes the budget
// burn-rate gauge: composed ε per logical tick since boot. Ticks — not
// wall time — keep the gauge a pure function of the request history
// (the clock read itself is part of that history, identically placed
// in every run), so /metrics stays goldenable.
func (t *Tenant) refreshSpent() {
	g := t.Acct.BasicComposition()
	t.spent.Set(g.Epsilon)
	if ticks := t.observer.Now(); ticks > 0 {
		t.burn.Set(g.Epsilon / float64(ticks))
	}
}

// Registry maps tenant IDs to live tenants in a fixed declaration
// order (map iteration order must never leak into responses, metrics,
// or audit reports). The lock exists for hot-reload: lookups are
// read-locked, and ReloadTenants may append tenants while requests are
// in flight. Tenants are never removed — an isolation domain with spent
// budget must outlive its config entry.
type Registry struct {
	mu    sync.RWMutex
	order []string
	byID  map[string]*Tenant
}

// Get resolves a tenant by ID.
func (r *Registry) Get(id string) (*Tenant, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	t, ok := r.byID[id]
	return t, ok
}

// Tenants returns the live tenants in declaration order.
func (r *Registry) Tenants() []*Tenant {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Tenant, 0, len(r.order))
	for _, id := range r.order {
		out = append(out, r.byID[id])
	}
	return out
}

// add appends a live tenant (hot-reload only; duplicate IDs rejected).
func (r *Registry) add(t *Tenant) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byID[t.ID]; dup {
		return fmt.Errorf("serve: duplicate tenant %q", t.ID)
	}
	r.byID[t.ID] = t
	r.order = append(r.order, t.ID)
	return nil
}

// ParseTenantBudgets parses the CLI tenant declaration
// "alpha=4,beta=1.5" (tenant ID = ε budget) into configs sorted by ID,
// so the flag's declaration order never depends on shell quoting.
func ParseTenantBudgets(s string, degrade core.DegradePolicy) ([]TenantConfig, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("serve: empty tenant declaration")
	}
	var out []TenantConfig
	seen := map[string]bool{}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 || kv[0] == "" {
			return nil, fmt.Errorf("serve: bad tenant entry %q (want id=budget)", part)
		}
		eps, err := strconv.ParseFloat(kv[1], 64)
		if err != nil {
			return nil, fmt.Errorf("serve: bad budget in %q: %w", part, err)
		}
		if seen[kv[0]] {
			return nil, fmt.Errorf("serve: duplicate tenant %q", kv[0])
		}
		seen[kv[0]] = true
		out = append(out, TenantConfig{
			ID:      kv[0],
			Budget:  mechanism.Guarantee{Epsilon: eps},
			Degrade: degrade,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// LearnerSpec shapes the per-tenant private learner: the predictor grid
// and the per-fit privacy price. Zero fields take the documented
// defaults.
type LearnerSpec struct {
	// Dim is the feature dimension of the predictor space (default 2).
	// Fit/certify/select requests must carry data of this dimension.
	Dim int
	// GridPoints is the per-dimension grid resolution (default 5).
	GridPoints int
	// Box is the coefficient box half-width (default 2).
	Box float64
	// Epsilon is the ε spent by one non-degraded Fit (default 0.5).
	Epsilon float64
	// Delta is the PAC-Bayes confidence parameter (default 0.05).
	Delta float64
}

// withDefaults resolves zero fields.
func (sp LearnerSpec) withDefaults() LearnerSpec {
	if sp.Dim == 0 {
		sp.Dim = 2
	}
	if sp.GridPoints == 0 {
		sp.GridPoints = 5
	}
	if sp.Box == 0 { //dplint:ignore floateq config sentinel: an unset Box field is the exact zero value
		sp.Box = 2
	}
	if sp.Epsilon == 0 { //dplint:ignore floateq config sentinel: an unset Epsilon field is the exact zero value
		sp.Epsilon = 0.5
	}
	if sp.Delta == 0 { //dplint:ignore floateq config sentinel: an unset Delta field is the exact zero value
		sp.Delta = 0.05
	}
	return sp
}

// newTenant builds one live tenant: accountant with the hard budget,
// ledger wired as the spend observer (streaming into the trace when the
// observer carries a tracer), learner calibrated to the spec.
func newTenant(cfg TenantConfig, sp LearnerSpec, o *obs.Observer, workers int) (*Tenant, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("serve: tenant needs an ID")
	}
	var tracer *obs.Tracer
	if o != nil {
		tracer = o.Tracer
	}
	t := &Tenant{
		ID:       cfg.ID,
		Degrade:  cfg.Degrade,
		Acct:     &mechanism.Accountant{},
		observer: o,
		idem:     newIdemStore(),
	}
	if err := t.Acct.SetBudget(cfg.Budget); err != nil {
		return nil, fmt.Errorf("serve: tenant %s: %w", cfg.ID, err)
	}
	reg := o.Reg()
	t.spent = reg.Gauge("dplearn_serve_tenant_spent_epsilon",
		"canonically composed ε spent by the tenant", "tenant", cfg.ID)
	t.burn = reg.Gauge("dplearn_serve_tenant_burn_rate_epsilon_per_tick",
		"committed ε per logical clock tick since boot", "tenant", cfg.ID)
	t.budget = reg.Gauge("dplearn_serve_tenant_budget_epsilon",
		"hard ε budget configured for the tenant", "tenant", cfg.ID)
	t.budget.Set(cfg.Budget.Epsilon)
	t.releases = reg.Counter("dplearn_serve_tenant_releases_total",
		"accounted releases committed by the tenant", "tenant", cfg.ID)
	ledger, releases := obs.NewLedger(tracer), t.releases
	t.Acct.SetObserver(func(r mechanism.SpendRecord) {
		// Runs under the accountant's lock: stream and count — nothing
		// more. The trace id stamped on the spend joins the ledger line
		// to the request span tree; the request's own record of what it
		// spent is its charge scope, which the accountant fills itself.
		obsglue.RecordSpend(ledger, r)
		releases.Inc()
	})
	grid := learn.NewGrid(-sp.Box, sp.Box, sp.Dim, sp.GridPoints)
	learner, err := core.NewLearner(core.Config{
		Loss:     learn.ZeroOneLoss{},
		Thetas:   grid.Thetas(),
		Epsilon:  sp.Epsilon,
		Delta:    sp.Delta,
		Acct:     t.Acct,
		Degrade:  cfg.Degrade,
		Parallel: parallelOptions(workers, o),
	})
	if err != nil {
		return nil, fmt.Errorf("serve: tenant %s learner: %w", cfg.ID, err)
	}
	t.Learner = learner
	return t, nil
}

// newRegistry builds the tenant registry in declaration order.
func newRegistry(cfgs []TenantConfig, sp LearnerSpec, o *obs.Observer, workers int) (*Registry, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("serve: need at least one tenant")
	}
	r := &Registry{byID: make(map[string]*Tenant, len(cfgs))}
	for _, cfg := range cfgs {
		if _, dup := r.byID[cfg.ID]; dup {
			return nil, fmt.Errorf("serve: duplicate tenant %q", cfg.ID)
		}
		t, err := newTenant(cfg, sp, o, workers)
		if err != nil {
			return nil, err
		}
		r.byID[cfg.ID] = t
		r.order = append(r.order, cfg.ID)
	}
	return r, nil
}

// ReloadTenants applies a new tenant declaration live: unknown IDs
// become new tenants (with a WAL attached when the server runs one) and
// known IDs may RAISE their ε budget. Lowering is refused per entry —
// never below what the tenant has already spent or held, and more
// conservatively never below the current cap, because admission
// decisions already made against the old budget must stay sound. The
// first error is returned after all applicable entries are applied, so
// one bad entry cannot block a fleet-wide raise.
func (s *Server) ReloadTenants(cfgs []TenantConfig) (added, raised int, err error) {
	var errs []string
	for _, cfg := range cfgs {
		t, ok := s.reg.Get(cfg.ID)
		if !ok {
			nt, nerr := newTenant(cfg, s.spec, s.obs, s.cfg.Workers)
			if nerr != nil {
				errs = append(errs, nerr.Error())
				continue
			}
			if s.cfg.WALDir != "" {
				l, st, werr := recoverWAL(nt.ID, s.cfg.WALDir)
				var rep RecoveryReport
				if werr == nil {
					if rep, werr = s.attachWAL(nt, l, st); werr != nil {
						_ = l.Close() // the audit error supersedes
					}
				}
				if werr != nil {
					errs = append(errs, werr.Error())
					continue
				}
				s.recovery = append(s.recovery, rep)
			}
			if aerr := s.reg.add(nt); aerr != nil {
				_ = nt.wal.Close() // the tenant is dropped; the duplicate error supersedes
				errs = append(errs, aerr.Error())
				continue
			}
			added++
			continue
		}
		cur := t.Budget()
		if cfg.Budget.Epsilon < cur.Epsilon || cfg.Budget.Delta < cur.Delta {
			errs = append(errs, fmt.Sprintf("serve: tenant %s: refusing to lower budget (ε=%g, δ=%g) below current (ε=%g, δ=%g)",
				cfg.ID, cfg.Budget.Epsilon, cfg.Budget.Delta, cur.Epsilon, cur.Delta))
			continue
		}
		if cfg.Budget == cur {
			continue
		}
		if serr := t.Acct.SetBudget(cfg.Budget); serr != nil {
			errs = append(errs, fmt.Sprintf("serve: tenant %s: %v", cfg.ID, serr))
			continue
		}
		t.budget.Set(cfg.Budget.Epsilon)
		raised++
	}
	if len(errs) > 0 {
		return added, raised, fmt.Errorf("serve: reload: %s", strings.Join(errs, "; "))
	}
	return added, raised, nil
}
