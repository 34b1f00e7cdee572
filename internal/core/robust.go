// Context-aware, budget-enforcing variants of the facade. The plain
// methods (Fit, Certify, AccountInformation) delegate here with
// context.Background(); pipelines that need deadlines, SIGINT draining,
// or budget degradation call the Ctx variants directly.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/channel"
	"repro/internal/dataset"
	"repro/internal/gibbs"
	"repro/internal/mechanism"
	"repro/internal/obs"
	"repro/internal/rng"
)

// ErrNonFiniteInput reports a NaN or ±Inf in the dataset values or in
// the computed risk grid. The facade rejects it before any ε is spent:
// a NaN risk would silently poison the Gibbs normalizer, turning the
// release into garbage that still charged the ledger.
var ErrNonFiniteInput = errors.New("core: non-finite input")

// DegradePolicy selects what Fit does when the accountant's budget
// cannot admit the planned release.
type DegradePolicy int

const (
	// DegradeRefuse (the default) fails the fit with ErrBudgetExhausted.
	DegradeRefuse DegradePolicy = iota
	// DegradeFallback re-releases the most recent successful fit instead
	// of spending: post-processing of an already-paid-for release, so no
	// new ε is charged. Fails like DegradeRefuse when no fit is cached.
	DegradeFallback
	// DegradeWiden recalibrates λ so the release costs exactly the
	// remaining budget (a weaker, wider posterior) instead of the
	// configured ε. Fails like DegradeRefuse when nothing remains.
	DegradeWiden
)

// String names the policy for flags and logs.
func (p DegradePolicy) String() string {
	switch p {
	case DegradeRefuse:
		return "refuse"
	case DegradeFallback:
		return "fallback"
	case DegradeWiden:
		return "widen"
	default:
		return fmt.Sprintf("DegradePolicy(%d)", int(p))
	}
}

// ParseDegradePolicy parses the CLI spelling of a policy.
func ParseDegradePolicy(s string) (DegradePolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "refuse":
		return DegradeRefuse, nil
	case "fallback":
		return DegradeFallback, nil
	case "widen":
		return DegradeWiden, nil
	default:
		return DegradeRefuse, fmt.Errorf("%w: unknown degrade policy %q (want refuse|fallback|widen)", ErrBadConfig, s)
	}
}

// validateDataset rejects NaN/Inf feature or label values with
// ErrNonFiniteInput, identifying the first offending example.
func validateDataset(d *dataset.Dataset) error {
	for i, e := range d.Examples {
		for j, v := range e.X {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%w: example %d feature %d is %v", ErrNonFiniteInput, i, j, v)
			}
		}
		if math.IsNaN(e.Y) || math.IsInf(e.Y, 0) {
			return fmt.Errorf("%w: example %d label is %v", ErrNonFiniteInput, i, e.Y)
		}
	}
	return nil
}

// validateRisks rejects NaN/Inf empirical risks with ErrNonFiniteInput.
func validateRisks(risks []float64) error {
	for i, r := range risks {
		if math.IsNaN(r) || math.IsInf(r, 0) {
			return fmt.Errorf("%w: risk of predictor %d is %v", ErrNonFiniteInput, i, r)
		}
	}
	return nil
}

// FitCtx is Fit under a context with budget enforcement and graceful
// degradation, applying the configured DegradePolicy.
func (l *Learner) FitCtx(ctx context.Context, d *dataset.Dataset, g *rng.RNG) (*Fitted, error) {
	return l.FitPolicyCtx(ctx, d, g, l.cfg.Degrade)
}

// FitPolicyCtx is FitCtx with a per-call DegradePolicy: multi-tenant
// callers (the serve layer) select refuse/fallback/widen per request as
// load-shedding, while single-run pipelines keep the configured policy
// through FitCtx. The hardened order of operations is:
//
//  1. validate the dataset and the risk grid (typed ErrNonFiniteInput) —
//     before any ε is spent;
//  2. Reserve the planned guarantee against the accountant's budget —
//     an ErrBudgetExhausted here triggers the requested DegradePolicy
//     with nothing charged;
//  3. sample the posterior — an error or panic releases the
//     reservation, so a failed release never charges the ledger;
//  4. Commit the reservation, which appends the ledger record exactly
//     as SpendDetail would.
//
// The draw and the certificate share the one risk vector step 1
// evaluated (see prelude), so a fit makes one risk-cache lookup.
func (l *Learner) FitPolicyCtx(ctx context.Context, d *dataset.Dataset, g *rng.RNG, policy DegradePolicy) (*Fitted, error) {
	ctx, sp, est, risks, err := l.prelude(ctx, "fit", d)
	defer sp.End()
	if err != nil {
		return nil, err
	}
	degraded := false
	res, err := l.cfg.Acct.Reserve(est.Guarantee(d.Len()))
	if errors.Is(err, mechanism.ErrBudgetExhausted) {
		switch policy {
		case DegradeFallback:
			if cached := l.cachedFit(); cached != nil {
				return cached, nil
			}
			return nil, fmt.Errorf("core: budget exhausted and no cached fit to fall back to: %w", err)
		case DegradeWiden:
			// R̂ does not depend on λ, so the widened draw reuses risks.
			est, res, err = l.widen(d.Len())
			if err != nil {
				return nil, err
			}
			degraded = true
		default:
			return nil, fmt.Errorf("core: fit refused: %w", err)
		}
	} else if err != nil {
		return nil, err
	}
	// The deferred Release is a no-op once Commit ran; on every error and
	// panic path below it returns the reserved headroom uncharged.
	defer res.Release()
	o := l.cfg.Parallel.Obs
	start := o.Now()
	idx, err := est.Sample(risks, g)
	if err != nil {
		return nil, err
	}
	res.Commit(mechanism.SpendMeta{
		Mechanism:   "gibbs",
		Sensitivity: est.RiskSensitivity(d.Len()),
		Outcomes:    len(l.cfg.Thetas),
		Duration:    o.Now() - start,
		Span:        sp.ID(),
		Trace:       sp.TraceID(),
		Charge:      mechanism.ChargeScopeFrom(ctx),
	})
	cert, err := l.certificate(est, d.Len(), risks)
	if err != nil {
		return nil, err
	}
	fit := &Fitted{
		Theta:       append([]float64(nil), l.cfg.Thetas[idx]...),
		Index:       idx,
		Certificate: cert,
		Degraded:    degraded,
		Policy:      policy,
	}
	l.storeFit(fit)
	return fit, nil
}

// prelude is the start FitPolicyCtx and CertifyCtx share. It validates
// d, starts the call's span (a child of the request span when ctx
// carries one), calibrates the estimator for d's size, and evaluates the
// risk vector R̂ once — the call's one risk-cache lookup — rejecting a
// non-finite entry with ErrNonFiniteInput. The span is nil when d fails
// validation; the caller ends it on every path (End is nil-safe).
func (l *Learner) prelude(ctx context.Context, name string, d *dataset.Dataset) (context.Context, *obs.Span, *gibbs.Estimator, []float64, error) {
	if d == nil || d.Len() == 0 {
		return ctx, nil, nil, nil, fmt.Errorf("%w: empty dataset", ErrBadConfig)
	}
	if err := validateDataset(d); err != nil {
		return ctx, nil, nil, nil, err
	}
	// The derived ctx carries the span onward into the risk grid and the
	// parallel engine's chunk spans.
	ctx, sp := l.cfg.Parallel.Obs.StartSpanCtx(ctx, name)
	sp.SetAttr("n", d.Len())
	est, err := l.Estimator(d.Len())
	if err != nil {
		return ctx, sp, nil, nil, err
	}
	risks, err := est.RisksCtx(ctx, d)
	if err != nil {
		return ctx, sp, nil, nil, err
	}
	if err := validateRisks(risks); err != nil {
		return ctx, sp, nil, nil, err
	}
	return ctx, sp, est, risks, nil
}

// widen recalibrates the estimator so the release costs at most the
// remaining budget. The reservation is taken for that exact remainder r —
// not for the recalibrated estimator's recomputed Guarantee, whose low
// bits may differ after the λ round-trip — so the budget closes to
// exactly zero with no floating-point residue when budget − spent is
// exact. When it is not, r can compose to an ulp over the budget, and
// the reservation is retried once at one ulp below r, leaving at most an
// ulp of the budget open. λ = r·n/(2M) can round so that 2λ·M/n lands
// above the reserved amount, so λ steps down an ulp at a time until the
// released guarantee fits inside the charge. A refusal is final
// (mechanism.ErrBudgetSpent) only when the spends alone leave no
// headroom; one that holds caused may clear when they are released.
func (l *Learner) widen(n int) (*gibbs.Estimator, *mechanism.Reservation, error) {
	rem, ok := l.cfg.Acct.Remaining()
	if !ok || rem.Epsilon <= 0 {
		return nil, nil, fmt.Errorf("core: cannot widen, no budget remaining: %w", l.cfg.Acct.Refusal())
	}
	lambda, err := gibbs.LambdaForEpsilonErr(rem.Epsilon, l.cfg.Loss, n)
	if err != nil {
		return nil, nil, fmt.Errorf("core: cannot widen to remaining ε=%v: %w", rem.Epsilon, err)
	}
	est, err := gibbs.New(l.cfg.Loss, l.cfg.Thetas, l.cfg.LogPrior, lambda)
	if err != nil {
		return nil, nil, err
	}
	res, err := l.cfg.Acct.Reserve(rem)
	if errors.Is(err, mechanism.ErrBudgetExhausted) {
		// spent + r can round above the budget when budget − spent needs
		// one bit more than r holds. The overshoot is at most half an ulp
		// of the budget plus half an ulp of r, so one ulp less fits.
		rem.Epsilon = math.Nextafter(rem.Epsilon, 0)
		res, err = l.cfg.Acct.Reserve(rem)
	}
	if err != nil {
		// Lost the headroom to a concurrent reservation or spend between
		// Remaining and Reserve. A retry widens into what is left then, so
		// the refusal is final only when the spends alone leave nothing.
		return nil, nil, fmt.Errorf("core: widened reservation lost a race (%v): %w", err, l.cfg.Acct.Refusal())
	}
	for est.Guarantee(n).Epsilon > rem.Epsilon {
		est.Lambda = math.Nextafter(est.Lambda, 0)
	}
	est.Parallel = l.cfg.Parallel
	return est, res, nil
}

// cachedFit returns a deep copy of the last successful fit flagged as a
// degraded re-release, or nil when none is cached.
func (l *Learner) cachedFit() *Fitted {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.lastFit == nil {
		return nil
	}
	cp := *l.lastFit
	cp.Theta = append([]float64(nil), l.lastFit.Theta...)
	cp.Degraded = true
	cp.Policy = DegradeFallback
	return &cp
}

// storeFit caches the fit for DegradeFallback. Degraded re-releases are
// not cached: the fallback predictor should stay the last fully-paid
// release.
func (l *Learner) storeFit(f *Fitted) {
	if f.Degraded {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	cp := *f
	cp.Theta = append([]float64(nil), f.Theta...)
	l.lastFit = &cp
}

// CertifyCtx is Certify under a context: the risk grid honors
// cancellation. It charges no ε, yet its result is not private: the
// certificate's RiskBound, ExpEmpRisk and KL are exact functions of d,
// so they are for the tenant who supplied d (see Certify).
func (l *Learner) CertifyCtx(ctx context.Context, d *dataset.Dataset) (Certificate, error) {
	_, sp, est, risks, err := l.prelude(ctx, "certify", d)
	defer sp.End()
	if err != nil {
		return Certificate{}, err
	}
	return l.certificate(est, d.Len(), risks)
}

// AccountInformationCtx is AccountInformation under a context: the
// risk grids and the Blahut–Arimoto capacity iteration honor
// cancellation. Each input's risk vector is evaluated once and serves
// both its channel row (the Gibbs posterior) and the expected risk.
func (l *Learner) AccountInformationCtx(ctx context.Context, inputs []*dataset.Dataset, logPX []float64) (*InformationAccount, error) {
	if len(inputs) == 0 {
		return nil, fmt.Errorf("%w: empty sample space", ErrBadConfig)
	}
	n := inputs[0].Len()
	for _, d := range inputs {
		if d.Len() != n {
			return nil, fmt.Errorf("%w: sample-space points must share a size", ErrBadConfig)
		}
	}
	est, err := l.Estimator(n)
	if err != nil {
		return nil, err
	}
	risks := make([][]float64, len(inputs))
	rows := make(posteriorRows, len(inputs))
	for i, d := range inputs {
		if risks[i], err = est.RisksCtx(ctx, d); err == nil {
			rows[d], err = est.LogPosterior(risks[i])
		}
		if err != nil {
			return nil, err
		}
	}
	ch, err := channel.FromMechanismCtx(ctx, inputs, logPX, rows, l.cfg.Parallel)
	if err != nil {
		return nil, err
	}
	mi, err := ch.MutualInformation()
	if err != nil {
		return nil, err
	}
	capacity, err := ch.CapacityCtx(ctx, 1e-9, 50000)
	if err != nil {
		return nil, err
	}
	expRisk, err := ch.ExpectedValue(risks)
	if err != nil {
		return nil, err
	}
	return &InformationAccount{
		MutualInformation: mi,
		Capacity:          capacity,
		DPCap:             channel.DPLeakageCapNats(est.Guarantee(n).Epsilon, n),
		ExpectedRisk:      expRisk,
	}, nil
}

// posteriorRows serves precomputed posterior rows to the channel's one
// validating constructor.
type posteriorRows map[*dataset.Dataset][]float64

// LogProbabilities returns d's precomputed log posterior.
func (p posteriorRows) LogProbabilities(d *dataset.Dataset) []float64 { return p[d] }
