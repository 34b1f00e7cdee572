// Package core assembles the paper's contribution into a single
// user-facing API: a differentially-private learner that
//
//  1. calibrates a Gibbs posterior (= exponential mechanism with quality
//     −R̂) to a requested privacy budget ε via Theorem 4.1,
//  2. certifies the released predictor's true risk with Catoni's
//     PAC-Bayes bound (Theorem 3.1), and
//  3. accounts for the information leaked about the sample — the mutual
//     information I(Ẑ;θ) of the induced channel (Theorem 4.2, Figure 1) —
//     exactly on enumerable sample spaces.
//
// A Learner is configured once (loss, predictor space, prior, budget) and
// can then fit any number of datasets; each Fit spends ε on the dataset
// it touches (compose budgets with mechanism.Accountant when fitting the
// same data repeatedly).
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/dataset"
	"repro/internal/gibbs"
	"repro/internal/learn"
	"repro/internal/mechanism"
	"repro/internal/pacbayes"
	"repro/internal/parallel"
	"repro/internal/rng"
)

// ErrBadConfig is returned when a Learner is misconfigured.
var ErrBadConfig = errors.New("core: invalid learner configuration")

// Config describes a private learning problem.
type Config struct {
	// Loss must be bounded (Loss.Bound() < ∞); wrap unbounded losses with
	// learn.ClippedLoss.
	Loss learn.Loss
	// Thetas is the finite predictor space Θ.
	Thetas [][]float64
	// LogPrior is an optional normalized log-prior over Thetas (nil =
	// uniform).
	LogPrior []float64
	// Epsilon is the differential-privacy budget for one Fit.
	Epsilon float64
	// Delta is the PAC-Bayes confidence parameter for the risk
	// certificate (default 0.05 when zero).
	Delta float64
	// Acct optionally accumulates the privacy cost of every Fit (compose
	// repeated fits on the same data with mechanism.Accountant's
	// composition queries). Nil skips accounting.
	Acct *mechanism.Accountant
	// Parallel controls worker fan-out for every hot path of the learner
	// (risk grids, posterior reductions, channel sums, capacity
	// iteration). The zero value uses all CPUs; Workers == 1 forces
	// serial execution. Every setting produces bit-identical results —
	// see package parallel for the determinism contract.
	Parallel parallel.Options
	// Degrade selects what Fit does when Acct's budget cannot admit the
	// planned release (see DegradePolicy). The zero value refuses.
	// Irrelevant unless Acct has a budget set.
	Degrade DegradePolicy
}

// Learner is a configured private learner. Its configuration is
// immutable and it is safe for concurrent use with per-goroutine RNGs.
// Fit and Certify compute the risk vector R̂ once per call and hand it
// to the draw and the certificate. Internally the learner memoizes risk
// vectors keyed by a SHA-256 of the data's bits, so Fit, Certify, and
// AccountInformation on the same data evaluate the O(|Θ|·n) risk grid
// once, and it remembers the most recent successful fit so
// DegradeFallback can re-release it when the budget runs out; both
// caches are mutex-guarded and change no result.
type Learner struct {
	cfg   Config
	cache *gibbs.RiskCache

	mu      sync.Mutex
	lastFit *Fitted
}

// NewLearner validates the configuration.
func NewLearner(cfg Config) (*Learner, error) {
	if cfg.Loss == nil || len(cfg.Thetas) == 0 {
		return nil, ErrBadConfig
	}
	if math.IsInf(cfg.Loss.Bound(), 1) || cfg.Loss.Bound() <= 0 {
		return nil, fmt.Errorf("%w: loss must be bounded (wrap with learn.ClippedLoss)", ErrBadConfig)
	}
	if cfg.Epsilon <= 0 || math.IsNaN(cfg.Epsilon) {
		return nil, fmt.Errorf("%w: epsilon must be positive", ErrBadConfig)
	}
	if cfg.LogPrior != nil && len(cfg.LogPrior) != len(cfg.Thetas) {
		return nil, fmt.Errorf("%w: prior/predictor-space length mismatch", ErrBadConfig)
	}
	if cfg.Delta < 0 || cfg.Delta >= 1 {
		return nil, fmt.Errorf("%w: delta must lie in [0, 1)", ErrBadConfig)
	}
	if cfg.Delta == 0 { //dplint:ignore floateq config sentinel: an unset Delta field is the exact zero value
		cfg.Delta = 0.05
	}
	return &Learner{cfg: cfg, cache: gibbs.NewRiskCache()}, nil
}

// Epsilon returns the configured per-Fit privacy budget.
func (l *Learner) Epsilon() float64 { return l.cfg.Epsilon }

// Estimator returns the Gibbs estimator calibrated to the configured ε
// for samples of size n (λ = ε·n / (2M), Theorem 4.1 inverted).
func (l *Learner) Estimator(n int) (*gibbs.Estimator, error) {
	if n <= 0 {
		return nil, fmt.Errorf("%w: sample size must be positive", ErrBadConfig)
	}
	lambda := gibbs.LambdaForEpsilon(l.cfg.Epsilon, l.cfg.Loss, n)
	est, err := gibbs.New(l.cfg.Loss, l.cfg.Thetas, l.cfg.LogPrior, lambda)
	if err != nil {
		return nil, err
	}
	// Risks depend only on (Loss, Thetas, data) — not on λ — so every
	// estimator this learner calibrates can share one cache.
	est.Parallel = l.cfg.Parallel
	est.Cache = l.cache
	return est, nil
}

// Certificate bundles everything the learner can prove about one Fit.
type Certificate struct {
	// Privacy is the Theorem 4.1 differential-privacy guarantee.
	Privacy mechanism.Guarantee
	// Lambda is the Gibbs inverse temperature used.
	Lambda float64
	// RiskBound bounds the posterior's expected TRUE risk (rescaled to
	// the loss's [0, M] range) with probability ≥ 1−Delta over samples —
	// Catoni's bound, Theorem 3.1.
	RiskBound float64
	// Delta is the confidence parameter of RiskBound.
	Delta float64
	// ExpEmpRisk is the posterior-expected empirical risk E_π̂ R̂.
	ExpEmpRisk float64
	// KL is KL(π̂ ‖ π) in nats.
	KL float64
}

// Fitted is the outcome of one private fit.
type Fitted struct {
	// Theta is the privately selected predictor.
	Theta []float64
	// Index is its position in the predictor space.
	Index int
	// Certificate carries the privacy and risk guarantees.
	Certificate Certificate
	// Degraded reports that the budget could not admit the configured
	// release and Policy was applied instead: a cached re-release
	// (DegradeFallback, no new ε spent) or a widened posterior
	// (DegradeWiden, the remaining ε spent).
	Degraded bool
	// Policy is the degradation policy in effect for this fit — the
	// learner's configured policy, or the per-call override passed to
	// FitPolicyCtx.
	Policy DegradePolicy
}

// Fit privately selects a predictor from d by sampling the calibrated
// Gibbs posterior, and returns it with its certificates. The release is
// registered with the accountant as a full ledger record — mechanism
// kind, ΔR̂ sensitivity, |Θ|, and clocked duration — and the whole fit
// runs under a "fit" trace span when an observer is wired. Fit is
// FitCtx under context.Background(): dataset and risk values are
// validated finite before any ε is spent, and the spend goes through
// the accountant's two-phase Reserve/Commit protocol, honoring a
// configured budget and DegradePolicy.
func (l *Learner) Fit(d *dataset.Dataset, g *rng.RNG) (*Fitted, error) {
	return l.FitCtx(context.Background(), d, g)
}

// certificate assembles the certificate of est's posterior for the risk
// vector risks on a sample of size n: one posterior normalization
// (Stats), then Catoni's bound.
func (l *Learner) certificate(est *gibbs.Estimator, n int, risks []float64) (Certificate, error) {
	st, err := est.Stats(risks)
	if err != nil {
		return Certificate{}, err
	}
	m := l.cfg.Loss.Bound()
	// Catoni's bound works on [0,1] losses; rescale.
	bound01, err := pacbayes.CatoniBound(st.ExpEmpRisk/m, st.KL, est.Lambda*m, n, l.cfg.Delta)
	if err != nil {
		return Certificate{}, err
	}
	return Certificate{
		Privacy:    est.Guarantee(n),
		Lambda:     est.Lambda,
		RiskBound:  bound01 * m,
		Delta:      l.cfg.Delta,
		ExpEmpRisk: st.ExpEmpRisk,
		KL:         st.KL,
	}, nil
}

// Certify evaluates the certificates without sampling, and charges no ε
// for them. Only Fit's θ draw is ε-DP: RiskBound, ExpEmpRisk and KL are
// exact, noise-free functions of d, so neighbouring datasets can give
// different values. They are diagnostics for the tenant who supplied d,
// not outputs to publish — and every Fit returns the same fields.
func (l *Learner) Certify(d *dataset.Dataset) (Certificate, error) {
	return l.CertifyCtx(context.Background(), d)
}

// InformationAccount computes the exact Figure-1 channel of this learner
// over an enumerable sample space and reports its leakage.
type InformationAccount struct {
	// MutualInformation is I(Ẑ;θ) in nats under the given sample
	// distribution.
	MutualInformation float64
	// Capacity is the channel's Shannon capacity in nats (max leakage
	// over sample distributions).
	Capacity float64
	// DPCap is the trivial ε·diam cap implied by the privacy guarantee.
	DPCap float64
	// ExpectedRisk is E_{Ẑ,θ} R̂_Ẑ(θ) over the channel.
	ExpectedRisk float64
}

// AccountInformation enumerates the learner's channel over the given
// sample-space points (all of size n) with log input masses logPX.
func (l *Learner) AccountInformation(inputs []*dataset.Dataset, logPX []float64) (*InformationAccount, error) {
	return l.AccountInformationCtx(context.Background(), inputs, logPX)
}
