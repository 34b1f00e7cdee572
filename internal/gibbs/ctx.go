// Context-aware, error-returning variants of the estimator's hot paths,
// plus the typed sentinels for the degenerate inputs that used to panic.
//
// The plain methods (Risks, LogPosterior, Sample, ...) delegate to the
// Ctx variants with context.Background() and keep their historical
// panic-on-degenerate contract; pipelines that need graceful faults —
// cancellation, budget degradation, chaos testing — call the Ctx
// variants and branch on errors.Is against the sentinels instead.
package gibbs

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/learn"
	"repro/internal/pacbayes"
	"repro/internal/rng"
)

// ErrDegeneratePosterior reports that the Gibbs posterior could not be
// normalized: the prior and risks put no mass anywhere (log-sum-exp of
// -Inf everywhere), so there is no distribution to sample.
var ErrDegeneratePosterior = errors.New("gibbs: degenerate posterior")

// ErrUnboundedLoss reports a loss with no finite bound M, for which the
// Theorem 4.1 certificate ε = 2·λ·M/n is vacuous and the λ ↔ ε
// calibration has no solution.
var ErrUnboundedLoss = errors.New("gibbs: unbounded loss")

// LambdaForEpsilonErr is LambdaForEpsilon returning typed errors
// instead of panicking: ErrBadConfig-wrapped for non-positive ε or n,
// ErrUnboundedLoss when the loss has no finite bound.
func LambdaForEpsilonErr(epsilon float64, loss learn.Loss, n int) (float64, error) {
	if epsilon <= 0 || math.IsNaN(epsilon) || n <= 0 {
		return 0, fmt.Errorf("%w: LambdaForEpsilon requires epsilon > 0 and n > 0 (got ε=%v, n=%d)", ErrBadConfig, epsilon, n)
	}
	m := loss.Bound()
	if math.IsInf(m, 1) || m <= 0 {
		return 0, fmt.Errorf("%w: cannot calibrate λ for ε=%v (loss %q has bound %v)", ErrUnboundedLoss, epsilon, loss.Name(), m)
	}
	return epsilon * float64(n) / (2 * m), nil
}

// RisksCtx is Risks with cancellation and panic isolation (see
// learn.RiskVectorCtx). Cache bookkeeping is identical to Risks; a
// canceled evaluation stores nothing.
func (e *Estimator) RisksCtx(ctx context.Context, d *dataset.Dataset) ([]float64, error) {
	if e.Cache == nil {
		return learn.RiskVectorCtx(ctx, e.Loss, e.Thetas, d, e.Parallel)
	}
	reg := e.Parallel.Obs.Reg()
	fp := d.Fingerprint()
	if r := e.Cache.lookup(fp); r != nil {
		reg.Counter("dplearn_risk_cache_hits_total",
			"risk-vector cache lookups served from memory").Inc()
		return append([]float64(nil), r...), nil
	}
	reg.Counter("dplearn_risk_cache_misses_total",
		"risk-vector cache lookups that evaluated the risk grid").Inc()
	r, err := learn.RiskVectorCtx(ctx, e.Loss, e.Thetas, d, e.Parallel)
	if err != nil {
		return nil, err
	}
	if e.Cache.store(fp, r) {
		reg.Counter("dplearn_risk_cache_evictions_total",
			"risk vectors evicted from the full cache").Inc()
	}
	return append([]float64(nil), r...), nil
}

// LogPosteriorCtx is LogPosterior with cancellation, panic isolation,
// and a typed ErrDegeneratePosterior instead of the historical panic.
func (e *Estimator) LogPosteriorCtx(ctx context.Context, d *dataset.Dataset) ([]float64, error) {
	risks, err := e.RisksCtx(ctx, d)
	if err != nil {
		return nil, err
	}
	o := e.Parallel.Obs
	sp := o.Span("gibbs.posterior")
	start := o.Now()
	post, perr := pacbayes.GibbsLogPosterior(e.logPriorOrUniform(), risks, e.Lambda)
	o.Reg().Histogram("dplearn_gibbs_posterior_ticks",
		"posterior-normalization duration in clock ticks", posteriorTickBuckets).
		Observe(float64(o.Now() - start))
	sp.SetAttr("thetas", len(e.Thetas))
	sp.End()
	if perr != nil {
		return nil, fmt.Errorf("%w: %v", ErrDegeneratePosterior, perr)
	}
	return post, nil
}

// SampleCtx is Sample with cancellation and typed errors: the risk grid
// honors ctx, and a posterior with no admissible predictor returns
// ErrDegeneratePosterior instead of corrupting the draw.
func (e *Estimator) SampleCtx(ctx context.Context, d *dataset.Dataset, g *rng.RNG) (int, error) {
	risks, err := e.RisksCtx(ctx, d)
	if err != nil {
		return 0, err
	}
	prior := e.logPriorOrUniform()
	logw := make([]float64, len(e.Thetas))
	degenerate := true
	for i := range logw {
		logw[i] = prior[i] - e.Lambda*risks[i]
		if !math.IsInf(logw[i], -1) && !math.IsNaN(logw[i]) {
			degenerate = false
		}
	}
	if degenerate {
		return 0, fmt.Errorf("%w: every predictor has zero posterior weight", ErrDegeneratePosterior)
	}
	return g.CategoricalLog(logw), nil
}

// StatsCtx is Stats with cancellation and typed errors.
func (e *Estimator) StatsCtx(ctx context.Context, d *dataset.Dataset) (pacbayes.PosteriorStats, error) {
	post, err := e.LogPosteriorCtx(ctx, d)
	if err != nil {
		return pacbayes.PosteriorStats{}, err
	}
	risks, err := e.RisksCtx(ctx, d)
	if err != nil {
		return pacbayes.PosteriorStats{}, err
	}
	return pacbayes.StatsFor(post, e.logPriorOrUniform(), risks)
}
