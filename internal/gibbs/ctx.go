// The context-aware risk evaluation and the typed sentinels for the
// degenerate inputs that used to panic.
//
// RisksCtx is the one place the risk vector R̂ is evaluated or looked up;
// Risks delegates to it with context.Background(). The posterior
// quantities (LogPosterior, Sample, Stats) take that vector and return
// typed errors, so a pipeline that needs graceful faults — cancellation,
// budget degradation, chaos testing — cancels the risk grid and branches
// on errors.Is against the sentinels.
package gibbs

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/learn"
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
	key := contentKey(d)
	if r := e.Cache.lookup(key); r != nil {
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
	if e.Cache.store(key, r) {
		reg.Counter("dplearn_risk_cache_evictions_total",
			"risk vectors evicted from the full cache").Inc()
	}
	return append([]float64(nil), r...), nil
}
