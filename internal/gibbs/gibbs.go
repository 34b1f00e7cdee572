// Package gibbs implements the Gibbs estimator — the object at the center
// of the paper. Over a finite predictor space Θ it is the posterior
//
//	dπ̂_λ(θ) ∝ exp(−λ·R̂_Ẑ(θ)) dπ(θ)          (Lemma 3.2)
//
// which is simultaneously (a) the minimizer of the PAC-Bayes linearized
// bound, and (b) an instance of McSherry–Talwar's exponential mechanism
// with quality q = −R̂ and parameter λ, hence (2·λ·ΔR̂)-differentially
// private (Theorem 4.1), where ΔR̂ = sup|l|/n is the global sensitivity of
// the empirical risk.
//
// The package provides the exact finite-Θ estimator (posterior, sampling,
// privacy certificate, λ↔ε calibration) and a Metropolis–Hastings sampler
// for continuous predictor spaces.
package gibbs

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/learn"
	"repro/internal/mechanism"
	"repro/internal/pacbayes"
	"repro/internal/parallel"
	"repro/internal/rng"
)

// ErrBadConfig is returned for invalid estimator configuration.
var ErrBadConfig = errors.New("gibbs: invalid configuration")

// Estimator is the finite-Θ Gibbs estimator.
type Estimator struct {
	// Loss must be bounded (Bound() < ∞) for the privacy certificate to
	// be meaningful.
	Loss learn.Loss
	// Thetas is the finite predictor space Θ.
	Thetas [][]float64
	// LogPrior is the normalized log-prior π over Thetas; nil means
	// uniform.
	LogPrior []float64
	// Lambda is the inverse temperature λ (the exponential-mechanism
	// parameter).
	Lambda float64
	// Parallel controls worker fan-out for the risk grid and the
	// posterior reductions. The zero value uses all CPUs; every setting
	// produces bit-identical results (see package parallel).
	Parallel parallel.Options
	// Cache optionally memoizes the risk vectors Risks and RisksCtx
	// return, keyed by a SHA-256 of the data's bits, so repeated calls on
	// the same data evaluate the O(|Θ|·n) risk grid once. The cache must
	// be dedicated to this (Loss, Thetas) pair; core.Learner threads one
	// through every estimator it calibrates. Nil disables memoization.
	Cache *RiskCache
}

// New validates and constructs an Estimator.
func New(loss learn.Loss, thetas [][]float64, logPrior []float64, lambda float64) (*Estimator, error) {
	if loss == nil || len(thetas) == 0 || lambda <= 0 || math.IsNaN(lambda) {
		return nil, ErrBadConfig
	}
	if logPrior != nil && len(logPrior) != len(thetas) {
		return nil, ErrBadConfig
	}
	return &Estimator{Loss: loss, Thetas: thetas, LogPrior: logPrior, Lambda: lambda}, nil
}

// logPriorOrUniform returns the prior in log space.
func (e *Estimator) logPriorOrUniform() []float64 {
	if e.LogPrior != nil {
		return e.LogPrior
	}
	out := make([]float64, len(e.Thetas))
	lp := -math.Log(float64(len(e.Thetas)))
	for i := range out {
		out[i] = lp
	}
	return out
}

// Risks returns the per-θ empirical risks on d, evaluated with the
// estimator's fan-out options and memoized in Cache when one is set.
// The returned slice is the caller's to keep (cached vectors are copied
// out), and its values are bit-identical for every worker count. Cache
// hits, misses, and evictions are counted on the wired metrics registry.
func (e *Estimator) Risks(d *dataset.Dataset) []float64 {
	r, err := e.RisksCtx(context.Background(), d)
	if err != nil {
		// Background contexts never cancel; the only possible error is a
		// recovered worker panic, re-raised to keep the plain contract.
		panic(err)
	}
	return r
}

// LogPosterior returns the normalized Gibbs log-posterior for the risk
// vector risks = R̂_Ẑ, one entry per predictor, as Risks or RisksCtx
// return it. The posterior depends on the sample only through that
// vector (Lemma 3.2), so a caller evaluates it once and hands it to every
// posterior quantity. The normalization step (log-sum-exp over Θ) is
// timed on the wired observer as the dplearn_gibbs_posterior_ticks
// histogram and a gibbs.posterior span. A posterior with no admissible
// predictor returns ErrDegeneratePosterior.
func (e *Estimator) LogPosterior(risks []float64) ([]float64, error) {
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

// posteriorTickBuckets spans sub-microsecond logical ticks up to
// hundreds of milliseconds of wall time (clock-unit agnostic decades).
var posteriorTickBuckets = []float64{1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8}

// LogProbabilities implements the audit.DiscreteMechanism interface: the
// mechanism's exact output distribution on d, from one Risks call. A
// posterior with no admissible predictor panics with an error wrapping
// ErrDegeneratePosterior.
func (e *Estimator) LogProbabilities(d *dataset.Dataset) []float64 {
	post, err := e.LogPosterior(e.Risks(d))
	if err != nil {
		panic(err)
	}
	return post
}

// Sample draws a predictor index from the Gibbs posterior for the risk
// vector risks (see LogPosterior), through the unnormalized log-weights
// log π − λ·R̂. A posterior with no admissible predictor returns
// ErrDegeneratePosterior instead of corrupting the draw.
func (e *Estimator) Sample(risks []float64, g *rng.RNG) (int, error) {
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

// SampleTheta draws a predictor vector from the Gibbs posterior on d,
// from one Risks call. A posterior with no admissible predictor panics
// with an error wrapping ErrDegeneratePosterior.
func (e *Estimator) SampleTheta(d *dataset.Dataset, g *rng.RNG) []float64 {
	i, err := e.Sample(e.Risks(d), g)
	if err != nil {
		panic(err)
	}
	return append([]float64(nil), e.Thetas[i]...)
}

// RiskSensitivity returns ΔR̂ = Bound/n, the global sensitivity of the
// empirical risk under replace-one neighbors for samples of size n.
func (e *Estimator) RiskSensitivity(n int) float64 {
	return learn.SwapSensitivity(e.Loss, n)
}

// Guarantee returns the Theorem 4.1 privacy certificate for samples of
// size n: the Gibbs posterior at inverse temperature λ is 2·λ·ΔR̂-DP.
// For an unbounded loss the guarantee is vacuous (ε = +Inf).
func (e *Estimator) Guarantee(n int) mechanism.Guarantee {
	return mechanism.Guarantee{Epsilon: 2 * e.Lambda * e.RiskSensitivity(n)}
}

// PosteriorMeanTheta returns E_{θ~π̂} θ, the posterior-mean parameter
// vector (a useful deterministic summary, though releasing it is NOT
// covered by the sampling privacy certificate). It panics like
// LogProbabilities.
func (e *Estimator) PosteriorMeanTheta(d *dataset.Dataset) []float64 {
	post := e.LogProbabilities(d)
	weights := parallel.Map(len(post), e.Parallel, func(i int) float64 {
		if math.IsInf(post[i], -1) {
			return 0
		}
		//dplint:ignore expdomain bounded argument: post[i] is a normalized log-posterior entry, so it is <= 0 and exp stays in (0,1]
		return math.Exp(post[i])
	})
	dim := len(e.Thetas[0])
	mean := make([]float64, dim)
	for j := 0; j < dim; j++ {
		mean[j] = parallel.Sum(len(weights), e.Parallel, func(i int) float64 {
			return weights[i] * e.Thetas[i][j]
		})
	}
	return mean
}

// Stats returns the PAC-Bayes statistics (expected empirical risk and
// KL(π̂‖π)) of the Gibbs posterior for the risk vector risks, ready to
// plug into the bounds. It normalizes the posterior once, through
// LogPosterior, and returns its errors.
func (e *Estimator) Stats(risks []float64) (pacbayes.PosteriorStats, error) {
	post, err := e.LogPosterior(risks)
	if err != nil {
		return pacbayes.PosteriorStats{}, err
	}
	return pacbayes.StatsFor(post, e.logPriorOrUniform(), risks)
}

// UtilityBound returns the McSherry–Talwar utility guarantee transferred
// to the Gibbs estimator: with probability at least 1−β over the sampled
// predictor, its empirical risk exceeds the ERM's by at most
//
//	(ln|Θ| + ln(1/β)) / λ
//
// (for a uniform prior; an informative prior can only tighten the
// constant for high-prior predictors).
func (e *Estimator) UtilityBound(beta float64) float64 {
	if beta <= 0 || beta >= 1 {
		panic("gibbs: UtilityBound requires beta in (0,1)")
	}
	return (math.Log(float64(len(e.Thetas))) + math.Log(1/beta)) / e.Lambda
}

// LambdaForEpsilon returns the inverse temperature λ that makes the Gibbs
// estimator exactly ε-DP for a [0, M]-bounded loss on samples of size n
// (inverting Theorem 4.1): λ = ε·n/(2M). It panics on non-positive
// arguments (wrapping ErrBadConfig) or an unbounded loss (wrapping
// ErrUnboundedLoss); use LambdaForEpsilonErr to receive the typed error
// instead.
func LambdaForEpsilon(epsilon float64, loss learn.Loss, n int) float64 {
	lambda, err := LambdaForEpsilonErr(epsilon, loss, n)
	if err != nil {
		panic(err)
	}
	return lambda
}
