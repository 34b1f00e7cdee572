// Package dplearn is a Go reproduction of "Differentially-private
// Learning and Information Theory" (Darakhshan Mir, PAIS/EDBT 2012).
//
// The paper identifies the Gibbs posterior that minimizes PAC-Bayesian
// generalization bounds with McSherry–Talwar's exponential mechanism, and
// recasts differentially-private learning as the design of an information
// channel from the training sample to the released predictor that
// minimizes empirical risk regularized by mutual information. This
// package re-exports the user-facing API assembled from the internal
// subsystems:
//
//   - Learner / Config / Fitted / Certificate — private learning with
//     privacy (Theorem 4.1) and PAC-Bayes risk (Theorem 3.1) certificates
//     (internal/core).
//   - The DP mechanism family (internal/mechanism), the Gibbs estimator
//     (internal/gibbs), PAC-Bayes bounds (internal/pacbayes), the exact
//     Figure-1 information channel (internal/channel), the privacy
//     auditor (internal/audit), and the experiment suite regenerating
//     every validated table (internal/experiments).
//
// # Quickstart
//
//	grid := learn.NewGrid(-2, 2, 1, 17)
//	l, err := dplearn.NewLearner(dplearn.Config{
//		Loss:    learn.ZeroOneLoss{},
//		Thetas:  grid.Thetas(),
//		Epsilon: 1.0,
//	})
//	fit, err := l.Fit(trainingData, rng.New(42))
//	// fit.Theta is the private predictor;
//	// fit.Certificate.Privacy is exactly 1.0-DP (Theorem 4.1);
//	// fit.Certificate.RiskBound bounds its true risk w.p. 0.95 (Theorem 3.1).
//
// See the examples/ directory for runnable programs and EXPERIMENTS.md
// for the reproduction results.
package dplearn

import (
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/mechanism"
	"repro/internal/rng"
)

// Accountant composes the privacy cost of repeated releases on the same
// data. See mechanism.Accountant.
type Accountant = mechanism.Accountant

// Config configures a private learner. See core.Config. Config.Parallel
// sets the worker fan-out for the learner's hot paths (risk grids,
// channel sums); results are bit-identical for every worker count. The
// Learner computes the risk vector R̂ once per Fit or Certify call, and
// memoizes risk vectors keyed by a SHA-256 of the data's bits, so Fit +
// Certify + AccountInformation on the same data evaluate the O(|Θ|·n)
// risk grid once.
type Config = core.Config

// Learner is a configured private learner. See core.Learner.
type Learner = core.Learner

// Fitted is the outcome of a private fit. See core.Fitted.
type Fitted = core.Fitted

// Certificate bundles the privacy and risk guarantees of a fit.
// See core.Certificate.
type Certificate = core.Certificate

// InformationAccount reports the exact leakage of a learner's channel.
// See core.InformationAccount.
type InformationAccount = core.InformationAccount

// DensityEstimate is a piecewise-constant density. See core.DensityEstimate.
type DensityEstimate = core.DensityEstimate

// PrivateSummary is an ε-DP release of one feature's basic statistics.
// See core.PrivateSummary.
type PrivateSummary = core.PrivateSummary

// SummaryConfig configures a PrivateSummary release. See core.SummaryConfig.
type SummaryConfig = core.SummaryConfig

// Dataset re-exports the sample abstraction.
type Dataset = dataset.Dataset

// Example re-exports a single record Z = (X, Y).
type Example = dataset.Example

// Guarantee is a differential-privacy price tag (ε, δ). See
// mechanism.Guarantee.
type Guarantee = mechanism.Guarantee

// DegradePolicy selects what Fit does when the accountant's budget
// cannot admit the planned release. See core.DegradePolicy.
type DegradePolicy = core.DegradePolicy

// The degrade policies: refuse the fit, re-release the cached
// predictor, or widen the posterior to the remaining budget.
const (
	DegradeRefuse   = core.DegradeRefuse
	DegradeFallback = core.DegradeFallback
	DegradeWiden    = core.DegradeWiden
)

// ParseDegradePolicy parses the CLI spelling of a DegradePolicy
// (refuse|fallback|widen). See core.ParseDegradePolicy.
func ParseDegradePolicy(s string) (DegradePolicy, error) { return core.ParseDegradePolicy(s) }

// ErrBadConfig is returned for invalid learner configuration.
var ErrBadConfig = core.ErrBadConfig

// ErrBudgetExhausted reports a release denied by the accountant's
// budget. See mechanism.ErrBudgetExhausted.
var ErrBudgetExhausted = mechanism.ErrBudgetExhausted

// ErrNonFiniteInput reports NaN/Inf dataset values or risks, rejected
// before any ε is spent. See core.ErrNonFiniteInput.
var ErrNonFiniteInput = core.ErrNonFiniteInput

// NewLearner validates a Config and returns a Learner.
func NewLearner(cfg Config) (*Learner, error) { return core.NewLearner(cfg) }

// NewRNG returns a deterministic random source for Fit and the samplers.
func NewRNG(seed int64) *rng.RNG { return rng.New(seed) }

// PrivateHistogramDensity releases an ε-DP histogram density (Laplace
// mechanism + post-processing), registering the spent ε with acct (nil to
// skip accounting). See core.PrivateHistogramDensity.
func PrivateHistogramDensity(d *Dataset, j, bins int, lo, hi, epsilon float64, acct *Accountant, g *rng.RNG) (*DensityEstimate, error) { //dplint:ignore epscheck thin wrapper: core.PrivateHistogramDensity validates epsilon before use
	return core.PrivateHistogramDensity(d, j, bins, lo, hi, epsilon, acct, g)
}

// GibbsHistogramDensity selects a histogram density by the exponential
// mechanism, registering the spent ε with acct (nil to skip accounting).
// See core.GibbsHistogramDensity.
func GibbsHistogramDensity(d *Dataset, j int, binChoices []int, lo, hi, clip, epsilon float64, acct *Accountant, g *rng.RNG) (*DensityEstimate, int, error) { //dplint:ignore epscheck thin wrapper: core.GibbsHistogramDensity validates epsilon before use
	return core.GibbsHistogramDensity(d, j, binChoices, lo, hi, clip, epsilon, acct, g)
}

// ReleaseSummary computes an ε-DP summary of one feature.
// See core.ReleaseSummary.
func ReleaseSummary(d *Dataset, cfg SummaryConfig, g *rng.RNG) (*PrivateSummary, error) {
	return core.ReleaseSummary(d, cfg, g)
}
