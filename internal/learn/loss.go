// Package learn implements the statistical prediction framework of
// Section 2.2 of the paper: loss functions lθ(Z) with explicit bounds,
// empirical and true risk, finite predictor spaces Θ (grids), empirical
// risk minimization, gradient-descent learners for logistic and ridge
// regression, and the differentially-private ERM baselines of Chaudhuri
// et al. (output perturbation and objective perturbation) that the paper
// positions the Gibbs estimator against.
//
// Bounded losses matter because the global sensitivity of the empirical
// risk R̂_Ẑ(θ) = (1/n) Σ lθ(Zᵢ) under replace-one neighbors is
// sup|l|/n-ish — precisely the ΔR̂ in Theorem 4.1. Every Loss here
// reports a SwapSensitivity so mechanisms can calibrate exactly.
package learn

import (
	"context"
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/mathx"
	"repro/internal/parallel"
)

// Loss scores a predictor θ on a single example. Implementations must be
// deterministic.
type Loss interface {
	// Loss returns lθ(z) ≥ 0.
	Loss(theta []float64, e dataset.Example) float64
	// Bound returns an upper bound M with lθ(z) ∈ [0, M] for all θ in the
	// intended predictor space and all admissible examples; +Inf if
	// unbounded.
	Bound() float64
	// Name identifies the loss in reports.
	Name() string
}

// SwapSensitivity returns the global sensitivity of the empirical risk
// over replace-one neighbors for a [0, M]-bounded loss on samples of size
// n: ΔR̂ = M/n (one term of the average changes by at most M).
func SwapSensitivity(l Loss, n int) float64 {
	if n <= 0 {
		panic("learn: SwapSensitivity requires n > 0")
	}
	return l.Bound() / float64(n)
}

// ZeroOneLoss is the classification error 1{sign(θ·x) ≠ y} for labels
// y ∈ {−1, +1}. Ties (θ·x = 0) count as errors. Bounded by 1.
type ZeroOneLoss struct{}

// Loss implements Loss.
func (ZeroOneLoss) Loss(theta []float64, e dataset.Example) float64 {
	if mathx.Dot(theta, e.X)*e.Y > 0 {
		return 0
	}
	return 1
}

// Bound implements Loss.
func (ZeroOneLoss) Bound() float64 { return 1 }

// Name implements Loss.
func (ZeroOneLoss) Name() string { return "zero-one" }

// LogisticLoss is log(1 + exp(−y·θ·x)) for y ∈ {−1, +1}. Unbounded in
// general; bounded when ‖θ‖ and ‖x‖ are (see ClippedLoss or the grid's
// LogisticBound helper).
type LogisticLoss struct{}

// Loss implements Loss.
func (LogisticLoss) Loss(theta []float64, e dataset.Example) float64 {
	return -mathx.LogSigmoid(e.Y * mathx.Dot(theta, e.X))
}

// Bound implements Loss (unbounded without clipping).
func (LogisticLoss) Bound() float64 { return math.Inf(1) }

// Name implements Loss.
func (LogisticLoss) Name() string { return "logistic" }

// HingeLoss is max(0, 1 − y·θ·x), the SVM loss. Unbounded without
// clipping.
type HingeLoss struct{}

// Loss implements Loss.
func (HingeLoss) Loss(theta []float64, e dataset.Example) float64 {
	v := 1 - e.Y*mathx.Dot(theta, e.X)
	if v < 0 {
		return 0
	}
	return v
}

// Bound implements Loss.
func (HingeLoss) Bound() float64 { return math.Inf(1) }

// Name implements Loss.
func (HingeLoss) Name() string { return "hinge" }

// SquaredLoss is (θ·x − y)². Unbounded without clipping.
type SquaredLoss struct{}

// Loss implements Loss.
func (SquaredLoss) Loss(theta []float64, e dataset.Example) float64 {
	r := mathx.Dot(theta, e.X) - e.Y
	return r * r
}

// Bound implements Loss.
func (SquaredLoss) Bound() float64 { return math.Inf(1) }

// Name implements Loss.
func (SquaredLoss) Name() string { return "squared" }

// AbsoluteLoss is |θ·x − y|. Unbounded without clipping.
type AbsoluteLoss struct{}

// Loss implements Loss.
func (AbsoluteLoss) Loss(theta []float64, e dataset.Example) float64 {
	return math.Abs(mathx.Dot(theta, e.X) - e.Y)
}

// Bound implements Loss.
func (AbsoluteLoss) Bound() float64 { return math.Inf(1) }

// Name implements Loss.
func (AbsoluteLoss) Name() string { return "absolute" }

// HuberLoss is the Huber loss with transition delta: quadratic inside
// [−δ, δ], linear outside. Unbounded without clipping.
type HuberLoss struct {
	Delta float64
}

// Loss implements Loss.
func (h HuberLoss) Loss(theta []float64, e dataset.Example) float64 {
	r := math.Abs(mathx.Dot(theta, e.X) - e.Y)
	if r <= h.Delta {
		return 0.5 * r * r
	}
	return h.Delta * (r - 0.5*h.Delta)
}

// Bound implements Loss.
func (HuberLoss) Bound() float64 { return math.Inf(1) }

// Name implements Loss.
func (h HuberLoss) Name() string { return fmt.Sprintf("huber(%.3g)", h.Delta) }

// ClippedLoss wraps an arbitrary loss, truncating it at Max. Clipping is
// the standard route to the bounded losses the exponential mechanism /
// Gibbs estimator needs (Theorem 4.1): the clipped empirical risk has
// sensitivity exactly Max/n.
type ClippedLoss struct {
	Inner Loss
	Max   float64
}

// NewClippedLoss validates Max > 0.
func NewClippedLoss(inner Loss, maxv float64) ClippedLoss {
	if maxv <= 0 || math.IsNaN(maxv) {
		panic("learn: ClippedLoss requires Max > 0")
	}
	return ClippedLoss{Inner: inner, Max: maxv}
}

// Loss implements Loss.
func (c ClippedLoss) Loss(theta []float64, e dataset.Example) float64 {
	v := c.Inner.Loss(theta, e)
	if v > c.Max {
		return c.Max
	}
	return v
}

// Bound implements Loss.
func (c ClippedLoss) Bound() float64 { return c.Max }

// Name implements Loss.
func (c ClippedLoss) Name() string { return fmt.Sprintf("clipped(%s,%.3g)", c.Inner.Name(), c.Max) }

// EmpiricalRisk returns R̂_Ẑ(θ) = (1/n) Σ lθ(Zᵢ). It panics on an empty
// dataset.
func EmpiricalRisk(l Loss, theta []float64, d *dataset.Dataset) float64 {
	if d.Len() == 0 {
		panic("learn: EmpiricalRisk of empty dataset")
	}
	if _, ok := l.(ZeroOneLoss); ok {
		return zeroOneRisk(theta, d)
	}
	var k mathx.KahanSum
	for _, e := range d.Examples {
		k.Add(l.Loss(theta, e))
	}
	return k.Sum() / float64(d.Len())
}

// zeroOneRisk is EmpiricalRisk of ZeroOneLoss, bit for bit, as a count
// of mistakes. Every partial Kahan sum of 0/1 terms is an integer below
// 2⁵³, so each Add is exact, the compensation stays 0 and the sum is the
// count. The inner loop is mathx.Dot inlined, product rounding included,
// so the sign test reads the same compensated dot bits as
// ZeroOneLoss.Loss, ties and NaN included.
func zeroOneRisk(theta []float64, d *dataset.Dataset) float64 {
	m := 0
	for _, e := range d.Examples {
		if len(e.X) != len(theta) {
			panic("mathx: Dot length mismatch")
		}
		var k mathx.KahanSum
		for j := range theta {
			k.Add(float64(theta[j] * e.X[j]))
		}
		if !(k.Sum()*e.Y > 0) {
			m++
		}
	}
	return float64(m) / float64(d.Len())
}

// RiskVector evaluates the empirical risk of every θ in thetas on d with
// the default fan-out (all CPUs). The result is identical to the
// sequential computation: each entry is an independent pure function of
// (θ, d).
func RiskVector(l Loss, thetas [][]float64, d *dataset.Dataset) []float64 {
	return RiskVectorOpts(l, thetas, d, parallel.Options{})
}

// riskGrain is the fan-out grain for risk evaluation: one index is a
// full O(n) empirical-risk pass, so even small predictor grids split
// into enough chunks to feed every CPU.
const riskGrain = 8

// RiskVectorOpts is RiskVector under an explicit parallel.Options.
// Results are bit-for-bit identical for every worker count.
func RiskVectorOpts(l Loss, thetas [][]float64, d *dataset.Dataset, opts parallel.Options) []float64 {
	out, err := RiskVectorCtx(context.Background(), l, thetas, d, opts)
	if err != nil {
		// Background contexts never cancel; the only possible error is a
		// recovered worker panic, and the non-ctx helpers keep the
		// crash-on-panic contract.
		panic(err)
	}
	return out
}

// RiskVectorCtx is RiskVectorOpts with cancellation and panic isolation:
// the context is checked at the engine's chunk-claim boundaries, and a
// panic inside a loss evaluation surfaces as a *parallel.WorkerError. The
// chunk geometry is unchanged, so a completed call is bit-identical to
// RiskVectorOpts.
func RiskVectorCtx(ctx context.Context, l Loss, thetas [][]float64, d *dataset.Dataset, opts parallel.Options) ([]float64, error) {
	// Fan-out only pays off when there is real work to split.
	if len(thetas)*d.Len() < 1<<14 {
		opts = parallel.Options{Workers: 1}
	}
	return parallel.MapGrainCtx(ctx, len(thetas), riskGrain, opts, func(i int) float64 {
		return EmpiricalRisk(l, thetas[i], d)
	})
}

// TrueRiskMC estimates the true risk E_Z lθ(Z) by Monte Carlo over fresh
// data drawn from gen.
func TrueRiskMC(l Loss, theta []float64, gen func() dataset.Example, nMC int) float64 {
	var k mathx.KahanSum
	for i := 0; i < nMC; i++ {
		k.Add(l.Loss(theta, gen()))
	}
	return k.Sum() / float64(nMC)
}
