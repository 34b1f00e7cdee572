// Package channel implements the information-theoretic model of Section
// 4.1 and Figure 1 of the paper: differentially-private learning viewed as
// an information channel whose input is the sample Ẑ and whose output is
// the predictor θ, with transition kernel p(θ|Ẑ) given by the learner's
// posterior.
//
// Over an enumerable sample space the channel matrix is exact, so the
// mutual information I(Ẑ;θ), the paper's regularized objective
// E R̂ + (1/λ)·I(Ẑ;θ), and the DP leakage caps can all be computed
// without estimation error. The package also implements the alternating
// minimization of that objective (a rate–distortion / Blahut–Arimoto
// iteration) whose fixed point is exactly a Gibbs channel — the
// computational content of Theorem 4.2.
package channel

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/dataset"
	"repro/internal/infotheory"
	"repro/internal/mathx"
	"repro/internal/parallel"
)

// ErrBadChannel is returned for malformed channel construction inputs.
var ErrBadChannel = errors.New("channel: invalid construction")

// DiscreteMechanism mirrors audit.DiscreteMechanism: a learner exposing
// its exact posterior over a finite predictor space.
type DiscreteMechanism interface {
	LogProbabilities(d *dataset.Dataset) []float64
}

// Channel is a discrete memoryless channel from an enumerated sample
// space to a finite predictor space, with an input distribution attached.
type Channel struct {
	// LogPX is the normalized log input distribution over sample-space
	// points.
	LogPX []float64
	// Rows holds normalized log transition rows: Rows[i][j] = log p(θⱼ | Ẑᵢ).
	Rows [][]float64
	// Parallel controls worker fan-out for the leakage, marginal, and
	// capacity sums. The zero value uses all CPUs; every setting yields
	// bit-identical results (fixed chunk geometry, ordered reduction).
	Parallel parallel.Options
}

// rowGrain is the fan-out grain for per-input work: one index is a full
// posterior enumeration or a KL over a row, so channels with few inputs
// still split across CPUs.
const rowGrain = 1

// FromMechanism enumerates the channel of a discrete learner over the
// given sample-space points with the given (unnormalized) log input
// masses, one posterior row per worker chunk (all CPUs). The mechanism's
// LogProbabilities is called from multiple goroutines and must be safe
// for concurrent use — true for every mechanism in this module (they
// are pure up to the internally-locked risk cache). Use FromMechanismOpts
// with Workers: 1 for a mechanism that is not.
func FromMechanism(inputs []*dataset.Dataset, logPX []float64, m DiscreteMechanism) (*Channel, error) {
	return FromMechanismOpts(inputs, logPX, m, parallel.Options{})
}

// FromMechanismOpts is FromMechanism under an explicit parallel.Options.
// The enumerated rows are identical for every worker count: each row is
// an independent pure function of its input point.
func FromMechanismOpts(inputs []*dataset.Dataset, logPX []float64, m DiscreteMechanism, opts parallel.Options) (*Channel, error) {
	return FromMechanismCtx(context.Background(), inputs, logPX, m, opts)
}

// FromMechanismCtx is FromMechanismOpts with cancellation and panic
// isolation: the enumeration honors ctx at the engine's chunk-claim
// boundaries, and a panic inside the mechanism's posterior surfaces as a
// *parallel.WorkerError instead of crashing the process. A completed
// enumeration is bit-identical to FromMechanismOpts.
func FromMechanismCtx(ctx context.Context, inputs []*dataset.Dataset, logPX []float64, m DiscreteMechanism, opts parallel.Options) (*Channel, error) {
	if len(inputs) == 0 || len(inputs) != len(logPX) || m == nil {
		return nil, ErrBadChannel
	}
	px, logZ := mathx.LogNormalize(logPX)
	if math.IsInf(logZ, -1) {
		return nil, ErrBadChannel
	}
	rows := make([][]float64, len(inputs))
	if err := parallel.ForGrainCtx(ctx, len(inputs), rowGrain, opts, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			rows[i] = m.LogProbabilities(inputs[i])
		}
	}); err != nil {
		return nil, fmt.Errorf("channel: enumerating mechanism rows: %w", err)
	}
	width := len(rows[0])
	for i, r := range rows {
		if len(r) != width {
			return nil, fmt.Errorf("channel: ragged mechanism output at input %d", i)
		}
	}
	return &Channel{LogPX: px, Rows: rows, Parallel: opts}, nil
}

// NumInputs returns the sample-space size.
func (c *Channel) NumInputs() int { return len(c.LogPX) }

// NumOutputs returns the predictor-space size.
func (c *Channel) NumOutputs() int { return len(c.Rows[0]) }

// Joint returns the joint distribution p(Ẑ, θ) in the linear domain.
func (c *Channel) Joint() (*infotheory.Joint, error) {
	table := make([][]float64, c.NumInputs())
	parallel.ForGrain(c.NumInputs(), rowGrain, c.Parallel, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			table[i] = make([]float64, c.NumOutputs())
			for j := range table[i] {
				table[i][j] = math.Exp(c.LogPX[i] + c.Rows[i][j])
			}
		}
	})
	return infotheory.NewJoint(table)
}

// MutualInformation returns the exact I(Ẑ;θ) in nats.
func (c *Channel) MutualInformation() (float64, error) {
	j, err := c.Joint()
	if err != nil {
		return 0, err
	}
	return j.MutualInformation(), nil
}

// OutputMarginalLog returns log p(θ) = log Σᵢ p(Ẑᵢ)·p(θ|Ẑᵢ) — the
// paper's "optimal prior" E_Ẑ π̂ (Section 4). Columns fan out across
// workers; each output entry is an independent LogSumExp over inputs.
func (c *Channel) OutputMarginalLog() []float64 {
	out := make([]float64, c.NumOutputs())
	nIn := c.NumInputs()
	parallel.ForGrain(c.NumOutputs(), 32, c.Parallel, func(lo, hi int) {
		buf := make([]float64, nIn)
		for j := lo; j < hi; j++ {
			for i := range buf {
				buf[i] = c.LogPX[i] + c.Rows[i][j]
			}
			out[j] = mathx.LogSumExp(buf)
		}
	})
	return out
}

// ExpectedValue returns E over the joint of vals[i][j] (e.g. per-input,
// per-θ empirical risks), reduced in row-major order over fixed chunks.
func (c *Channel) ExpectedValue(vals [][]float64) (float64, error) {
	if len(vals) != c.NumInputs() {
		return 0, ErrBadChannel
	}
	nOut := c.NumOutputs()
	for _, row := range vals {
		if len(row) != nOut {
			return 0, ErrBadChannel
		}
	}
	total := parallel.Sum(c.NumInputs()*nOut, c.Parallel, func(idx int) float64 {
		i, j := idx/nOut, idx%nOut
		w := math.Exp(c.LogPX[i] + c.Rows[i][j])
		if w > 0 {
			return w * vals[i][j]
		}
		return 0
	})
	return total, nil
}

// Objective returns the paper's Section-4 regularized objective
//
//	J(W) = E_{Ẑ,θ} R̂_Ẑ(θ) + (1/λ)·I(Ẑ;θ)
//
// for this channel under the given per-input per-θ risks.
func (c *Channel) Objective(risks [][]float64, lambda float64) (float64, error) {
	if lambda <= 0 {
		return 0, ErrBadChannel
	}
	expRisk, err := c.ExpectedValue(risks)
	if err != nil {
		return 0, err
	}
	mi, err := c.MutualInformation()
	if err != nil {
		return 0, err
	}
	return expRisk + mi/lambda, nil
}

// ExpectedKLToPrior returns E_Ẑ KL(p(·|Ẑ) ‖ π) for an explicit log-prior
// π. By the decomposition in Section 4, this equals I(Ẑ;θ) +
// KL(marginal ‖ π), so it is minimized (equal to the MI) when π is the
// output marginal.
func (c *Channel) ExpectedKLToPrior(logPrior []float64) (float64, error) {
	if len(logPrior) != c.NumOutputs() {
		return 0, ErrBadChannel
	}
	var mu sync.Mutex
	var firstErr error
	total := parallel.SumGrain(c.NumInputs(), rowGrain, c.Parallel, func(i int) float64 {
		kl, err := infotheory.KLLogSpace(c.Rows[i], logPrior)
		if err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
			return 0
		}
		return math.Exp(c.LogPX[i]) * kl
	})
	if firstErr != nil {
		return 0, firstErr
	}
	return total, nil
}

// Capacity returns the Shannon capacity of the channel (max over input
// distributions of the MI) via Blahut–Arimoto, in nats. The iteration's
// inner sums fan out under the channel's parallel options.
func (c *Channel) Capacity(tol float64, maxIter int) (float64, error) {
	return c.CapacityCtx(context.Background(), tol, maxIter)
}

// CapacityCtx is Capacity with cancellation: ctx is checked once per
// Blahut–Arimoto iteration, so long capacity computations drain
// gracefully on SIGINT/timeout. A converged run is bit-identical to
// Capacity.
func (c *Channel) CapacityCtx(ctx context.Context, tol float64, maxIter int) (float64, error) {
	cap_, _, err := infotheory.BlahutArimotoCtx(ctx, c.linearRows(), tol, maxIter, c.Parallel)
	return cap_, err
}

// MaxPairwiseLogRatio returns max over input pairs and outputs of
// |log p(θ|Ẑ) − log p(θ|Ẑ′)| — the channel's worst-case distinguishing
// power between any two sample-space points (not just neighbors). The
// O(|X|²·|Θ|) scan fans out over the first pair index; max is
// order-invariant, so the result is worker-count independent.
func (c *Channel) MaxPairwiseLogRatio() float64 {
	nIn, nOut := c.NumInputs(), c.NumOutputs()
	return parallel.MaxAbs(nIn, c.Parallel, func(a int) float64 {
		var m float64
		for b := a + 1; b < nIn; b++ {
			for j := 0; j < nOut; j++ {
				la, lb := c.Rows[a][j], c.Rows[b][j]
				aInf, bInf := math.IsInf(la, -1), math.IsInf(lb, -1)
				if aInf && bInf {
					continue
				}
				if aInf != bInf {
					return math.Inf(1)
				}
				if d := math.Abs(la - lb); d > m {
					m = d
				}
			}
		}
		return m
	})
}

// Compose post-processes the channel's output through a second (data-
// independent) channel post, where post[j][k] = P(Z=k | θ=j): the result
// is the channel Ẑ → Z. By the data-processing inequality the composed
// channel can only leak less; the test suite asserts this.
func (c *Channel) Compose(post [][]float64) (*Channel, error) {
	if len(post) != c.NumOutputs() {
		return nil, fmt.Errorf("channel: post-processing has %d rows for %d outputs", len(post), c.NumOutputs())
	}
	nOut := len(post[0])
	postNorm := make([][]float64, len(post))
	for j, row := range post {
		if len(row) != nOut {
			return nil, fmt.Errorf("channel: ragged post-processing row %d", j)
		}
		var total float64
		for _, v := range row {
			if v < 0 || math.IsNaN(v) {
				return nil, fmt.Errorf("channel: invalid post-processing row %d", j)
			}
			total += v
		}
		if total <= 0 {
			return nil, fmt.Errorf("channel: zero-mass post-processing row %d", j)
		}
		postNorm[j] = make([]float64, nOut)
		for k, v := range row {
			postNorm[j][k] = v / total
		}
	}
	rows := make([][]float64, c.NumInputs())
	parallel.ForGrain(c.NumInputs(), rowGrain, c.Parallel, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			rows[i] = make([]float64, nOut)
			for k := 0; k < nOut; k++ {
				var p float64
				for j := 0; j < c.NumOutputs(); j++ {
					p += math.Exp(c.Rows[i][j]) * postNorm[j][k]
				}
				if p <= 0 {
					rows[i][k] = math.Inf(-1)
				} else {
					rows[i][k] = math.Log(p)
				}
			}
		}
	})
	return &Channel{LogPX: append([]float64(nil), c.LogPX...), Rows: rows, Parallel: c.Parallel}, nil
}

// DPLeakageCapNats returns the trivial mutual-information cap for an
// ε-DP channel over a sample space of diameter diam (max replace-one
// distance between any two inputs): every pairwise log ratio is at most
// ε·diam, hence I(Ẑ;θ) ≤ capacity ≤ ε·diam nats.
func DPLeakageCapNats(epsilon float64, diam int) float64 {
	if epsilon < 0 || diam < 0 {
		panic("channel: DPLeakageCapNats requires non-negative arguments")
	}
	return epsilon * float64(diam)
}
