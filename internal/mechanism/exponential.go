package mechanism

import (
	"errors"
	"math"

	"repro/internal/dataset"
	"repro/internal/mathx"
	"repro/internal/rng"
)

// Exponential is the exponential mechanism of McSherry & Talwar
// (Theorem 2.2 of the paper) over a finite candidate set indexed
// 0..NumCandidates−1: it selects candidate u with probability
// proportional to Prior(u)·exp(ε·q(D, u)), which is 2εΔq-differentially
// private, where Δq is the global sensitivity of the quality function.
//
// The paper's central observation (Theorem 4.1) instantiates this with
// q = −R̂ (negative empirical risk) to obtain the Gibbs posterior; package
// gibbs builds on the same sampler.
type Exponential struct {
	// Quality scores candidate u on dataset d (higher is better).
	Quality func(d *dataset.Dataset, u int) float64
	// NumCandidates is the size of the output range.
	NumCandidates int
	// Sensitivity is Δq, the global sensitivity of Quality over
	// neighboring datasets, uniform in u.
	Sensitivity float64
	// Epsilon is the mechanism parameter ε in exp(ε·q). Per Theorem 2.2
	// the privacy guarantee is 2·ε·Δq.
	Epsilon float64
	// LogPrior is the optional base measure π on candidates (unnormalized
	// log-mass). Nil means uniform.
	LogPrior []float64
}

// NewExponential validates and constructs an exponential mechanism.
func NewExponential(quality func(*dataset.Dataset, int) float64, numCandidates int, sensitivity, epsilon float64) (*Exponential, error) {
	if epsilon <= 0 || math.IsNaN(epsilon) {
		return nil, ErrInvalidEpsilon
	}
	if sensitivity <= 0 {
		return nil, ErrInvalidSensitivity
	}
	if numCandidates <= 0 {
		return nil, errors.New("mechanism: exponential mechanism needs at least one candidate")
	}
	return &Exponential{
		Quality:       quality,
		NumCandidates: numCandidates,
		Sensitivity:   sensitivity,
		Epsilon:       epsilon,
	}, nil
}

// LogWeights returns the unnormalized log selection weights
// log π(u) + ε·q(D, u) for every candidate.
func (m *Exponential) LogWeights(d *dataset.Dataset) []float64 {
	out := make([]float64, m.NumCandidates)
	for u := 0; u < m.NumCandidates; u++ {
		out[u] = m.Epsilon * m.Quality(d, u)
		if m.LogPrior != nil {
			out[u] += m.LogPrior[u]
		}
	}
	return out
}

// LogProbabilities returns the exact normalized log output distribution
// of the mechanism on dataset d. This exposes the mechanism's full
// conditional distribution p(u|D) — the channel row used by the exact
// privacy audit and the Figure-1 channel construction.
func (m *Exponential) LogProbabilities(d *dataset.Dataset) []float64 {
	normalized, _ := mathx.LogNormalize(m.LogWeights(d))
	return normalized
}

// Release samples one candidate index.
func (m *Exponential) Release(d *dataset.Dataset, g *rng.RNG) int {
	return g.CategoricalLog(m.LogWeights(d))
}

// Guarantee returns the 2εΔq guarantee of Theorem 2.2.
func (m *Exponential) Guarantee() Guarantee {
	return Guarantee{Epsilon: 2 * m.Epsilon * m.Sensitivity}
}

// UtilityBound returns the McSherry–Talwar utility guarantee: with
// probability at least 1−β, the selected candidate's quality is within
//
//	(ln(|U|) + ln(1/β)) / ε
//
// of the optimum (for a uniform prior).
func (m *Exponential) UtilityBound(beta float64) float64 {
	if beta <= 0 || beta >= 1 {
		panic("mechanism: UtilityBound requires beta in (0,1)")
	}
	return (math.Log(float64(m.NumCandidates)) + math.Log(1/beta)) / m.Epsilon
}

// PrivateMedian returns an exponential mechanism selecting a private
// median of feature j from the given candidate grid: PrivateQuantile at
// p = 1/2, whose quality −|#{x < c} − n/2| has replace-one sensitivity 1.
func PrivateMedian(j int, candidates []float64, epsilon float64) (*Exponential, []float64, error) { //dplint:ignore epscheck thin wrapper: PrivateQuantile validates epsilon through NewExponential
	return PrivateQuantile(j, 0.5, candidates, epsilon)
}

// PrivateMode returns an exponential mechanism selecting the most common
// value of a discrete feature j among the given candidate values. Quality
// is the count of exact matches (sensitivity 1 under replace-one).
func PrivateMode(j int, values []float64, epsilon float64) (*Exponential, []float64, error) {
	if len(values) == 0 {
		return nil, nil, errors.New("mechanism: PrivateMode needs candidate values")
	}
	vals := append([]float64(nil), values...)
	//dp:sensitivity Δq=1 (replace-one changes the match count by at most 1)
	quality := func(d *dataset.Dataset, u int) float64 {
		var c float64
		for _, e := range d.Examples {
			if e.X[j] == vals[u] { //dplint:ignore floateq discrete feature: candidate values are exact codes copied from the data
				c++
			}
		}
		return c
	}
	m, err := NewExponential(quality, len(vals), 1, epsilon)
	if err != nil {
		return nil, nil, err
	}
	return m, vals, nil
}

// ReportNoisyMax selects the index of the highest quality score after
// adding Laplace(2Δq/ε) noise to each score; it is ε-DP. It is the
// classical alternative to the exponential mechanism for private
// selection.
type ReportNoisyMax struct {
	Quality       func(d *dataset.Dataset, u int) float64
	NumCandidates int
	Sensitivity   float64
	Epsilon       float64
}

// NewReportNoisyMax validates and constructs the mechanism.
func NewReportNoisyMax(quality func(*dataset.Dataset, int) float64, numCandidates int, sensitivity, epsilon float64) (*ReportNoisyMax, error) {
	if epsilon <= 0 || math.IsNaN(epsilon) {
		return nil, ErrInvalidEpsilon
	}
	if sensitivity <= 0 {
		return nil, ErrInvalidSensitivity
	}
	if numCandidates <= 0 {
		return nil, errors.New("mechanism: ReportNoisyMax needs at least one candidate")
	}
	return &ReportNoisyMax{Quality: quality, NumCandidates: numCandidates, Sensitivity: sensitivity, Epsilon: epsilon}, nil
}

// Release returns the arg-max index of the noised scores.
func (m *ReportNoisyMax) Release(d *dataset.Dataset, g *rng.RNG) int {
	best, bestIdx := math.Inf(-1), 0
	scale := 2 * m.Sensitivity / m.Epsilon
	for u := 0; u < m.NumCandidates; u++ {
		v := m.Quality(d, u) + g.Laplace(0, scale)
		if v > best {
			best, bestIdx = v, u
		}
	}
	return bestIdx
}

// Guarantee returns (ε, 0).
func (m *ReportNoisyMax) Guarantee() Guarantee { return Guarantee{Epsilon: m.Epsilon} }
