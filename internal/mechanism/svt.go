package mechanism

import (
	"errors"
	"math"

	"repro/internal/dataset"
	"repro/internal/rng"
)

// SparseVector implements the AboveThreshold / Sparse Vector Technique
// (Dwork–Naor–Reingold–Rothblum–Vadhan): given an adaptive stream of
// sensitivity-1 queries and a threshold, it reports which queries exceed
// the (noised) threshold, halting after MaxPositives positive answers.
// The entire interaction is ε-DP regardless of the number of negative
// answers — the canonical example of privacy budget scaling with the
// number of *findings* rather than the number of *questions*.
//
// Budget split: ε/2 on the threshold noise, ε/2 shared across the (up to
// c = MaxPositives) positive answers, the standard calibration.
type SparseVector struct {
	// Threshold is the comparison level T.
	Threshold float64
	// Epsilon is the total privacy budget for the whole interaction.
	Epsilon float64
	// MaxPositives is c, the number of above-threshold reports after
	// which the mechanism halts.
	MaxPositives int

	noisedThreshold float64
	positivesLeft   int
	started         bool
	g               *rng.RNG
	data            *dataset.Dataset
}

// ErrSVTExhausted is returned by Query after the mechanism has reported
// MaxPositives positives.
var ErrSVTExhausted = errors.New("mechanism: sparse vector budget exhausted")

// NewSparseVector validates and prepares an AboveThreshold run over the
// given dataset.
func NewSparseVector(d *dataset.Dataset, threshold, epsilon float64, maxPositives int, g *rng.RNG) (*SparseVector, error) {
	if epsilon <= 0 || math.IsNaN(epsilon) {
		return nil, ErrInvalidEpsilon
	}
	if maxPositives <= 0 {
		return nil, errors.New("mechanism: SparseVector needs maxPositives >= 1")
	}
	if d == nil || d.Len() == 0 {
		return nil, errors.New("mechanism: SparseVector needs a non-empty dataset")
	}
	return &SparseVector{
		Threshold:     threshold,
		Epsilon:       epsilon,
		MaxPositives:  maxPositives,
		positivesLeft: maxPositives,
		g:             g,
		data:          d,
	}, nil
}

// Query answers one sensitivity-1 query: true if the noised query value
// exceeds the noised threshold. Queries may be chosen adaptively based on
// previous answers. After MaxPositives true answers it returns
// ErrSVTExhausted.
func (s *SparseVector) Query(q func(*dataset.Dataset) float64) (bool, error) {
	if s.positivesLeft <= 0 {
		return false, ErrSVTExhausted
	}
	if !s.started {
		s.noisedThreshold = s.Threshold + s.g.Laplace(0, 2/s.Epsilon)
		s.started = true
	}
	c := float64(s.MaxPositives)
	v := q(s.data) + s.g.Laplace(0, 4*c/s.Epsilon)
	if v >= s.noisedThreshold {
		s.positivesLeft--
		return true, nil
	}
	return false, nil
}

// Guarantee returns the total (ε, 0) guarantee of the interaction.
func (s *SparseVector) Guarantee() Guarantee { return Guarantee{Epsilon: s.Epsilon} }

// PrivateQuantile returns an exponential mechanism selecting the
// p-quantile (0 < p < 1) of feature j from the candidate grid: the
// quality of candidate c is −|#{x < c} − p·n|, which has replace-one
// sensitivity 1. PrivateMedian is the p = 1/2 case.
func PrivateQuantile(j int, p float64, candidates []float64, epsilon float64) (*Exponential, []float64, error) {
	if p <= 0 || p >= 1 || math.IsNaN(p) {
		return nil, nil, errors.New("mechanism: PrivateQuantile needs p in (0,1)")
	}
	if len(candidates) == 0 {
		return nil, nil, errors.New("mechanism: PrivateQuantile needs candidates")
	}
	grid := append([]float64(nil), candidates...)
	//dp:sensitivity Δq=1 (replace-one moves the below-count by at most 1; |·| is 1-Lipschitz)
	quality := func(d *dataset.Dataset, u int) float64 {
		c := grid[u]
		var below float64
		for _, e := range d.Examples {
			if e.X[j] < c {
				below++
			}
		}
		return -math.Abs(below - p*float64(d.Len()))
	}
	m, err := NewExponential(quality, len(grid), 1, epsilon)
	if err != nil {
		return nil, nil, err
	}
	return m, grid, nil
}

// PrivateRange privately estimates an interval [lo, hi] containing the
// central `coverage` mass of feature j (e.g. coverage = 0.9 gives the
// 5th and 95th percentiles), by two PrivateQuantile selections, each with
// half the budget. Each selection receives a mechanism ε of epsilon/4, so
// its exponential-mechanism guarantee (2·ε·Δq with Δq = 1) quotes
// epsilon/2 and the release is ε-DP in total by basic composition; both
// halves are registered with acct (nil to skip accounting).
func PrivateRange(d *dataset.Dataset, j int, coverage float64, candidates []float64, epsilon float64, acct *Accountant, g *rng.RNG) (lo, hi float64, err error) {
	if epsilon <= 0 || math.IsNaN(epsilon) {
		return 0, 0, ErrInvalidEpsilon
	}
	if coverage <= 0 || coverage >= 1 {
		return 0, 0, errors.New("mechanism: PrivateRange needs coverage in (0,1)")
	}
	tail := (1 - coverage) / 2
	mLo, grid, err := PrivateQuantile(j, tail, candidates, epsilon/4)
	if err != nil {
		return 0, 0, err
	}
	mHi, _, err := PrivateQuantile(j, 1-tail, candidates, epsilon/4)
	if err != nil {
		return 0, 0, err
	}
	lo = grid[mLo.Release(d, g)]
	acct.SpendDetail(mLo.Guarantee(), SpendMeta{
		Mechanism:   "expmech",
		Sensitivity: mLo.Sensitivity,
		Outcomes:    len(grid),
	})
	hi = grid[mHi.Release(d, g)]
	acct.SpendDetail(mHi.Guarantee(), SpendMeta{
		Mechanism:   "expmech",
		Sensitivity: mHi.Sensitivity,
		Outcomes:    len(grid),
	})
	if lo > hi {
		lo, hi = hi, lo
	}
	return lo, hi, nil
}
