package mechanism

import (
	"errors"
	"math"
	"sort"

	"repro/internal/dataset"
	"repro/internal/mathx"
	"repro/internal/rng"
)

// This file implements the CONTINUOUS exponential mechanism of the
// paper's Section 2 — "dπ′(r) ∝ exp(ε·q(x,u)) dπ(r)" with a base measure
// π on a real interval — for the important special case where the quality
// function is piecewise constant between data points (rank-based
// qualities such as the median's). There the density is exactly
// integrable piece by piece, so sampling is exact: pick a piece with
// probability ∝ length·exp(ε·q), then uniformly within it. No grid, no
// MCMC, no discretization error.

// IntervalMechanism is an exponential mechanism over the real interval
// [Lo, Hi] with a piecewise-constant quality function and the Lebesgue
// base measure.
type IntervalMechanism struct {
	// Lo, Hi bound the output range.
	Lo, Hi float64
	// Breaks are the (sorted, deduplicated) discontinuity points strictly
	// inside (Lo, Hi); the quality is constant on each piece between
	// consecutive breakpoints.
	Breaks []float64
	// PieceQuality[i] is the quality on piece i (between break i−1 and
	// break i, with pieces 0 and len(Breaks) touching Lo and Hi).
	PieceQuality []float64
	// Sensitivity is Δq, the replace-one sensitivity of the quality.
	Sensitivity float64
	// Epsilon is the mechanism parameter ε in exp(ε·q); the guarantee is
	// 2εΔq (Theorem 2.2).
	Epsilon float64
}

// ErrBadInterval is returned for malformed interval configurations.
var ErrBadInterval = errors.New("mechanism: invalid interval mechanism")

// NewIntervalMechanism validates the pieces: len(PieceQuality) must be
// len(Breaks)+1, breaks strictly increasing inside (Lo, Hi).
func NewIntervalMechanism(lo, hi float64, breaks, pieceQuality []float64, sensitivity, epsilon float64) (*IntervalMechanism, error) {
	if hi <= lo {
		return nil, ErrBadInterval
	}
	if len(pieceQuality) != len(breaks)+1 {
		return nil, ErrBadInterval
	}
	if epsilon <= 0 || math.IsNaN(epsilon) {
		return nil, ErrInvalidEpsilon
	}
	if sensitivity <= 0 {
		return nil, ErrInvalidSensitivity
	}
	prev := lo
	for _, b := range breaks {
		if b <= prev || b >= hi {
			return nil, ErrBadInterval
		}
		prev = b
	}
	return &IntervalMechanism{
		Lo: lo, Hi: hi,
		Breaks:       append([]float64(nil), breaks...),
		PieceQuality: append([]float64(nil), pieceQuality...),
		Sensitivity:  sensitivity,
		Epsilon:      epsilon,
	}, nil
}

// pieceEdges returns the boundaries of piece i: [a, b).
func (m *IntervalMechanism) pieceEdges(i int) (float64, float64) {
	a := m.Lo
	if i > 0 {
		a = m.Breaks[i-1]
	}
	b := m.Hi
	if i < len(m.Breaks) {
		b = m.Breaks[i]
	}
	return a, b
}

// logPieceMasses returns the unnormalized log-mass of each piece:
// log(length) + ε·quality.
func (m *IntervalMechanism) logPieceMasses() []float64 {
	out := make([]float64, len(m.PieceQuality))
	for i := range out {
		a, b := m.pieceEdges(i)
		if b <= a {
			out[i] = math.Inf(-1)
			continue
		}
		out[i] = math.Log(b-a) + m.Epsilon*m.PieceQuality[i]
	}
	return out
}

// Release samples one real output exactly from the mechanism's density.
func (m *IntervalMechanism) Release(g *rng.RNG) float64 {
	i := g.CategoricalLog(m.logPieceMasses())
	a, b := m.pieceEdges(i)
	return g.Uniform(a, b)
}

// LogDensity returns the exact log-density of the mechanism at x
// (−Inf outside [Lo, Hi]).
func (m *IntervalMechanism) LogDensity(x float64) float64 {
	if x < m.Lo || x > m.Hi {
		return math.Inf(-1)
	}
	masses := m.logPieceMasses()
	logZ := mathx.LogSumExp(masses)
	// Find the piece containing x.
	i := sort.SearchFloat64s(m.Breaks, x)
	return m.Epsilon*m.PieceQuality[i] - logZ
}

// Guarantee returns the 2εΔq guarantee of Theorem 2.2.
func (m *IntervalMechanism) Guarantee() Guarantee {
	return Guarantee{Epsilon: 2 * m.Epsilon * m.Sensitivity}
}

// ContinuousMedian builds the exact continuous exponential mechanism for
// the median of feature j over [lo, hi]: quality at x is
// −|#{records < x} − n/2|, which is piecewise constant between the
// (clamped) data values with sensitivity 1. The release is 2ε-DP and
// needs no candidate grid.
func ContinuousMedian(d *dataset.Dataset, j int, lo, hi, epsilon float64) (*IntervalMechanism, error) {
	if d == nil || d.Len() == 0 {
		return nil, errors.New("mechanism: ContinuousMedian needs a non-empty dataset")
	}
	if hi <= lo {
		return nil, ErrBadInterval
	}
	n := d.Len()
	values := make([]float64, 0, n)
	for _, e := range d.Examples {
		values = append(values, mathx.Clamp(e.X[j], lo, hi))
	}
	sort.Float64s(values)
	// Breakpoints: distinct values strictly inside (lo, hi).
	breaks := make([]float64, 0, n)
	for _, v := range values {
		if v <= lo || v >= hi {
			continue
		}
		if len(breaks) == 0 || breaks[len(breaks)-1] != v { //dplint:ignore floateq dedup scan over sorted clamped values: duplicates are bitwise copies
			breaks = append(breaks, v)
		}
	}
	// Quality on each piece: for x in piece i, #{values < x} is constant;
	// evaluate just right of the piece's left edge.
	quality := make([]float64, len(breaks)+1)
	for i := range quality {
		a, _ := pieceEdgesOf(lo, hi, breaks, i)
		below := sort.SearchFloat64s(values, math.Nextafter(a, hi))
		// count of values < x for x slightly above a: values <= a.
		quality[i] = -math.Abs(float64(below) - float64(n)/2)
	}
	return NewIntervalMechanism(lo, hi, breaks, quality, 1, epsilon)
}

// pieceEdgesOf mirrors IntervalMechanism.pieceEdges for construction.
func pieceEdgesOf(lo, hi float64, breaks []float64, i int) (float64, float64) {
	a := lo
	if i > 0 {
		a = breaks[i-1]
	}
	b := hi
	if i < len(breaks) {
		b = breaks[i]
	}
	return a, b
}
