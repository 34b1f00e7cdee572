// Package mechanism implements the differentially-private release
// mechanisms of Section 2 of the paper: the Laplace mechanism calibrated
// to global sensitivity (Dwork et al. 2006; Theorem 2.1), the exponential
// mechanism of McSherry & Talwar (Theorem 2.2), and the companion
// mechanisms any practical DP toolkit carries (Gaussian, geometric /
// discrete Laplace, randomized response, report-noisy-max), plus a
// composition accountant.
//
// The privacy parameter follows Definition 2.1: a randomized function f is
// ε-differentially private if for all neighboring datasets D, D′ and all
// measurable Y, Pr[f(D) ∈ Y] ≤ e^ε · Pr[f(D′) ∈ Y]. Neighbors here use
// the paper's replace-one relation (dataset.ReplaceOne).
package mechanism

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/mathx"
	"repro/internal/rng"
)

// ErrInvalidEpsilon is returned when a non-positive ε is supplied.
var ErrInvalidEpsilon = errors.New("mechanism: epsilon must be positive")

// ErrInvalidSensitivity is returned when a non-positive sensitivity is
// supplied.
var ErrInvalidSensitivity = errors.New("mechanism: sensitivity must be positive")

// Guarantee records an (ε, δ)-differential-privacy guarantee. δ = 0 is
// pure ε-DP.
type Guarantee struct {
	Epsilon float64
	Delta   float64
}

// String renders the guarantee.
func (g Guarantee) String() string {
	if g.Delta == 0 { //dplint:ignore floateq pure eps-DP is encoded as bitwise delta=0; no arithmetic ever perturbs it
		return fmt.Sprintf("%.6g-DP", g.Epsilon)
	}
	return fmt.Sprintf("(%.6g, %.3g)-DP", g.Epsilon, g.Delta)
}

// NumericQuery is a vector-valued statistical query with known global
// sensitivities. Definition 2.2 of the paper: Δf = max over neighboring
// D, D′ of ‖f(D) − f(D′)‖₁.
type NumericQuery struct {
	// F evaluates the query on a dataset.
	F func(*dataset.Dataset) []float64
	// L1Sensitivity is the global L1 sensitivity Δf (for Laplace).
	L1Sensitivity float64
	// L2Sensitivity is the global L2 sensitivity (for Gaussian). Zero
	// means "not provided".
	L2Sensitivity float64
}

// CountQuery returns the query counting records for which pred is true.
// Its L1 (and L2) sensitivity under replace-one neighbors is 1.
func CountQuery(pred func(dataset.Example) bool) NumericQuery {
	return NumericQuery{
		F: func(d *dataset.Dataset) []float64 {
			var c float64
			for _, e := range d.Examples {
				if pred(e) {
					c++
				}
			}
			return []float64{c}
		},
		L1Sensitivity: 1,
		L2Sensitivity: 1,
	}
}

// BoundedMeanQuery returns the query computing the mean of feature j with
// each value clamped into [lo, hi]. Replacing one record moves the mean by
// at most (hi−lo)/n, which is the query's sensitivity (n must be the fixed
// dataset size under replace-one neighbors).
func BoundedMeanQuery(j int, lo, hi float64, n int) NumericQuery {
	if hi <= lo || n <= 0 {
		panic("mechanism: BoundedMeanQuery requires hi > lo and n > 0")
	}
	sens := (hi - lo) / float64(n)
	return NumericQuery{
		F: func(d *dataset.Dataset) []float64 {
			var s float64
			for _, e := range d.Examples {
				v := e.X[j]
				if v < lo {
					v = lo
				}
				if v > hi {
					v = hi
				}
				s += v
			}
			return []float64{s / float64(d.Len())}
		},
		L1Sensitivity: sens,
		L2Sensitivity: sens,
	}
}

// HistogramQuery returns the query computing clamped histogram counts of
// feature j over [lo, hi) with the given number of bins. Under replace-one
// neighbors at most two bins change by one each, so ΔL1 = 2 (ΔL2 = √2).
func HistogramQuery(j, bins int, lo, hi float64) NumericQuery {
	if bins <= 0 || hi <= lo {
		panic("mechanism: HistogramQuery requires bins > 0 and hi > lo")
	}
	return NumericQuery{
		F: func(d *dataset.Dataset) []float64 {
			counts := make([]float64, bins)
			for _, e := range d.Examples {
				idx := int(math.Floor((e.X[j] - lo) / (hi - lo) * float64(bins)))
				if idx < 0 {
					idx = 0
				}
				if idx >= bins {
					idx = bins - 1
				}
				counts[idx]++
			}
			return counts
		},
		L1Sensitivity: 2,
		L2Sensitivity: math.Sqrt2,
	}
}

// Laplace is the Laplace mechanism of Theorem 2.1: it releases
// f(D) + Lap(Δf/ε)^d, which is ε-differentially private.
type Laplace struct {
	Query   NumericQuery
	Epsilon float64
}

// NewLaplace validates and constructs a Laplace mechanism.
func NewLaplace(q NumericQuery, epsilon float64) (*Laplace, error) {
	if epsilon <= 0 || math.IsNaN(epsilon) {
		return nil, ErrInvalidEpsilon
	}
	if q.L1Sensitivity <= 0 {
		return nil, ErrInvalidSensitivity
	}
	return &Laplace{Query: q, Epsilon: epsilon}, nil
}

// Scale returns the noise scale b = Δf/ε.
func (m *Laplace) Scale() float64 { return m.Query.L1Sensitivity / m.Epsilon }

// Release evaluates the query and adds independent Laplace noise to each
// coordinate.
func (m *Laplace) Release(d *dataset.Dataset, g *rng.RNG) []float64 {
	out := m.Query.F(d)
	b := m.Scale()
	for i := range out {
		out[i] += g.Laplace(0, b)
	}
	return out
}

// Guarantee returns the mechanism's privacy guarantee (ε, 0).
func (m *Laplace) Guarantee() Guarantee { return Guarantee{Epsilon: m.Epsilon} }

// Gaussian is the Gaussian mechanism: f(D) + N(0, σ²)^d with
// σ = Δ₂f·sqrt(2 ln(1.25/δ))/ε, which is (ε, δ)-DP for ε ≤ 1. It is
// included for completeness of the mechanism family the paper situates
// itself in; the paper itself only uses pure ε-DP.
type Gaussian struct {
	Query   NumericQuery
	Epsilon float64
	Delta   float64
}

// NewGaussian validates and constructs a Gaussian mechanism.
func NewGaussian(q NumericQuery, epsilon, delta float64) (*Gaussian, error) {
	if epsilon <= 0 || epsilon > 1 || math.IsNaN(epsilon) {
		return nil, fmt.Errorf("%w (Gaussian requires 0 < ε ≤ 1)", ErrInvalidEpsilon)
	}
	if delta <= 0 || delta >= 1 {
		return nil, errors.New("mechanism: Gaussian requires 0 < δ < 1")
	}
	if q.L2Sensitivity <= 0 {
		return nil, ErrInvalidSensitivity
	}
	return &Gaussian{Query: q, Epsilon: epsilon, Delta: delta}, nil
}

// Sigma returns the noise standard deviation.
func (m *Gaussian) Sigma() float64 {
	return m.Query.L2Sensitivity * math.Sqrt(2*math.Log(1.25/m.Delta)) / m.Epsilon
}

// Release evaluates the query and adds Gaussian noise.
func (m *Gaussian) Release(d *dataset.Dataset, g *rng.RNG) []float64 {
	out := m.Query.F(d)
	sigma := m.Sigma()
	for i := range out {
		out[i] += g.Normal(0, sigma)
	}
	return out
}

// Guarantee returns (ε, δ).
func (m *Gaussian) Guarantee() Guarantee { return Guarantee{Epsilon: m.Epsilon, Delta: m.Delta} }

// Geometric is the geometric mechanism (discrete Laplace): for an
// integer-valued query with sensitivity Δ it adds two-sided geometric
// noise with parameter α = exp(−ε/Δ), giving ε-DP on integer outputs.
type Geometric struct {
	Query       func(*dataset.Dataset) int64
	Sensitivity int64
	Epsilon     float64
}

// NewGeometric validates and constructs a geometric mechanism.
func NewGeometric(q func(*dataset.Dataset) int64, sensitivity int64, epsilon float64) (*Geometric, error) {
	if epsilon <= 0 || math.IsNaN(epsilon) {
		return nil, ErrInvalidEpsilon
	}
	if sensitivity <= 0 {
		return nil, ErrInvalidSensitivity
	}
	return &Geometric{Query: q, Sensitivity: sensitivity, Epsilon: epsilon}, nil
}

// Release evaluates the query and adds two-sided geometric noise.
func (m *Geometric) Release(d *dataset.Dataset, g *rng.RNG) int64 {
	scale := float64(m.Sensitivity) / m.Epsilon
	return m.Query(d) + g.TwoSidedGeometric(scale)
}

// Guarantee returns (ε, 0).
func (m *Geometric) Guarantee() Guarantee { return Guarantee{Epsilon: m.Epsilon} }

// RandomizedResponse releases one bit per record: the true bit with
// probability e^ε/(1+e^ε) and its flip otherwise — the classical Warner
// design, which is ε-DP per record (local DP).
type RandomizedResponse struct {
	Epsilon float64
}

// NewRandomizedResponse validates ε.
func NewRandomizedResponse(epsilon float64) (*RandomizedResponse, error) {
	if epsilon <= 0 || math.IsNaN(epsilon) {
		return nil, ErrInvalidEpsilon
	}
	return &RandomizedResponse{Epsilon: epsilon}, nil
}

// Release perturbs each bit independently: it keeps a bit with the
// truth-telling probability e^ε/(1+e^ε), computed as the numerically
// stable logistic sigmoid.
func (m *RandomizedResponse) Release(bits []bool, g *rng.RNG) []bool {
	p := mathx.Sigmoid(m.Epsilon)
	out := make([]bool, len(bits))
	for i, b := range bits {
		if g.Bernoulli(p) {
			out[i] = b
		} else {
			out[i] = !b
		}
	}
	return out
}

// Guarantee returns (ε, 0) per record.
func (m *RandomizedResponse) Guarantee() Guarantee { return Guarantee{Epsilon: m.Epsilon} }
