package learn

import (
	"fmt"
	"math"

	"repro/internal/mathx"
)

// Grid is a finite predictor space Θ: the Cartesian product of
// PointsPerDim evenly spaced values per dimension over [Lo, Hi]^Dim.
// Finite Θ makes the Gibbs posterior, its KL divergence to the prior, and
// the sample→predictor mutual information exactly computable, which is
// how the experiments turn the paper's theorems into checkable numbers.
type Grid struct {
	Lo, Hi       float64
	Dim          int
	PointsPerDim int
	thetas       [][]float64
}

// NewGrid builds the grid. It panics on invalid parameters and refuses
// grids with more than ~1e6 points (they indicate a misconfigured
// experiment).
func NewGrid(lo, hi float64, dim, pointsPerDim int) *Grid {
	if hi <= lo {
		panic("learn: NewGrid requires hi > lo")
	}
	if dim <= 0 || pointsPerDim <= 0 {
		panic("learn: NewGrid requires positive dim and pointsPerDim")
	}
	size := math.Pow(float64(pointsPerDim), float64(dim))
	if size > 1e6 {
		panic(fmt.Sprintf("learn: grid with %g points is too large", size))
	}
	g := &Grid{Lo: lo, Hi: hi, Dim: dim, PointsPerDim: pointsPerDim}
	axis := mathx.Linspace(lo, hi, pointsPerDim)
	total := int(size)
	g.thetas = make([][]float64, total)
	for idx := 0; idx < total; idx++ {
		theta := make([]float64, dim)
		rem := idx
		for j := 0; j < dim; j++ {
			theta[j] = axis[rem%pointsPerDim]
			rem /= pointsPerDim
		}
		g.thetas[idx] = theta
	}
	return g
}

// Thetas returns the full list of grid points. The slice is shared; do
// not mutate.
func (g *Grid) Thetas() [][]float64 { return g.thetas }

// Size returns |Θ|.
func (g *Grid) Size() int { return len(g.thetas) }

// At returns grid point i.
func (g *Grid) At(i int) []float64 { return g.thetas[i] }

// MaxNorm returns the largest L2 norm over the grid — the ‖θ‖ bound used
// to derive loss bounds.
func (g *Grid) MaxNorm() float64 {
	var m float64
	for _, th := range g.thetas {
		if n := mathx.L2Norm(th); n > m {
			m = n
		}
	}
	return m
}

// UniformLogPrior returns the uniform log-prior over the grid
// (log 1/|Θ| per point).
func (g *Grid) UniformLogPrior() []float64 {
	lp := -math.Log(float64(g.Size()))
	out := make([]float64, g.Size())
	for i := range out {
		out[i] = lp
	}
	return out
}

// GaussianLogPrior returns a log-prior proportional to exp(−‖θ‖²/(2σ²)),
// normalized over the grid. σ must be positive.
func (g *Grid) GaussianLogPrior(sigma float64) []float64 {
	if sigma <= 0 {
		panic("learn: GaussianLogPrior requires sigma > 0")
	}
	out := make([]float64, g.Size())
	for i, th := range g.thetas {
		n := mathx.L2Norm(th)
		out[i] = -n * n / (2 * sigma * sigma)
	}
	normalized, _ := mathx.LogNormalize(out)
	return normalized
}

// SquaredLossBound returns an upper bound on the squared loss over this
// grid for |y| ≤ yMax and ‖x‖₂ ≤ xNorm: (maxNorm·xNorm + yMax)².
func (g *Grid) SquaredLossBound(xNorm, yMax float64) float64 {
	b := g.MaxNorm()*xNorm + yMax
	return b * b
}
