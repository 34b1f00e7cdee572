package learn

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/mathx"
	"repro/internal/rng"
)

// This file implements the two differentially-private ERM baselines of
// Chaudhuri, Monteleoni & Sarwate (JMLR 2011) that the paper cites as the
// prior approach to private learning (Section 1): output perturbation
// (sensitivity method) and objective perturbation. Both assume
// L2-regularized convex ERM with per-example feature norm ‖x‖₂ ≤ 1 and
// labels ±1 (callers should dataset.NormalizeRows first).

// ErrPrivacyBudgetTooSmall is returned by objective perturbation when the
// ε budget cannot cover the regularization adjustment.
var ErrPrivacyBudgetTooSmall = errors.New("learn: privacy budget too small for objective perturbation")

// sphereNoise returns a vector with direction uniform on the unit sphere
// of dimension dim and L2 norm drawn from Gamma(dim, scale) — the noise
// density ∝ exp(−‖b‖/scale) used by both CMS baselines.
func sphereNoise(dim int, scale float64, g *rng.RNG) []float64 {
	if dim <= 0 || scale <= 0 {
		panic("learn: sphereNoise requires dim > 0 and scale > 0")
	}
	dir := make([]float64, dim)
	var norm float64
	for norm == 0 { //dplint:ignore floateq rejection loop: redraw on the measure-zero event of a bitwise-zero Gaussian vector
		for i := range dir {
			dir[i] = g.Normal(0, 1)
		}
		norm = mathx.L2Norm(dir)
	}
	mag := g.Gamma(float64(dim), scale)
	for i := range dir {
		dir[i] = dir[i] / norm * mag
	}
	return dir
}

// OutputPerturbationLogistic privately fits L2-regularized logistic
// regression by the CMS sensitivity method: fit the non-private ERM, then
// add noise with density ∝ exp(−(n·λ·ε/2)·‖b‖). The L2 sensitivity of the
// regularized logistic minimizer under replace-one neighbors is 2/(n·λ).
// The release is ε-DP. lambda and epsilon must be positive.
func OutputPerturbationLogistic(d *dataset.Dataset, lambda, epsilon float64, opts GDOptions, g *rng.RNG) ([]float64, error) {
	if lambda <= 0 {
		return nil, fmt.Errorf("learn: output perturbation requires lambda > 0")
	}
	if epsilon <= 0 {
		return nil, fmt.Errorf("learn: output perturbation requires epsilon > 0")
	}
	theta, err := LogisticRegression(d, lambda, opts)
	if err != nil && !errors.Is(err, ErrNotConverged) {
		return nil, err
	}
	scale := 2 / (float64(d.Len()) * lambda * epsilon)
	noise := sphereNoise(d.Dim(), scale, g)
	for i := range theta {
		theta[i] += noise[i]
	}
	return theta, nil
}

// ObjectivePerturbationLogistic privately fits L2-regularized logistic
// regression by the CMS objective perturbation method (their Algorithm 2
// with c = 1/4, the smoothness constant of the logistic loss):
//
//	ε′ = ε − log(1 + 2c/(nλ) + c²/(n²λ²))
//	if ε′ ≤ 0:  Δ = c/(n·(e^{ε/4} − 1)) − λ,  ε′ = ε/2
//	b ~ density ∝ exp(−(ε′/2)‖b‖)
//	θ = argmin J(θ) + bᵀθ/n + (Δ/2)‖θ‖²
//
// The release is ε-DP. It returns ErrPrivacyBudgetTooSmall only in the
// degenerate case where the adjusted problem is still infeasible.
func ObjectivePerturbationLogistic(d *dataset.Dataset, lambda, epsilon float64, opts GDOptions, g *rng.RNG) ([]float64, error) {
	if lambda <= 0 || epsilon <= 0 {
		return nil, fmt.Errorf("learn: objective perturbation requires lambda > 0 and epsilon > 0")
	}
	n := float64(d.Len())
	const c = 0.25
	epsPrime := epsilon - math.Log(1+2*c/(n*lambda)+c*c/(n*n*lambda*lambda))
	delta := 0.0
	if epsPrime <= 0 {
		delta = c/(n*(math.Exp(epsilon/4)-1)) - lambda
		epsPrime = epsilon / 2
		if delta < 0 {
			// λ already large enough that the log term is small — cannot
			// happen when epsPrime <= 0, but guard against rounding.
			delta = 0
		}
	}
	if epsPrime <= 0 {
		return nil, ErrPrivacyBudgetTooSmall
	}
	b := sphereNoise(d.Dim(), 2/epsPrime, g)
	base := LogisticObjective(d, lambda)
	obj := func(theta []float64) (float64, []float64) {
		v, grad := base(theta)
		for j := range theta {
			v += b[j] * theta[j] / n
			grad[j] += b[j] / n
			v += delta / 2 * theta[j] * theta[j]
			grad[j] += delta * theta[j]
		}
		return v, grad
	}
	x0 := make([]float64, d.Dim())
	theta, err := MinimizeGD(obj, x0, opts)
	if err != nil && !errors.Is(err, ErrNotConverged) {
		return nil, err
	}
	return theta, nil
}
