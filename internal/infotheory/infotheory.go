// Package infotheory implements the discrete information-theoretic
// quantities that Section 4 of the paper is built on: Shannon entropy,
// Kullback–Leibler divergence, mutual information of joint distributions,
// conditional entropy, and channel capacity via the Blahut–Arimoto
// algorithm. It also provides plug-in and Miller–Madow entropy estimators
// for sampled data.
//
// All quantities are measured in nats unless a function name says Bits.
// Distributions are represented as probability vectors; functions
// tolerate small normalization error (renormalizing internally) but
// reject negative entries.
package infotheory

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/mathx"
	"repro/internal/parallel"
)

// ErrInvalidDistribution is returned when a probability vector contains
// negative entries or has zero total mass.
var ErrInvalidDistribution = errors.New("infotheory: invalid probability distribution")

// ErrNotAbsolutelyContinuous is returned by KL when p places mass where q
// has none (the divergence is +Inf; callers that want the infinite value
// can use KLAllowInf).
var ErrNotAbsolutelyContinuous = errors.New("infotheory: p is not absolutely continuous w.r.t. q")

// Nats2Bits converts nats to bits.
func Nats2Bits(x float64) float64 { return x / math.Ln2 }

// normalize validates and renormalizes a probability vector.
func normalize(p []float64) ([]float64, error) {
	if len(p) == 0 {
		return nil, ErrInvalidDistribution
	}
	var total float64
	for _, v := range p {
		if v < 0 || math.IsNaN(v) {
			return nil, ErrInvalidDistribution
		}
		total += v
	}
	if total <= 0 {
		return nil, ErrInvalidDistribution
	}
	out := make([]float64, len(p))
	for i, v := range p {
		out[i] = v / total
	}
	return out, nil
}

// Entropy returns the Shannon entropy H(p) = −Σ p log p in nats.
func Entropy(p []float64) (float64, error) {
	q, err := normalize(p)
	if err != nil {
		return 0, err
	}
	var h float64
	for _, v := range q {
		h -= mathx.XLogX(v)
	}
	if h < 0 { // guard tiny negative rounding
		h = 0
	}
	return h, nil
}

// KL returns the Kullback–Leibler divergence D(p‖q) in nats. It returns
// ErrNotAbsolutelyContinuous if p has mass where q does not.
func KL(p, q []float64) (float64, error) {
	if len(p) != len(q) {
		return 0, fmt.Errorf("infotheory: KL length mismatch %d vs %d", len(p), len(q))
	}
	pn, err := normalize(p)
	if err != nil {
		return 0, err
	}
	qn, err := normalize(q)
	if err != nil {
		return 0, err
	}
	var d float64
	for i := range pn {
		if pn[i] == 0 { //dplint:ignore floateq discrete support test: exactly-zero mass is outside supp(P) by construction
			continue
		}
		if qn[i] == 0 { //dplint:ignore floateq absolute-continuity test: P must place no mass where Q has exactly none
			return 0, ErrNotAbsolutelyContinuous
		}
		d += pn[i] * math.Log(pn[i]/qn[i])
	}
	if d < 0 {
		d = 0
	}
	return d, nil
}

// KLAllowInf behaves like KL but returns +Inf instead of an error when p
// is not absolutely continuous with respect to q.
func KLAllowInf(p, q []float64) (float64, error) {
	d, err := KL(p, q)
	if err == ErrNotAbsolutelyContinuous {
		return math.Inf(1), nil
	}
	return d, err
}

// KLLogSpace returns D(p‖q) where both arguments are given as log-mass
// vectors (not necessarily normalized). Entries of -Inf denote zero mass.
func KLLogSpace(logP, logQ []float64) (float64, error) {
	if len(logP) != len(logQ) {
		return 0, fmt.Errorf("infotheory: KLLogSpace length mismatch %d vs %d", len(logP), len(logQ))
	}
	pNorm, pZ := mathx.LogNormalize(logP)
	if math.IsInf(pZ, -1) {
		return 0, ErrInvalidDistribution
	}
	qNorm, qZ := mathx.LogNormalize(logQ)
	if math.IsInf(qZ, -1) {
		return 0, ErrInvalidDistribution
	}
	var d float64
	for i := range pNorm {
		if math.IsInf(pNorm[i], -1) {
			continue
		}
		if math.IsInf(qNorm[i], -1) {
			return 0, ErrNotAbsolutelyContinuous
		}
		d += math.Exp(pNorm[i]) * (pNorm[i] - qNorm[i])
	}
	if d < 0 {
		d = 0
	}
	return d, nil
}

// JS returns the Jensen–Shannon divergence JS(p, q) in nats: the average
// KL to the midpoint mixture. It is always finite and symmetric.
func JS(p, q []float64) (float64, error) {
	if len(p) != len(q) {
		return 0, fmt.Errorf("infotheory: JS length mismatch %d vs %d", len(p), len(q))
	}
	pn, err := normalize(p)
	if err != nil {
		return 0, err
	}
	qn, err := normalize(q)
	if err != nil {
		return 0, err
	}
	m := make([]float64, len(pn))
	for i := range m {
		m[i] = 0.5 * (pn[i] + qn[i])
	}
	dp, err := KLAllowInf(pn, m)
	if err != nil {
		return 0, err
	}
	dq, err := KLAllowInf(qn, m)
	if err != nil {
		return 0, err
	}
	return 0.5*dp + 0.5*dq, nil
}

// TotalVariation returns the total-variation distance (1/2)·Σ|pᵢ−qᵢ|
// between two distributions.
func TotalVariation(p, q []float64) (float64, error) {
	if len(p) != len(q) {
		return 0, fmt.Errorf("infotheory: TotalVariation length mismatch %d vs %d", len(p), len(q))
	}
	pn, err := normalize(p)
	if err != nil {
		return 0, err
	}
	qn, err := normalize(q)
	if err != nil {
		return 0, err
	}
	var d float64
	for i := range pn {
		d += math.Abs(pn[i] - qn[i])
	}
	return d / 2, nil
}

// Joint is a joint probability table over a finite product space X×Y,
// stored row-major: P[i][j] = P(X=i, Y=j).
type Joint struct {
	P [][]float64
}

// NewJoint validates and normalizes a joint table. Rows must share a
// length; entries must be non-negative with positive total mass.
func NewJoint(table [][]float64) (*Joint, error) {
	if len(table) == 0 || len(table[0]) == 0 {
		return nil, ErrInvalidDistribution
	}
	cols := len(table[0])
	var total float64
	for _, row := range table {
		if len(row) != cols {
			return nil, fmt.Errorf("infotheory: ragged joint table")
		}
		for _, v := range row {
			if v < 0 || math.IsNaN(v) {
				return nil, ErrInvalidDistribution
			}
			total += v
		}
	}
	if total <= 0 {
		return nil, ErrInvalidDistribution
	}
	p := make([][]float64, len(table))
	for i, row := range table {
		p[i] = make([]float64, cols)
		for j, v := range row {
			p[i][j] = v / total
		}
	}
	return &Joint{P: p}, nil
}

// MarginalX returns the marginal distribution of X (rows).
func (j *Joint) MarginalX() []float64 {
	out := make([]float64, len(j.P))
	for i, row := range j.P {
		out[i] = mathx.SumSlice(row)
	}
	return out
}

// MarginalY returns the marginal distribution of Y (columns).
func (j *Joint) MarginalY() []float64 {
	out := make([]float64, len(j.P[0]))
	for _, row := range j.P {
		for k, v := range row {
			out[k] += v
		}
	}
	return out
}

// MutualInformation returns I(X;Y) = Σᵢⱼ p(i,j)·log(p(i,j)/(p(i)p(j)))
// in nats. The result is clamped at zero against rounding.
func (j *Joint) MutualInformation() float64 {
	px := j.MarginalX()
	py := j.MarginalY()
	var mi float64
	for i, row := range j.P {
		for k, v := range row {
			// mathx.XLogY carries the 0·log 0 convention, avoiding a
			// float equality test on the joint mass.
			mi += mathx.XLogY(v, v/(px[i]*py[k]))
		}
	}
	if mi < 0 {
		mi = 0
	}
	return mi
}

// ConditionalEntropyYGivenX returns H(Y|X) in nats.
func (j *Joint) ConditionalEntropyYGivenX() float64 {
	var h float64
	for _, row := range j.P {
		px := mathx.SumSlice(row)
		if px == 0 { //dplint:ignore floateq zero-mass row: conditioning on an impossible event contributes nothing
			continue
		}
		for _, v := range row {
			h -= mathx.XLogY(v, v/px)
		}
	}
	if h < 0 {
		h = 0
	}
	return h
}

// JointFromChannel builds the joint distribution induced by an input
// distribution px and a channel matrix W, where W[i][j] = P(Y=j | X=i).
// Each row of W must itself be a distribution over Y.
func JointFromChannel(px []float64, w [][]float64) (*Joint, error) {
	pn, err := normalize(px)
	if err != nil {
		return nil, err
	}
	if len(w) != len(pn) {
		return nil, fmt.Errorf("infotheory: channel has %d rows for %d inputs", len(w), len(pn))
	}
	table := make([][]float64, len(pn))
	for i, row := range w {
		rn, err := normalize(row)
		if err != nil {
			return nil, fmt.Errorf("infotheory: channel row %d: %w", i, err)
		}
		table[i] = make([]float64, len(rn))
		for k, v := range rn {
			table[i][k] = pn[i] * v
		}
	}
	return NewJoint(table)
}

// PluginEntropy estimates H from integer counts by the plug-in (maximum
// likelihood) estimator, in nats.
func PluginEntropy(counts []int) (float64, error) {
	p := make([]float64, len(counts))
	for i, c := range counts {
		if c < 0 {
			return 0, ErrInvalidDistribution
		}
		p[i] = float64(c)
	}
	return Entropy(p)
}

// MillerMadowEntropy estimates H from counts with the Miller–Madow bias
// correction: Ĥ_MM = Ĥ_plugin + (K−1)/(2n) where K is the number of
// non-empty bins, in nats.
func MillerMadowEntropy(counts []int) (float64, error) {
	h, err := PluginEntropy(counts)
	if err != nil {
		return 0, err
	}
	var n, k int
	for _, c := range counts {
		n += c
		if c > 0 {
			k++
		}
	}
	if n == 0 {
		return 0, ErrInvalidDistribution
	}
	return h + float64(k-1)/(2*float64(n)), nil
}

// MutualInformationFromCounts estimates I(X;Y) from a joint count table
// by the plug-in estimator, in nats.
func MutualInformationFromCounts(counts [][]int) (float64, error) {
	table := make([][]float64, len(counts))
	for i, row := range counts {
		table[i] = make([]float64, len(row))
		for j, c := range row {
			if c < 0 {
				return 0, ErrInvalidDistribution
			}
			table[i][j] = float64(c)
		}
	}
	j, err := NewJoint(table)
	if err != nil {
		return 0, err
	}
	return j.MutualInformation(), nil
}

// BlahutArimoto computes the capacity (in nats) of the discrete memoryless
// channel W (rows: inputs, W[i][j] = P(Y=j|X=i)) together with the
// capacity-achieving input distribution. Iterations stop when successive
// capacity bounds differ by less than tol or after maxIter iterations.
func BlahutArimoto(w [][]float64, tol float64, maxIter int) (capacity float64, px []float64, err error) {
	return BlahutArimotoOpts(w, tol, maxIter, parallel.Options{Workers: 1})
}

// BlahutArimotoOpts is BlahutArimoto with the per-iteration O(|X|·|Y|)
// sums fanned out under opts. The output law is accumulated per output
// symbol (inputs walked in index order) and the divergences d_i are
// element-wise, so the iterate sequence — and hence the capacity — is
// bit-identical for every worker count.
func BlahutArimotoOpts(w [][]float64, tol float64, maxIter int, opts parallel.Options) (capacity float64, px []float64, err error) {
	return BlahutArimotoCtx(context.Background(), w, tol, maxIter, opts)
}

// BlahutArimotoCtx is BlahutArimotoOpts with cancellation: the context
// is checked once per iteration (and inside the fan-out at chunk-claim
// boundaries), so a capacity computation over a huge channel can be
// interrupted between iterations. The iterate sequence is unchanged, so
// a run that converges is bit-identical to the non-ctx variant.
func BlahutArimotoCtx(ctx context.Context, w [][]float64, tol float64, maxIter int, opts parallel.Options) (capacity float64, px []float64, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	nIn := len(w)
	if nIn == 0 {
		return 0, nil, ErrInvalidDistribution
	}
	rows := make([][]float64, nIn)
	for i, row := range w {
		rn, err := normalize(row)
		if err != nil {
			return 0, nil, fmt.Errorf("infotheory: channel row %d: %w", i, err)
		}
		rows[i] = rn
	}
	nOut := len(rows[0])
	for i, r := range rows {
		if len(r) != nOut {
			return 0, nil, fmt.Errorf("infotheory: ragged channel at row %d", i)
		}
	}
	px = make([]float64, nIn)
	for i := range px {
		px[i] = 1 / float64(nIn)
	}
	py := make([]float64, nOut)
	d := make([]float64, nIn)
	for iter := 0; iter < maxIter; iter++ {
		if cerr := ctx.Err(); cerr != nil {
			return 0, nil, fmt.Errorf("infotheory: Blahut–Arimoto canceled at iteration %d: %w", iter, cerr)
		}
		// Output distribution under current input: one column sum per
		// output symbol, inputs in index order.
		parallel.ForGrain(nOut, 32, opts, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				var s float64
				for i, r := range rows {
					if px[i] == 0 { //dplint:ignore floateq zero-mass input symbol contributes nothing to the output law
						continue
					}
					s += px[i] * r[j]
				}
				py[j] = s
			}
		})
		// d_i = D(W_i ‖ py): element-wise over inputs.
		parallel.ForGrain(nIn, 32, opts, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				var di float64
				for j, v := range rows[i] {
					di += mathx.XLogY(v, v/py[j])
				}
				d[i] = di
			}
		})
		// Capacity bounds from avg and max (cheap, serial).
		lower, upper := 0.0, math.Inf(-1)
		for i, di := range d {
			lower += px[i] * di
			if di > upper {
				upper = di
			}
		}
		if upper-lower < tol {
			return lower, px, nil
		}
		// Multiplicative update px_i ∝ px_i · exp(d_i).
		var z float64
		for i := range px {
			px[i] *= math.Exp(d[i])
			z += px[i]
		}
		for i := range px {
			px[i] /= z
		}
	}
	// Return the lower bound after maxIter without error: BA converges
	// monotonically, so this is a valid capacity estimate.
	j, err := JointFromChannel(px, rows)
	if err != nil {
		return 0, nil, err
	}
	return j.MutualInformation(), px, nil
}
