// Package mathx provides numerically-stable mathematical primitives used
// throughout the library: log-domain arithmetic, compensated and exact
// summation, online moments, simple one-dimensional optimizers and root
// finders, and a handful of special-function helpers built on the
// standard library.
//
// All probability computations in this repository are carried out in log
// space; the helpers here (LogSumExp, LogAddExp, Log1mExp) are the
// foundation for that discipline.
package mathx

import (
	"errors"
	"math"
)

// ErrNoConvergence is returned by iterative routines that fail to converge
// within their iteration budget.
var ErrNoConvergence = errors.New("mathx: no convergence")

// ErrBadBracket is returned by root finders and minimizers when the supplied
// interval does not bracket a root or minimum as required.
var ErrBadBracket = errors.New("mathx: interval does not bracket the target")

// NegInf is the IEEE-754 negative infinity, the additive identity of
// log-domain accumulation.
var NegInf = math.Inf(-1)

// LogSumExp returns log(sum_i exp(xs[i])) computed stably.
//
// The empty sum is log(0) = -Inf. Entries equal to -Inf contribute nothing.
// If any entry is +Inf the result is +Inf.
func LogSumExp(xs []float64) float64 {
	maxv := NegInf
	for _, x := range xs {
		if x > maxv {
			maxv = x
		}
	}
	if math.IsInf(maxv, -1) {
		return NegInf
	}
	if math.IsInf(maxv, 1) {
		return math.Inf(1)
	}
	var sum float64
	for _, x := range xs {
		sum += math.Exp(x - maxv)
	}
	return maxv + math.Log(sum)
}

// LogAddExp returns log(exp(a) + exp(b)) computed stably.
func LogAddExp(a, b float64) float64 {
	if a < b {
		a, b = b, a
	}
	if math.IsInf(a, -1) {
		return NegInf
	}
	if math.IsInf(a, 1) {
		return math.Inf(1)
	}
	return a + math.Log1p(math.Exp(b-a))
}

// Log1mExp returns log(1 - exp(x)) for x <= 0, using the algorithm of
// Mächler (2012): log1p(-exp(x)) for x < -ln 2 and log(-expm1(x)) otherwise.
// Log1mExp(0) is -Inf; positive x yields NaN.
func Log1mExp(x float64) float64 {
	if x > 0 {
		return math.NaN()
	}
	if x == 0 { //dplint:ignore floateq exact sentinel: log(1-exp(0)) = -Inf only at bitwise zero
		return NegInf
	}
	if x < -math.Ln2 {
		return math.Log1p(-math.Exp(x))
	}
	return math.Log(-math.Expm1(x))
}

// LogSubExp returns log(exp(a) - exp(b)) for a >= b. If a < b it returns NaN
// (the difference is negative and has no real logarithm). LogSubExp(a, a)
// is -Inf.
func LogSubExp(a, b float64) float64 {
	if a < b {
		return math.NaN()
	}
	if a == b || math.IsInf(a, -1) { //dplint:ignore floateq exact cancellation fast path: e^a - e^b is exactly 0 only when a equals b bitwise
		return NegInf
	}
	return a + Log1mExp(b-a)
}

// LogNormalize shifts log-weights so that they represent a normalized
// probability distribution: out[i] = xs[i] - LogSumExp(xs). It returns the
// normalizing constant log Z. If all entries are -Inf the output is all
// -Inf and log Z is -Inf.
//
// The result is written into a freshly allocated slice; xs is not modified.
func LogNormalize(xs []float64) (normalized []float64, logZ float64) {
	logZ = LogSumExp(xs)
	out := make([]float64, len(xs))
	if math.IsInf(logZ, -1) {
		for i := range out {
			out[i] = NegInf
		}
		return out, logZ
	}
	for i, x := range xs {
		out[i] = x - logZ
	}
	return out, logZ
}

// ExpNormalize converts log-weights into a normalized probability vector in
// the linear domain, stably. All -Inf input yields the zero vector.
func ExpNormalize(xs []float64) []float64 {
	normalized, logZ := LogNormalize(xs)
	out := make([]float64, len(xs))
	if math.IsInf(logZ, -1) {
		return out
	}
	for i, x := range normalized {
		out[i] = math.Exp(x)
	}
	return out
}

// Sigmoid returns 1/(1+exp(-x)) computed without overflow for any x.
func Sigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

// LogSigmoid returns log(Sigmoid(x)) = -log(1+exp(-x)) stably.
func LogSigmoid(x float64) float64 {
	if x >= 0 {
		return -math.Log1p(math.Exp(-x))
	}
	return x - math.Log1p(math.Exp(x))
}

// Logit is the inverse of Sigmoid: log(p/(1-p)). It requires 0 < p < 1 and
// returns ±Inf at the endpoints.
func Logit(p float64) float64 {
	return math.Log(p) - math.Log1p(-p)
}

// XLogX returns x*log(x) with the continuous extension 0*log(0) = 0.
// Negative x yields NaN.
func XLogX(x float64) float64 {
	if x == 0 { //dplint:ignore floateq continuous extension 0*log(0) = 0 applies at exact zero only
		return 0
	}
	return x * math.Log(x)
}

// XLogY returns x*log(y) with the convention 0*log(0) = 0 (used by entropy
// and KL computations). x > 0 with y == 0 yields -Inf as expected.
func XLogY(x, y float64) float64 {
	if x == 0 { //dplint:ignore floateq convention 0*log(y) = 0 applies at exact zero only
		return 0
	}
	return x * math.Log(y)
}

// Clamp restricts x to the closed interval [lo, hi]. It panics if lo > hi.
func Clamp(x, lo, hi float64) float64 {
	if lo > hi {
		panic("mathx: Clamp with lo > hi")
	}
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// AlmostEqual reports whether a and b are equal to within tol, measured
// absolutely for small magnitudes and relatively for large ones:
// |a-b| <= tol * max(1, |a|, |b|).
func AlmostEqual(a, b, tol float64) bool {
	if a == b { //dplint:ignore floateq fast path of the tolerance comparison itself; also makes Inf == Inf equal
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return diff <= tol*scale
}

// NormalCDF returns the standard normal cumulative distribution function
// Φ(x), via the error function.
func NormalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// NormalQuantile returns Φ⁻¹(p) for p in (0, 1), computed by bisection on
// NormalCDF to ~1e-12 accuracy. It returns ±Inf at the endpoints and NaN
// outside [0, 1].
func NormalQuantile(p float64) float64 {
	switch {
	case p < 0 || p > 1 || math.IsNaN(p):
		return math.NaN()
	case p == 0: //dplint:ignore floateq exact endpoint: quantile is ±Inf only at bitwise 0 and 1
		return math.Inf(-1)
	case p == 1: //dplint:ignore floateq exact endpoint: quantile is ±Inf only at bitwise 0 and 1
		return math.Inf(1)
	}
	// Φ is strictly increasing; [-40, 40] covers all representable p.
	lo, hi := -40.0, 40.0
	for i := 0; i < 200; i++ {
		mid := 0.5 * (lo + hi)
		if NormalCDF(mid) < p {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < 1e-13 {
			break
		}
	}
	return 0.5 * (lo + hi)
}

// KahanSum accumulates float64 values using Kahan–Babuška compensated
// summation, reducing the error of long sums from O(n·eps) to O(eps).
// The zero value is an empty sum ready to use.
type KahanSum struct {
	sum float64
	c   float64 // running compensation
}

// Add accumulates x.
func (k *KahanSum) Add(x float64) {
	t := k.sum + x
	if math.Abs(k.sum) >= math.Abs(x) {
		k.c += (k.sum - t) + x
	} else {
		k.c += (x - t) + k.sum
	}
	k.sum = t
}

// Sum returns the compensated total.
func (k *KahanSum) Sum() float64 { return k.sum + k.c }

// SumSlice returns the compensated sum of xs.
func SumSlice(xs []float64) float64 {
	var k KahanSum
	for _, x := range xs {
		k.Add(x)
	}
	return k.Sum()
}

// Welford tracks the running mean and variance of a stream of observations
// using Welford's numerically-stable online algorithm. The zero value is
// ready to use.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// Mean returns the running mean (0 for an empty stream).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased sample variance (NaN for fewer than two
// observations).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return math.NaN()
	}
	return w.m2 / float64(w.n-1)
}

// PopulationVariance returns the biased (population) variance (NaN for an
// empty stream).
func (w *Welford) PopulationVariance() float64 {
	if w.n < 1 {
		return math.NaN()
	}
	return w.m2 / float64(w.n)
}

// Bisect finds a root of f in [lo, hi] by bisection. f(lo) and f(hi) must
// have opposite signs (a zero at either endpoint is returned immediately).
// It iterates until the interval width falls below tol or maxIter
// iterations have run, returning the midpoint of the final interval.
func Bisect(f func(float64) float64, lo, hi, tol float64, maxIter int) (float64, error) {
	flo, fhi := f(lo), f(hi)
	if flo == 0 { //dplint:ignore floateq exact root at the endpoint short-circuits the search
		return lo, nil
	}
	if fhi == 0 { //dplint:ignore floateq exact root at the endpoint short-circuits the search
		return hi, nil
	}
	if (flo > 0) == (fhi > 0) {
		return 0, ErrBadBracket
	}
	for i := 0; i < maxIter; i++ {
		mid := 0.5 * (lo + hi)
		fmid := f(mid)
		if fmid == 0 || hi-lo < tol { //dplint:ignore floateq exact root short-circuit; the tolerance test is the real convergence criterion
			return mid, nil
		}
		if (fmid > 0) == (fhi > 0) {
			hi, fhi = mid, fmid
		} else {
			lo, flo = mid, fmid
		}
	}
	if hi-lo < tol*10 {
		return 0.5 * (lo + hi), nil
	}
	return 0.5 * (lo + hi), ErrNoConvergence
}

// GoldenSection minimizes a unimodal function f on [lo, hi] by
// golden-section search, returning the approximate minimizer. The interval
// is shrunk until its width falls below tol (or maxIter iterations).
func GoldenSection(f func(float64) float64, lo, hi, tol float64, maxIter int) (float64, error) {
	if lo > hi {
		return 0, ErrBadBracket
	}
	const invPhi = 0.6180339887498949 // (sqrt(5)-1)/2
	a, b := lo, hi
	x1 := b - invPhi*(b-a)
	x2 := a + invPhi*(b-a)
	f1, f2 := f(x1), f(x2)
	for i := 0; i < maxIter && b-a > tol; i++ {
		if f1 < f2 {
			b, x2, f2 = x2, x1, f1
			x1 = b - invPhi*(b-a)
			f1 = f(x1)
		} else {
			a, x1, f1 = x1, x2, f2
			x2 = a + invPhi*(b-a)
			f2 = f(x2)
		}
	}
	return 0.5 * (a + b), nil
}

// Linspace returns n evenly spaced points from lo to hi inclusive.
// n must be at least 2 (n == 1 returns just lo; n <= 0 returns nil).
func Linspace(lo, hi float64, n int) []float64 {
	if n <= 0 {
		return nil
	}
	if n == 1 {
		return []float64{lo}
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	out[n-1] = hi // exact endpoint regardless of rounding
	return out
}

// Logspace returns n points logarithmically spaced between lo and hi
// (both must be positive).
func Logspace(lo, hi float64, n int) []float64 {
	if lo <= 0 || hi <= 0 {
		panic("mathx: Logspace requires positive endpoints")
	}
	pts := Linspace(math.Log(lo), math.Log(hi), n)
	for i, p := range pts {
		pts[i] = math.Exp(p)
	}
	if n >= 2 {
		pts[0], pts[n-1] = lo, hi
	}
	return pts
}

// ArgMax returns the index of the largest element (first occurrence).
// It panics on an empty slice.
func ArgMax(xs []float64) int {
	if len(xs) == 0 {
		panic("mathx: ArgMax of empty slice")
	}
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}

// ArgMin returns the index of the smallest element (first occurrence).
// It panics on an empty slice.
func ArgMin(xs []float64) int {
	if len(xs) == 0 {
		panic("mathx: ArgMin of empty slice")
	}
	best := 0
	for i, x := range xs {
		if x < xs[best] {
			best = i
		}
	}
	return best
}

// Dot returns the inner product of equal-length slices a and b. It panics
// on a length mismatch. Each product is rounded before it is summed (the
// explicit float64 conversion), so a CPU that fuses a multiply with an
// add computes the same bits as one that does not.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("mathx: Dot length mismatch")
	}
	var k KahanSum
	for i := range a {
		k.Add(float64(a[i] * b[i]))
	}
	return k.Sum()
}

// L2Norm returns the Euclidean norm of xs, scaled to avoid overflow.
func L2Norm(xs []float64) float64 {
	var scale, ssq float64 = 0, 1
	for _, x := range xs {
		if x == 0 { //dplint:ignore floateq exact-zero skip: only bitwise zero contributes nothing to the norm
			continue
		}
		ax := math.Abs(x)
		if scale < ax {
			r := scale / ax
			ssq = 1 + ssq*r*r
			scale = ax
		} else {
			r := ax / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}
