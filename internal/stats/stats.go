// Package stats provides descriptive statistics, histograms, empirical
// distribution functions, quantiles, a two-sample Kolmogorov–Smirnov
// statistic, and bootstrap confidence intervals. These are the measuring
// instruments the experiment harness uses to compare mechanism outputs and
// learner errors.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/mathx"
	"repro/internal/rng"
)

// ErrEmpty is returned by routines that need at least one observation.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs. It panics on an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Mean of empty sample")
	}
	return mathx.SumSlice(xs) / float64(len(xs))
}

// Variance returns the unbiased sample variance. It panics with fewer than
// two observations.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		panic("stats: Variance needs at least two observations")
	}
	var w mathx.Welford
	for _, x := range xs {
		w.Add(x)
	}
	return w.Variance()
}

// Quantile returns the p-quantile of xs (0 <= p <= 1) using linear
// interpolation between order statistics (type-7, the R/NumPy default).
// It panics on an empty sample or p outside [0, 1]. xs is not modified.
func Quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("stats: Quantile of empty sample")
	}
	if p < 0 || p > 1 || math.IsNaN(p) {
		panic(fmt.Sprintf("stats: Quantile p=%v outside [0,1]", p))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, p)
}

func quantileSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	h := p * float64(n-1)
	lo := int(math.Floor(h))
	hi := lo + 1
	if hi >= n {
		return sorted[n-1]
	}
	frac := h - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// ECDF is the empirical cumulative distribution function of a sample.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from xs (copied, then sorted). It returns
// ErrEmpty for an empty sample.
func NewECDF(xs []float64) (*ECDF, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return &ECDF{sorted: s}, nil
}

// At returns F̂(x) = (#{xi <= x}) / n.
func (e *ECDF) At(x float64) float64 {
	// Index of first element > x.
	idx := sort.SearchFloat64s(e.sorted, x)
	for idx < len(e.sorted) && e.sorted[idx] == x { //dplint:ignore floateq tie scan over stored sample values: duplicates are bitwise copies
		idx++
	}
	return float64(idx) / float64(len(e.sorted))
}

// KSStatistic returns the two-sample Kolmogorov–Smirnov statistic
// D = sup_x |F̂₁(x) − F̂₂(x)| between samples a and b. It panics on an
// empty sample.
func KSStatistic(a, b []float64) float64 {
	if len(a) == 0 || len(b) == 0 {
		panic("stats: KSStatistic of empty sample")
	}
	sa := append([]float64(nil), a...)
	sb := append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	var d float64
	i, j := 0, 0
	na, nb := float64(len(sa)), float64(len(sb))
	for i < len(sa) && j < len(sb) {
		// Step past the smallest current value in both samples at once so
		// that ties are handled atomically (both ECDFs jump together).
		v := math.Min(sa[i], sb[j])
		for i < len(sa) && sa[i] == v { //dplint:ignore floateq tie scan: v is copied from sa[i]/sb[j], so matches are bitwise
			i++
		}
		for j < len(sb) && sb[j] == v { //dplint:ignore floateq tie scan: v is copied from sa[i]/sb[j], so matches are bitwise
			j++
		}
		if diff := math.Abs(float64(i)/na - float64(j)/nb); diff > d {
			d = diff
		}
	}
	return d
}

// Histogram is a fixed-bin histogram over [Lo, Hi) with equal-width bins.
// Values outside the range are clamped into the first/last bin so that
// Total always equals the number of Add calls (this keeps DP sensitivity
// analysis simple: one record moves exactly one unit of count).
type Histogram struct {
	Lo, Hi float64
	Counts []float64
	total  float64
}

// NewHistogram creates a histogram with the given number of bins over
// [lo, hi). It panics if bins <= 0 or hi <= lo.
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins <= 0 {
		panic("stats: NewHistogram with bins <= 0")
	}
	if hi <= lo {
		panic("stats: NewHistogram with hi <= lo")
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]float64, bins)}
}

// BinIndex returns the bin index x falls in, clamped to [0, bins-1].
func (h *Histogram) BinIndex(x float64) int {
	bins := len(h.Counts)
	idx := int(math.Floor((x - h.Lo) / (h.Hi - h.Lo) * float64(bins)))
	if idx < 0 {
		idx = 0
	}
	if idx >= bins {
		idx = bins - 1
	}
	return idx
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	h.Counts[h.BinIndex(x)]++
	h.total++
}

// Total returns the number of recorded observations.
func (h *Histogram) Total() float64 { return h.total }

// BinWidth returns the common bin width.
func (h *Histogram) BinWidth() float64 { return (h.Hi - h.Lo) / float64(len(h.Counts)) }

// BinCenter returns the center of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	return h.Lo + (float64(i)+0.5)*h.BinWidth()
}

// Probabilities returns the normalized bin masses (empty histogram yields
// all zeros).
func (h *Histogram) Probabilities() []float64 {
	out := make([]float64, len(h.Counts))
	if h.total == 0 { //dplint:ignore floateq total is a sum of unit increments; exactly zero iff the histogram is empty
		return out
	}
	for i, c := range h.Counts {
		out[i] = c / h.total
	}
	return out
}

// Density returns the histogram density estimate: mass per unit length,
// integrating to one over [Lo, Hi] (empty histogram yields zeros).
func (h *Histogram) Density() []float64 {
	p := h.Probabilities()
	w := h.BinWidth()
	for i := range p {
		p[i] /= w
	}
	return p
}

// Clone returns a deep copy of the histogram.
func (h *Histogram) Clone() *Histogram {
	out := &Histogram{Lo: h.Lo, Hi: h.Hi, Counts: append([]float64(nil), h.Counts...), total: h.total}
	return out
}

// FreedmanDiaconisBins suggests a bin count for a sample via the
// Freedman–Diaconis rule, clamped to [1, maxBins]. A degenerate IQR falls
// back to Sturges' rule.
func FreedmanDiaconisBins(xs []float64, maxBins int) int {
	n := len(xs)
	if n < 2 {
		return 1
	}
	iqr := Quantile(xs, 0.75) - Quantile(xs, 0.25)
	lo, hi := xs[mathx.ArgMin(xs)], xs[mathx.ArgMax(xs)]
	span := hi - lo
	if span <= 0 {
		return 1
	}
	var bins int
	if iqr <= 0 {
		bins = int(math.Ceil(math.Log2(float64(n)))) + 1 // Sturges
	} else {
		width := 2 * iqr / math.Cbrt(float64(n))
		bins = int(math.Ceil(span / width))
	}
	if bins < 1 {
		bins = 1
	}
	if bins > maxBins {
		bins = maxBins
	}
	return bins
}

// BootstrapCI returns a percentile bootstrap confidence interval at the
// given level (e.g. 0.95) for statistic stat over sample xs, using resamples
// bootstrap replicates drawn with g. It panics on an empty sample, a level
// outside (0, 1), or resamples <= 0.
func BootstrapCI(xs []float64, stat func([]float64) float64, level float64, resamples int, g *rng.RNG) (lo, hi float64) {
	if len(xs) == 0 {
		panic("stats: BootstrapCI of empty sample")
	}
	if level <= 0 || level >= 1 {
		panic("stats: BootstrapCI level outside (0,1)")
	}
	if resamples <= 0 {
		panic("stats: BootstrapCI needs resamples > 0")
	}
	reps := make([]float64, resamples)
	buf := make([]float64, len(xs))
	for r := 0; r < resamples; r++ {
		for i := range buf {
			buf[i] = xs[g.Intn(len(xs))]
		}
		reps[r] = stat(buf)
	}
	alpha := (1 - level) / 2
	return Quantile(reps, alpha), Quantile(reps, 1-alpha)
}

// Summary holds the five-number summary plus mean and standard deviation
// of a sample.
type Summary struct {
	N                 int
	Min, Q1, Med, Q3  float64
	Max, Mean, StdDev float64
}

// Summarize computes a Summary. It returns ErrEmpty for an empty sample;
// StdDev is NaN for a single observation.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	sum := Summary{
		N:    len(s),
		Min:  s[0],
		Q1:   quantileSorted(s, 0.25),
		Med:  quantileSorted(s, 0.5),
		Q3:   quantileSorted(s, 0.75),
		Max:  s[len(s)-1],
		Mean: Mean(s),
	}
	if len(s) >= 2 {
		sum.StdDev = math.Sqrt(Variance(s))
	} else {
		sum.StdDev = math.NaN()
	}
	return sum, nil
}
