// Package audit verifies differential-privacy guarantees empirically.
// Given a mechanism and a pair of neighboring datasets, it estimates the
// realized privacy loss
//
//	ε̂ = max over outputs y of |log (P[M(D)=y] / P[M(D′)=y])|
//
// either exactly (when the mechanism exposes its full output
// distribution, as the exponential mechanism and Gibbs posterior do) or
// by Monte-Carlo histogramming of sampled outputs (for continuous
// mechanisms like Laplace). A mechanism satisfies its claimed ε-DP
// guarantee only if ε̂ ≤ ε for every neighbor pair — the check behind
// experiments E1, E2 and E5.
//
// The Monte-Carlo estimator is necessarily approximate: it lower-bounds
// the true privacy loss over the probed events and carries sampling
// noise, so audits compare ε̂ against ε with a tolerance, and treat
// ε̂ ≫ ε as a genuine violation.
package audit

import (
	"context"
	"errors"
	"math"

	"repro/internal/dataset"
	"repro/internal/rng"
)

// ErrNoMass is returned when sampled outputs provide no overlapping events
// to compare.
var ErrNoMass = errors.New("audit: no overlapping output mass between neighbors")

// ExactEpsilon returns the exact realized privacy loss between two
// discrete output distributions given as normalized log-probability
// vectors: max_i |logP[i] − logQ[i]| over indices where either has mass.
// An output with mass in one distribution and none in the other yields
// +Inf (a pure-DP violation).
func ExactEpsilon(logP, logQ []float64) float64 {
	if len(logP) != len(logQ) {
		panic("audit: ExactEpsilon length mismatch")
	}
	var eps float64
	for i := range logP {
		pInf := math.IsInf(logP[i], -1)
		qInf := math.IsInf(logQ[i], -1)
		switch {
		case pInf && qInf:
			continue
		case pInf || qInf:
			return math.Inf(1)
		default:
			if d := math.Abs(logP[i] - logQ[i]); d > eps {
				eps = d
			}
		}
	}
	return eps
}

// DiscreteMechanism is a mechanism with a finite output range that can
// report its exact conditional output distribution.
type DiscreteMechanism interface {
	LogProbabilities(d *dataset.Dataset) []float64
}

// ExactAudit computes the exact realized privacy loss of a discrete
// mechanism over a set of neighbor pairs, returning the maximum. It is
// ExactAuditCtx without cancellation.
func ExactAudit(m DiscreteMechanism, pairs []NeighborPair) float64 {
	eps, err := ExactAuditCtx(context.Background(), m, pairs)
	if err != nil {
		// Background is never canceled; ExactAuditCtx has no other errors.
		panic(err)
	}
	return eps
}

// NeighborPair is a dataset and one of its neighbors.
type NeighborPair struct {
	D, DPrime *dataset.Dataset
}

// RandomNeighborPairs generates count neighbor pairs: base datasets drawn
// from gen, with one uniformly-chosen record replaced by a record from an
// independently generated dataset.
func RandomNeighborPairs(gen func(*rng.RNG) *dataset.Dataset, count int, g *rng.RNG) []NeighborPair {
	pairs := make([]NeighborPair, 0, count)
	for i := 0; i < count; i++ {
		d := gen(g)
		alt := gen(g)
		idx := g.Intn(d.Len())
		pairs = append(pairs, NeighborPair{
			D:      d,
			DPrime: d.ReplaceOne(idx, alt.Examples[g.Intn(alt.Len())]),
		})
	}
	return pairs
}

// WorstCaseBinaryPair returns the canonical worst-case neighbor pair for
// counting queries on binary data: all-zeros versus all-zeros with one
// record flipped to one.
func WorstCaseBinaryPair(n int) NeighborPair {
	zeros := make([]int, n)
	d := dataset.BernoulliTable{}.FromBits(zeros)
	flipped := make([]int, n)
	flipped[0] = 1
	return NeighborPair{D: d, DPrime: dataset.BernoulliTable{}.FromBits(flipped)}
}

// SampledResult reports a Monte-Carlo privacy audit.
type SampledResult struct {
	// EmpiricalEpsilon is the largest observed |log ratio| across
	// compared events.
	EmpiricalEpsilon float64
	// EventsCompared counts output events with enough mass on both sides
	// to be compared.
	EventsCompared int
	// Samples is the per-dataset sample count used.
	Samples int
}

// SampleContinuous audits a real-valued mechanism by drawing samples
// outputs on each of D and D′, histogramming both over a common range, and
// comparing per-bin frequencies. Bins with fewer than minCount samples on
// either side are skipped (their ratio estimates are too noisy to be
// evidence). It returns ErrNoMass if no bin qualifies.
//
//dp:observer audit entry point: samples the handed-in release to estimate realized eps; closures passed here are measurements, not release paths
func SampleContinuous(release func(*dataset.Dataset, *rng.RNG) float64, pair NeighborPair, samples, bins, minCount int, g *rng.RNG) (SampledResult, error) {
	return SampleContinuousCtx(context.Background(), release, pair, samples, bins, minCount, g)
}

// commonRange returns the min/max over both sample sets, widened by one
// when every sample is the identical value so binning stays defined.
func commonRange(outD, outP []float64) (lo, hi float64) {
	lo, hi = outD[0], outD[0]
	for _, v := range outD {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	for _, v := range outP {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	if lo == hi { //dplint:ignore floateq degenerate-range collapse: equal only when every sample is the identical value
		hi = lo + 1
	}
	return lo, hi
}

// binIndex maps v into one of bins equal-width buckets over [lo, hi),
// clamping the boundary values into the edge buckets.
func binIndex(v, lo, hi float64, bins int) int {
	idx := int(math.Floor((v - lo) / (hi - lo) * float64(bins)))
	if idx < 0 {
		idx = 0
	}
	if idx >= bins {
		idx = bins - 1
	}
	return idx
}

// logRatioAbs is the empirical privacy loss of one event: |log a − log b|.
func logRatioAbs(a, b int) float64 {
	return math.Abs(math.Log(float64(a)) - math.Log(float64(b)))
}

// LaplaceAnalyticEpsilon returns the exact realized privacy loss of the
// scalar Laplace mechanism between two query values a and b at noise
// scale s: |a − b| / s. Useful as ground truth when auditing the auditor.
func LaplaceAnalyticEpsilon(a, b, scale float64) float64 {
	return math.Abs(a-b) / scale
}
