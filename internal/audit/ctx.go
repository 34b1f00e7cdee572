package audit

import (
	"context"
	"fmt"

	"repro/internal/dataset"
	"repro/internal/rng"
)

// ctxStride is how many Monte-Carlo iterations run between cancellation
// checks: frequent enough that a deadline lands within milliseconds,
// rare enough to stay invisible in the sampling profile.
const ctxStride = 1024

// ExactAuditCtx is ExactAudit under a context, checking for
// cancellation between neighbor pairs (each pair's two posterior
// enumerations always complete, mirroring the parallel engine's
// claimed-chunk rule).
func ExactAuditCtx(ctx context.Context, m DiscreteMechanism, pairs []NeighborPair) (float64, error) {
	var eps float64
	for i, p := range pairs {
		if cerr := ctx.Err(); cerr != nil {
			return 0, fmt.Errorf("audit: canceled at pair %d/%d: %w", i, len(pairs), cerr)
		}
		if e := ExactEpsilon(m.LogProbabilities(p.D), m.LogProbabilities(p.DPrime)); e > eps {
			eps = e
		}
	}
	return eps, nil
}

// SampleContinuousCtx is SampleContinuous under a context, checking for
// cancellation every ctxStride sample pairs. A canceled audit returns
// no partial estimate: a truncated sample would silently understate ε̂.
//
//dp:observer audit entry point: samples the handed-in release to estimate realized eps; closures passed here are measurements, not release paths
func SampleContinuousCtx(ctx context.Context, release func(*dataset.Dataset, *rng.RNG) float64, pair NeighborPair, samples, bins, minCount int, g *rng.RNG) (SampledResult, error) {
	if samples <= 0 || bins <= 0 {
		panic("audit: SampleContinuous requires positive samples and bins")
	}
	outD := make([]float64, samples)
	outP := make([]float64, samples)
	for i := 0; i < samples; i++ {
		if i%ctxStride == 0 {
			if cerr := ctx.Err(); cerr != nil {
				return SampledResult{}, fmt.Errorf("audit: canceled at sample %d/%d: %w", i, samples, cerr)
			}
		}
		outD[i] = release(pair.D, g)
		outP[i] = release(pair.DPrime, g)
	}
	return histogramCompare(outD, outP, samples, bins, minCount)
}

// histogramCompare is the shared tail of the continuous audit: bin both
// sample sets over their common range and compare per-bin frequencies.
func histogramCompare(outD, outP []float64, samples, bins, minCount int) (SampledResult, error) {
	lo, hi := commonRange(outD, outP)
	countD := make([]int, bins)
	countP := make([]int, bins)
	for i := 0; i < samples; i++ {
		countD[binIndex(outD[i], lo, hi, bins)]++
		countP[binIndex(outP[i], lo, hi, bins)]++
	}
	return compareCounts(countD, countP, samples, minCount)
}

// SampleDiscreteCtx audits a mechanism with a finite output range by
// sampling, checking for cancellation every ctxStride sample pairs.
// Outcomes with fewer than minCount draws on either side are skipped. It
// returns ErrNoMass if no outcome qualifies.
//
//dp:observer audit entry point: samples the handed-in release to estimate realized eps; closures passed here are measurements, not release paths
func SampleDiscreteCtx(ctx context.Context, release func(*dataset.Dataset, *rng.RNG) int, numOutcomes int, pair NeighborPair, samples, minCount int, g *rng.RNG) (SampledResult, error) {
	if samples <= 0 || numOutcomes <= 0 {
		panic("audit: SampleDiscreteCtx requires positive samples and outcomes")
	}
	countD := make([]int, numOutcomes)
	countP := make([]int, numOutcomes)
	for i := 0; i < samples; i++ {
		if i%ctxStride == 0 {
			if cerr := ctx.Err(); cerr != nil {
				return SampledResult{}, fmt.Errorf("audit: canceled at sample %d/%d: %w", i, samples, cerr)
			}
		}
		countD[release(pair.D, g)]++
		countP[release(pair.DPrime, g)]++
	}
	return compareCounts(countD, countP, samples, minCount)
}

// compareCounts scores two per-outcome count vectors, skipping outcomes
// too thin to be evidence on either side.
func compareCounts(countD, countP []int, samples, minCount int) (SampledResult, error) {
	res := SampledResult{Samples: samples}
	for u := range countD {
		if countD[u] < minCount || countP[u] < minCount {
			continue
		}
		res.EventsCompared++
		ratio := logRatioAbs(countD[u], countP[u])
		if ratio > res.EmpiricalEpsilon {
			res.EmpiricalEpsilon = ratio
		}
	}
	if res.EventsCompared == 0 {
		return res, ErrNoMass
	}
	return res, nil
}
