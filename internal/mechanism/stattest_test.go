package mechanism

// Statistical differential-privacy battery: for each mechanism and each
// ε, draw a large sample of outputs on a worst-case adjacent dataset
// pair, histogram the outcomes, and check that the empirical
// log-likelihood ratio of every well-populated outcome bin stays within
// the advertised ε plus a Chernoff-style sampling slack. This is the
// sampled-path complement of the exact distribution audits in
// internal/audit: it exercises Release's draw (the code users actually
// call), not LogProbabilities. The selection batteries draw from scores
// computed once, after checking that draw against Release itself.
//
// The slack per bin is 3·sqrt(1/c1 + 1/c2) — three standard deviations
// of the empirical log-ratio of two independent binomial proportions
// (delta method) — so with the fixed seeds below the battery is
// deterministic, and even under reseeding a false alarm per bin is a
// ≈0.3% event.

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/rng"
)

const (
	statSamples  = 200_000
	statMinCount = 100
)

// statEpsilons is the ε grid every mechanism in the battery runs at.
var statEpsilons = []float64{0.1, 1, 4}

// adjacentCountingPair returns a worst-case replace-one neighbor pair
// for the counting query "X[0] > 0": d2 flips one positive example to
// negative, so the true counts differ by exactly the sensitivity (1).
func adjacentCountingPair() (d1, d2 *dataset.Dataset) {
	n := 40
	examples := make([]dataset.Example, n)
	for i := range examples {
		x := 0.0
		if i%2 == 0 {
			x = 1.0
		}
		examples[i] = dataset.Example{X: []float64{x}, Y: 0}
	}
	d1 = dataset.New(examples)
	d2 = d1.ReplaceOne(0, dataset.Example{X: []float64{0}, Y: 0})
	return d1, d2
}

// checkEmpiricalDP asserts that for every outcome bin populated with at
// least statMinCount samples on BOTH sides, the empirical
// log-likelihood ratio is at most eps plus the per-bin sampling slack.
// It fails the test if no bin is populated enough to check anything.
func checkEmpiricalDP(t *testing.T, eps float64, c1, c2 map[int]int, n1, n2 int) {
	t.Helper()
	checked := 0
	for bin, a := range c1 {
		b, ok := c2[bin]
		if !ok || a < statMinCount || b < statMinCount {
			continue
		}
		checked++
		llr := math.Log(float64(a)/float64(n1)) - math.Log(float64(b)/float64(n2))
		slack := 3 * math.Sqrt(1/float64(a)+1/float64(b))
		if math.Abs(llr) > eps+slack {
			t.Errorf("bin %d: |empirical log-ratio| = %.4f exceeds eps + slack = %.4f + %.4f (counts %d vs %d)",
				bin, math.Abs(llr), eps, slack, a, b)
		}
	}
	if checked == 0 {
		t.Fatalf("no outcome bin reached %d samples on both sides; battery checked nothing", statMinCount)
	}
}

// sameDraws asserts that scored, a draw from scores computed once, is
// release's draw: the first 1,000 outcomes of one seed agree. The
// batteries below then sample scored, because release re-scores every
// candidate over the dataset on each of its statSamples draws although
// the scores never change.
func sameDraws(t *testing.T, release, scored func(g *rng.RNG) int, seed int64) {
	t.Helper()
	gr, gs := rng.New(seed), rng.New(seed)
	for i := 0; i < 1000; i++ {
		if r, s := release(gr), scored(gs); r != s {
			t.Fatalf("draw %d of seed %d: Release gave %d, the precomputed scores %d", i, seed, r, s)
		}
	}
}

// sampleHist draws statSamples outcomes from draw and histograms them.
func sampleHist(draw func(g *rng.RNG) int, g *rng.RNG) map[int]int {
	h := make(map[int]int)
	for i := 0; i < statSamples; i++ {
		h[draw(g)]++
	}
	return h
}

// TestLaplaceEmpiricalDP samples the Laplace mechanism on a counting
// query (sensitivity 1) over adjacent datasets and checks the per-bin
// empirical privacy loss. Outcomes are binned to the nearest integer;
// the pointwise density ratio bound e^ε survives integration over any
// bin, so the per-bin guarantee is still ε.
func TestLaplaceEmpiricalDP(t *testing.T) {
	d1, d2 := adjacentCountingPair()
	q := CountQuery(func(e dataset.Example) bool { return e.X[0] > 0 })
	for _, eps := range statEpsilons {
		t.Run(fmt.Sprintf("eps=%g", eps), func(t *testing.T) {
			m, err := NewLaplace(q, eps)
			if err != nil {
				t.Fatal(err)
			}
			draw := func(d *dataset.Dataset) func(g *rng.RNG) int {
				return func(g *rng.RNG) int {
					return int(math.Round(m.Release(d, g)[0]))
				}
			}
			c1 := sampleHist(draw(d1), rng.New(101))
			c2 := sampleHist(draw(d2), rng.New(202))
			checkEmpiricalDP(t, eps, c1, c2, statSamples, statSamples)
		})
	}
}

// statQuality is a selection quality with replace-one sensitivity 1:
// the negated distance between the dataset's positive count and the
// candidate index.
func statQuality(d *dataset.Dataset, u int) float64 {
	var count float64
	for _, e := range d.Examples {
		if e.X[0] > 0 {
			count++
		}
	}
	return -math.Abs(count - float64(u))
}

// TestExponentialEmpiricalDP samples the exponential mechanism's
// Release over adjacent datasets. The Theorem 2.2 guarantee is 2·ε·Δq,
// so the mechanism is built with parameter ε/2 to target a total budget
// of ε.
func TestExponentialEmpiricalDP(t *testing.T) {
	d1, d2 := adjacentCountingPair()
	for _, eps := range statEpsilons {
		t.Run(fmt.Sprintf("eps=%g", eps), func(t *testing.T) {
			m, err := NewExponential(statQuality, 25, 1, eps/2)
			if err != nil {
				t.Fatal(err)
			}
			if got := m.Guarantee().Epsilon; math.Abs(got-eps) > 1e-12 {
				t.Fatalf("guarantee %.6f, want %.6f", got, eps)
			}
			release := func(d *dataset.Dataset) func(g *rng.RNG) int {
				return func(g *rng.RNG) int { return m.Release(d, g) }
			}
			draw := func(d *dataset.Dataset) func(g *rng.RNG) int {
				w := m.LogWeights(d)
				return func(g *rng.RNG) int { return g.CategoricalLog(w) }
			}
			sameDraws(t, release(d1), draw(d1), 303)
			sameDraws(t, release(d2), draw(d2), 404)
			c1 := sampleHist(draw(d1), rng.New(303))
			c2 := sampleHist(draw(d2), rng.New(404))
			checkEmpiricalDP(t, eps, c1, c2, statSamples, statSamples)
		})
	}
}

// TestPermuteAndFlipEmpiricalDP samples permute-and-flip's Release over
// adjacent datasets; the mechanism is ε-DP at its parameter directly
// (no factor of two).
func TestPermuteAndFlipEmpiricalDP(t *testing.T) {
	d1, d2 := adjacentCountingPair()
	for _, eps := range statEpsilons {
		t.Run(fmt.Sprintf("eps=%g", eps), func(t *testing.T) {
			m, err := NewPermuteAndFlip(statQuality, 25, 1, eps)
			if err != nil {
				t.Fatal(err)
			}
			if got := m.Guarantee().Epsilon; math.Abs(got-eps) > 1e-12 {
				t.Fatalf("guarantee %.6f, want %.6f", got, eps)
			}
			release := func(d *dataset.Dataset) func(g *rng.RNG) int {
				return func(g *rng.RNG) int { return m.Release(d, g) }
			}
			draw := func(d *dataset.Dataset) func(g *rng.RNG) int {
				scores := m.scores(d)
				return func(g *rng.RNG) int { return m.flip(scores, g) }
			}
			sameDraws(t, release(d1), draw(d1), 505)
			sameDraws(t, release(d2), draw(d2), 606)
			c1 := sampleHist(draw(d1), rng.New(505))
			c2 := sampleHist(draw(d2), rng.New(606))
			checkEmpiricalDP(t, eps, c1, c2, statSamples, statSamples)
		})
	}
}
