package mechanism

import (
	"errors"
	"math"

	"repro/internal/dataset"
	"repro/internal/mathx"
	"repro/internal/rng"
)

// PermuteAndFlip is the permute-and-flip mechanism of McKenna & Sheldon
// (NeurIPS 2020): a drop-in replacement for the exponential mechanism for
// private selection that is ε-DP with utility never worse — and often a
// factor-of-two better — at equal ε. It visits the candidates in random
// order and accepts candidate u with probability
//
//	exp( ε · (q(D,u) − q*) / (2Δq) )
//
// where q* is the maximum quality; the first acceptance is released.
type PermuteAndFlip struct {
	// Quality scores candidate u on dataset d (higher is better).
	Quality func(d *dataset.Dataset, u int) float64
	// NumCandidates is the size of the output range.
	NumCandidates int
	// Sensitivity is Δq, the replace-one sensitivity of Quality.
	Sensitivity float64
	// Epsilon is the total privacy budget (the mechanism is ε-DP,
	// no factor of two on the guarantee side).
	Epsilon float64
}

// NewPermuteAndFlip validates and constructs the mechanism.
func NewPermuteAndFlip(quality func(*dataset.Dataset, int) float64, numCandidates int, sensitivity, epsilon float64) (*PermuteAndFlip, error) {
	if epsilon <= 0 || math.IsNaN(epsilon) {
		return nil, ErrInvalidEpsilon
	}
	if sensitivity <= 0 {
		return nil, ErrInvalidSensitivity
	}
	if numCandidates <= 0 {
		return nil, errors.New("mechanism: PermuteAndFlip needs at least one candidate")
	}
	return &PermuteAndFlip{Quality: quality, NumCandidates: numCandidates, Sensitivity: sensitivity, Epsilon: epsilon}, nil
}

// Release selects one candidate index.
func (m *PermuteAndFlip) Release(d *dataset.Dataset, g *rng.RNG) int {
	return m.flip(m.scores(d), g)
}

// scores evaluates every candidate's quality on d.
func (m *PermuteAndFlip) scores(d *dataset.Dataset) []float64 {
	scores := make([]float64, m.NumCandidates)
	for u := range scores {
		scores[u] = m.Quality(d, u)
	}
	return scores
}

// flip is the draw of Release over the candidates' scores: permute,
// then flip each candidate's coin until one accepts.
func (m *PermuteAndFlip) flip(scores []float64, g *rng.RNG) int {
	qStar := scores[mathx.ArgMax(scores)]
	for {
		perm := g.Perm(m.NumCandidates)
		for _, u := range perm {
			//dplint:ignore expdomain bounded argument: scores[u] <= qStar so the exponent is <= 0 and exp stays in (0,1]
			p := math.Exp(m.Epsilon * (scores[u] - qStar) / (2 * m.Sensitivity))
			if g.Bernoulli(p) {
				return u
			}
		}
		// All flips failed (possible only through floating-point rounding
		// since the argmax accepts with probability one); retry.
	}
}

// Guarantee returns (ε, 0).
func (m *PermuteAndFlip) Guarantee() Guarantee { return Guarantee{Epsilon: m.Epsilon} }

// LogProbabilities computes the exact output distribution of
// permute-and-flip on d by dynamic programming over subsets when
// NumCandidates <= 20 (it panics above that; the distribution requires
// summing over candidate orderings, which the DP reduces to 2^k states).
//
// For each candidate u with acceptance probability p_u, the release
// probability is Σ over orders of P(u first to accept). Group candidates
// by the DP over the subset S of candidates preceding u in the
// permutation: all must fail, each ordering equally likely.
func (m *PermuteAndFlip) LogProbabilities(d *dataset.Dataset) []float64 {
	k := m.NumCandidates
	if k > 20 {
		panic("mechanism: PermuteAndFlip.LogProbabilities limited to 20 candidates")
	}
	scores := m.scores(d)
	qStar := scores[mathx.ArgMax(scores)]
	accept := make([]float64, k) // acceptance probabilities p_u
	fail := make([]float64, k)   // 1 − p_u
	for u := range accept {
		//dplint:ignore expdomain bounded argument: scores[u] <= qStar so the exponent is <= 0 and exp stays in (0,1]
		accept[u] = math.Exp(m.Epsilon * (scores[u] - qStar) / (2 * m.Sensitivity))
		fail[u] = 1 - accept[u]
	}
	// P(release = u) = Σ_{S ⊆ C\{u}} [ |S|!·(k−1−|S|)! / k! ] · Π_{v∈S} fail_v · accept_u
	//               = accept_u · Σ_s coeff(s) · e_s(fail over C\{u})
	// where e_s is the elementary symmetric polynomial of degree s.
	// Handle the all-fail restart by normalizing at the end (restart
	// renormalizes exactly, since each round is i.i.d.).
	probs := make([]float64, k)
	factorial := make([]float64, k+1)
	factorial[0] = 1
	for i := 1; i <= k; i++ {
		factorial[i] = factorial[i-1] * float64(i)
	}
	for u := 0; u < k; u++ {
		// Elementary symmetric polynomials of fail probabilities of the
		// other candidates.
		e := make([]float64, k) // e[s], s = 0..k-1
		e[0] = 1
		count := 0
		for v := 0; v < k; v++ {
			if v == u {
				continue
			}
			count++
			for s := count; s >= 1; s-- {
				e[s] += e[s-1] * fail[v]
			}
		}
		var total float64
		for s := 0; s <= k-1; s++ {
			coeff := factorial[s] * factorial[k-1-s] / factorial[k]
			total += coeff * e[s]
		}
		probs[u] = accept[u] * total
	}
	// Normalize (accounts for the restart-on-all-fail loop).
	z := mathx.SumSlice(probs)
	out := make([]float64, k)
	for u := range out {
		if probs[u] <= 0 {
			out[u] = math.Inf(-1)
		} else {
			out[u] = math.Log(probs[u] / z)
		}
	}
	return out
}

// ExpectedQualityGap returns E[q* − q(released)] computed from the exact
// output distribution — the utility metric used to compare selection
// mechanisms.
func ExpectedQualityGap(logProbs []float64, quality func(u int) float64) float64 {
	var best float64 = math.Inf(-1)
	for u := range logProbs {
		if q := quality(u); q > best {
			best = q
		}
	}
	var gap float64
	for u, lp := range logProbs {
		if math.IsInf(lp, -1) {
			continue
		}
		//dplint:ignore expdomain bounded argument: lp is a normalized log-probability, so lp <= 0 and exp stays in (0,1]
		gap += math.Exp(lp) * (best - quality(u))
	}
	return gap
}
