// Package rng provides deterministic, seedable random samplers for every
// distribution the library needs: the noise distributions behind
// differentially-private mechanisms (Laplace, two-sided geometric,
// Gaussian), the classical continuous families used by synthetic data
// generators (exponential, gamma, beta), and discrete sampling utilities
// (Bernoulli, categorical with three algorithms, permutations).
//
// Every sampler hangs off an *RNG, which is a thin wrapper over
// math/rand.Rand with an explicit seed so that experiments, tests, and
// benchmarks are exactly reproducible. This library is a research
// reproduction; cryptographic randomness (crypto/rand) would be required
// before using the mechanisms against a real adversary, and the RNG type
// documents that boundary. The rawrand lint check (cmd/dplearn-lint)
// enforces it: this package is the only non-test code allowed to import
// math/rand, so swapping the source later is a one-package change.
package rng

import (
	"math"
	"math/rand"
)

// RNG is a seedable source of random variates. It is not safe for
// concurrent use; create one RNG per goroutine (e.g. via Split).
type RNG struct {
	r *rand.Rand
}

// New returns an RNG seeded with the given value. Equal seeds produce
// identical streams.
func New(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Split derives a new, independently-seeded RNG from this one. The child
// stream is a deterministic function of the parent's state, so a seeded
// experiment that Splits per-worker remains reproducible.
func (g *RNG) Split() *RNG {
	return New(g.SplitSeed())
}

// SplitSeed consumes exactly the parent state one Split would and
// returns the seed that Split would have used, without constructing the
// child. Checkpointed sweeps persist this fingerprint: New(SplitSeed())
// is bit-identical to Split(), so a resumed run can both re-derive a
// cell's private stream and verify a saved result belongs to it.
func (g *RNG) SplitSeed() int64 {
	return g.r.Int63()
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Float64 returns a uniform variate in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Uniform returns a uniform variate in [lo, hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*g.r.Float64()
}

// Bernoulli returns true with probability p (clamped to [0, 1]).
func (g *RNG) Bernoulli(p float64) bool {
	return g.r.Float64() < p
}

// Normal returns a Gaussian variate with the given mean and standard
// deviation. sigma must be non-negative.
func (g *RNG) Normal(mean, sigma float64) float64 {
	return mean + sigma*g.r.NormFloat64()
}

// Exponential returns an exponential variate with the given rate
// (mean 1/rate). rate must be positive.
func (g *RNG) Exponential(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exponential requires rate > 0")
	}
	return g.r.ExpFloat64() / rate
}

// Laplace returns a Laplace variate with the given location and scale b:
// density (1/2b)·exp(−|x−loc|/b). This is the noise distribution of the
// Laplace mechanism (Dwork et al. 2006). scale must be positive.
func (g *RNG) Laplace(loc, scale float64) float64 {
	if scale <= 0 {
		panic("rng: Laplace requires scale > 0")
	}
	// Inverse-CDF: u uniform on (-1/2, 1/2); x = loc - b·sgn(u)·ln(1-2|u|).
	u := g.r.Float64() - 0.5
	if u >= 0 {
		return loc - scale*math.Log(1-2*u)
	}
	return loc + scale*math.Log(1+2*u)
}

// TwoSidedGeometric returns a discrete Laplace variate on the integers:
// P(X = k) ∝ α^|k| with α = exp(−1/scale) ∈ (0,1). It is the integer
// analogue of Laplace noise, used by the geometric mechanism
// (Ghosh–Roughgarden–Sundararajan). scale must be positive.
func (g *RNG) TwoSidedGeometric(scale float64) int64 {
	if scale <= 0 {
		panic("rng: TwoSidedGeometric requires scale > 0")
	}
	alpha := math.Exp(-1 / scale)
	// The difference of two iid Geometric(1-α) variables is exactly the
	// two-sided geometric: P(G1-G2 = k) = (1-α)/(1+α) · α^|k|.
	return g.geometric(1-alpha) - g.geometric(1-alpha)
}

// geometric returns k >= 0 with P(k) = p(1-p)^k.
func (g *RNG) geometric(p float64) int64 {
	if p <= 0 || p > 1 {
		panic("rng: geometric requires p in (0, 1]")
	}
	if p == 1 { //dplint:ignore floateq exact boundary: success probability of bitwise 1 always returns 0 failures
		return 0
	}
	// Inversion of the CDF via an exponential draw.
	u := g.r.Float64()
	return int64(math.Floor(math.Log1p(-u) / math.Log1p(-p)))
}

// Gamma returns a gamma variate with the given shape and scale
// (mean shape·scale) using the Marsaglia–Tsang squeeze method, with the
// standard boost for shape < 1. shape and scale must be positive.
func (g *RNG) Gamma(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic("rng: Gamma requires shape > 0 and scale > 0")
	}
	if shape < 1 {
		// X_a = X_{a+1} · U^{1/a}
		u := g.r.Float64()
		return g.Gamma(shape+1, scale) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		var x, v float64
		for {
			x = g.r.NormFloat64()
			v = 1 + c*x
			if v > 0 {
				break
			}
		}
		v = v * v * v
		u := g.r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v * scale
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v * scale
		}
	}
}

// Beta returns a Beta(a, b) variate via two gamma draws. a and b must be
// positive.
func (g *RNG) Beta(a, b float64) float64 {
	x := g.Gamma(a, 1)
	y := g.Gamma(b, 1)
	return x / (x + y)
}

// Categorical samples an index from the (unnormalized, non-negative)
// weight vector by linear scan. It panics on an empty, negative, or
// all-zero weight vector.
func (g *RNG) Categorical(weights []float64) int {
	if len(weights) == 0 {
		panic("rng: Categorical on empty weights")
	}
	var total float64
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic("rng: Categorical requires non-negative weights")
		}
		total += w
	}
	if total <= 0 {
		panic("rng: Categorical requires positive total weight")
	}
	u := g.r.Float64() * total
	var cum float64
	for i, w := range weights {
		cum += w
		if u < cum {
			return i
		}
	}
	return len(weights) - 1 // rounding fallthrough
}

// CategoricalLog samples an index from unnormalized log-weights using the
// Gumbel-max trick, which never leaves log space and is therefore the
// sampler of choice for exponential-mechanism and Gibbs-posterior draws
// whose weights underflow exp(). Entries of -Inf have probability zero;
// it panics if all entries are -Inf.
func (g *RNG) CategoricalLog(logWeights []float64) int {
	if len(logWeights) == 0 {
		panic("rng: CategoricalLog on empty weights")
	}
	best, bestIdx := math.Inf(-1), -1
	for i, lw := range logWeights {
		if math.IsInf(lw, -1) {
			continue
		}
		// Gumbel(0,1) = -log(-log U)
		u := g.r.Float64()
		for u == 0 { //dplint:ignore floateq rejects the exact-zero draw so log(-log(u)) stays finite (Mironov-style edge case)
			u = g.r.Float64()
		}
		v := lw - math.Log(-math.Log(u))
		if v > best {
			best, bestIdx = v, i
		}
	}
	if bestIdx < 0 {
		panic("rng: CategoricalLog with all weights -Inf")
	}
	return bestIdx
}

// Perm returns a uniformly random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Shuffle pseudo-randomizes the order of n elements using the given swap
// function.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }

// Alias is a preprocessed categorical distribution supporting O(1)
// sampling via Walker's alias method. Build one with NewAlias when the
// same distribution is sampled many times.
type Alias struct {
	prob  []float64
	alias []int
}

// NewAlias builds an alias table from the (unnormalized, non-negative)
// weight vector. It panics on invalid weights, mirroring Categorical.
func NewAlias(weights []float64) *Alias {
	n := len(weights)
	if n == 0 {
		panic("rng: NewAlias on empty weights")
	}
	var total float64
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic("rng: NewAlias requires non-negative weights")
		}
		total += w
	}
	if total <= 0 {
		panic("rng: NewAlias requires positive total weight")
	}
	a := &Alias{prob: make([]float64, n), alias: make([]int, n)}
	scaled := make([]float64, n)
	small := make([]int, 0, n)
	large := make([]int, 0, n)
	for i, w := range weights {
		scaled[i] = w / total * float64(n)
		if scaled[i] < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		a.prob[s] = scaled[s]
		a.alias[s] = l
		scaled[l] = (scaled[l] + scaled[s]) - 1
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		a.prob[i] = 1
		a.alias[i] = i
	}
	for _, i := range small {
		a.prob[i] = 1
		a.alias[i] = i
	}
	return a
}

// Sample draws one index from the alias table using g.
func (a *Alias) Sample(g *RNG) int {
	i := g.r.Intn(len(a.prob))
	if g.r.Float64() < a.prob[i] {
		return i
	}
	return a.alias[i]
}
