package audit

// Property-based privacy tests: for RANDOM quality functions, priors,
// temperatures and datasets, the exponential mechanism and the Gibbs
// estimator must satisfy their privacy certificates exactly. These tests
// complement the targeted audits in the experiment suite: they search a
// much wilder configuration space for counterexamples.

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/gibbs"
	"repro/internal/learn"
	"repro/internal/mechanism"
	"repro/internal/rng"
)

// randomBoundedLoss is a loss whose per-example values are arbitrary (but
// bounded) functions of a hash of the example and the parameter index —
// adversarially unstructured, which is exactly what a property test
// wants. Bound is 1.
type randomBoundedLoss struct {
	salt int64
}

func (l randomBoundedLoss) Loss(theta []float64, e dataset.Example) float64 {
	// A deterministic pseudo-random value in [0, 1] from (salt, θ, x, y).
	h := uint64(l.salt)
	mix := func(v float64) {
		h ^= math.Float64bits(v) + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
	}
	for _, v := range theta {
		mix(v)
	}
	for _, v := range e.X {
		mix(v)
	}
	mix(e.Y)
	// Map to [0, 1].
	return float64(h%1_000_003) / 1_000_003
}
func (randomBoundedLoss) Bound() float64 { return 1 }
func (randomBoundedLoss) Name() string   { return "random-bounded" }

func TestPropertyGibbsPrivacyOnRandomLosses(t *testing.T) {
	f := func(seed int64, lambdaRaw float64, saltRaw int64) bool {
		g := rng.New(seed)
		lambda := math.Abs(math.Mod(lambdaRaw, 100)) + 0.1
		n := 5 + g.Intn(30)
		loss := randomBoundedLoss{salt: saltRaw}
		thetas := make([][]float64, 2+g.Intn(12))
		for i := range thetas {
			thetas[i] = []float64{g.Normal(0, 2)}
		}
		est, err := gibbs.New(loss, thetas, nil, lambda)
		if err != nil {
			return false
		}
		d := dataset.BernoulliTable{P: 0.5}.Generate(n, g)
		nb := d.ReplaceOne(g.Intn(n), dataset.Example{X: []float64{g.Float64()}})
		got := ExactEpsilon(est.LogProbabilities(d), est.LogProbabilities(nb))
		budget := est.Guarantee(n).Epsilon
		return got <= budget+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertyExponentialMechanismPrivacy(t *testing.T) {
	// Random bounded quality functions with sensitivity enforced by
	// construction: q(d, u) = (sens/n)·Σᵢ hash(record i, u) with hash in
	// [0, 1]. Replacing one record moves q by at most sens/n... we use
	// sens = 1 with counting-style qualities instead: q = Σᵢ bit(i, u),
	// each record contributing a 0/1 term per candidate.
	f := func(seed int64, epsRaw float64) bool {
		g := rng.New(seed)
		eps := math.Abs(math.Mod(epsRaw, 5)) + 0.05
		n := 5 + g.Intn(20)
		k := 2 + g.Intn(8)
		loss := randomBoundedLoss{salt: seed}
		quality := func(d *dataset.Dataset, u int) float64 {
			var s float64
			th := []float64{float64(u)}
			for _, e := range d.Examples {
				if loss.Loss(th, e) > 0.5 {
					s++
				}
			}
			return s
		}
		m, err := mechanism.NewExponential(quality, k, 1, eps)
		if err != nil {
			return false
		}
		d := dataset.BernoulliTable{P: 0.5}.Generate(n, g)
		nb := d.ReplaceOne(g.Intn(n), dataset.Example{X: []float64{g.Float64()}})
		got := ExactEpsilon(m.LogProbabilities(d), m.LogProbabilities(nb))
		return got <= m.Guarantee().Epsilon+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertyPermuteAndFlipPrivacy(t *testing.T) {
	f := func(seed int64, epsRaw float64) bool {
		g := rng.New(seed)
		eps := math.Abs(math.Mod(epsRaw, 4)) + 0.05
		n := 5 + g.Intn(20)
		k := 2 + g.Intn(6)
		loss := randomBoundedLoss{salt: seed ^ 0x5a5a}
		quality := func(d *dataset.Dataset, u int) float64 {
			var s float64
			th := []float64{float64(u)}
			for _, e := range d.Examples {
				if loss.Loss(th, e) > 0.5 {
					s++
				}
			}
			return s
		}
		m, err := mechanism.NewPermuteAndFlip(quality, k, 1, eps)
		if err != nil {
			return false
		}
		d := dataset.BernoulliTable{P: 0.5}.Generate(n, g)
		nb := d.ReplaceOne(g.Intn(n), dataset.Example{X: []float64{g.Float64()}})
		got := ExactEpsilon(m.LogProbabilities(d), m.LogProbabilities(nb))
		return got <= m.Guarantee().Epsilon+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestPropertyLearnerCalibrationExact(t *testing.T) {
	// For any ε and n, the core-learner calibration λ = εn/2M must make
	// the Theorem 4.1 certificate 2λ·M/n equal ε exactly (round-trip
	// identity).
	f := func(epsRaw float64, nRaw uint16, boundRaw float64) bool {
		eps := math.Abs(math.Mod(epsRaw, 20)) + 1e-3
		n := int(nRaw%1000) + 1
		bound := math.Abs(math.Mod(boundRaw, 50)) + 1e-3
		loss := learn.NewClippedLoss(learn.SquaredLoss{}, bound)
		est, err := gibbs.New(loss, [][]float64{{0}}, nil, gibbs.LambdaForEpsilon(eps, loss, n))
		if err != nil {
			return false
		}
		back := est.Guarantee(n).Epsilon
		return math.Abs(back-eps) < 1e-9*math.Max(1, eps)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
