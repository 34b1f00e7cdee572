package experiments

import (
	"fmt"
	"math"

	"repro/internal/channel"
	"repro/internal/dataset"
	"repro/internal/gibbs"
	"repro/internal/infotheory"
	"repro/internal/mathx"
)

// meanLoss is the bounded mean-estimation loss on binary records used by
// the exact-channel experiments: l(θ, x) = (θ − x)² ∈ [0, 1]. It depends
// on the data only through the record value, so the count of ones is a
// sufficient statistic and the collapsed sample space is exact.
type meanLoss struct{}

func (meanLoss) Loss(theta []float64, e dataset.Example) float64 {
	d := theta[0] - e.X[0]
	return d * d
}
func (meanLoss) Bound() float64 { return 1 }
func (meanLoss) Name() string   { return "mean-squared(binary)" }

func meanThetaGrid(points int) [][]float64 {
	axis := mathx.Linspace(0, 1, points)
	out := make([][]float64, points)
	for i, v := range axis {
		out[i] = []float64{v}
	}
	return out
}

// E6MIRiskTradeoff regenerates the paper's central object (Section 4,
// Figure 1): the information channel Ẑ → θ of the Gibbs estimator on an
// enumerable sample space, swept over λ. It reports, per λ: the exact
// mutual information I(Ẑ;θ), the channel-expected empirical risk, the
// Section-4 objective E R̂ + (1/λ)I, the objective of the rate–distortion
// optimal channel (Theorem 4.2's self-consistent Gibbs channel), and the
// gap to competitor channels.
func E6MIRiskTradeoff(opts Options) (*Table, error) {
	n := 12
	points := 9
	if opts.Quick {
		n = 8
		points = 5
	}
	p := 0.5
	inputs, logPX := channel.CountSampleSpace(n, p)
	thetas := meanThetaGrid(points)
	t := &Table{
		ID:      "E6",
		Title:   fmt.Sprintf("MI-risk tradeoff over the Figure-1 channel (Theorem 4.2): binary mean estimation, n=%d, |Theta|=%d", n, points),
		Columns: []string{"lambda", "eps (2*lambda/n)", "I(Z;theta) nats", "E risk", "objective", "RD-optimal obj", "gibbs within"},
	}
	var prevMI, prevRisk float64 = -1, math.Inf(1)
	monotone := true
	for _, lambda := range []float64{0.25, 1, 4, 16, 64} {
		est, err := gibbs.New(meanLoss{}, thetas, nil, lambda)
		if err != nil {
			return nil, err
		}
		ch, err := channel.FromMechanism(inputs, logPX, est)
		if err != nil {
			return nil, err
		}
		mi, err := ch.MutualInformation()
		if err != nil {
			return nil, err
		}
		risks := make([][]float64, len(inputs))
		for i, d := range inputs {
			risks[i] = est.Risks(d)
		}
		expRisk, err := ch.ExpectedValue(risks)
		if err != nil {
			return nil, err
		}
		obj := expRisk + mi/lambda
		_, rdObj, err := channel.RateDistortionChannel(risks, logPX, lambda, 2000, 1e-12)
		if err != nil {
			return nil, err
		}
		if mi < prevMI-1e-9 || expRisk > prevRisk+1e-9 {
			monotone = false
		}
		prevMI, prevRisk = mi, expRisk
		// The uniform-prior Gibbs channel is near-optimal; report its
		// relative excess objective over the self-consistent optimum.
		within := (obj - rdObj) / math.Max(rdObj, 1e-12)
		t.AddRow(f(lambda), f(2*lambda/float64(n)), f(mi), f(expRisk), f(obj), f(rdObj), f(within))
	}
	t.AddNote("expected shape: I increases and E risk decreases monotonically in lambda (privacy-utility tradeoff of Section 4)")
	t.AddNote("expected shape: gibbs objective is within a small factor of the rate-distortion optimum, and the RD fixed point is itself a Gibbs channel (tested in internal/channel)")
	t.AddNote("monotone tradeoff observed: %v", monotone)
	return t, nil
}

// E8LeakageBounds compares the measured leakage of the Gibbs channel
// against the upper bounds discussed in the paper's related/future work
// (Alvim et al.; Section 5): the trivial ε·diam cap and the channel's
// Shannon capacity (Blahut–Arimoto), in bits.
func E8LeakageBounds(opts Options) (*Table, error) {
	n := 10
	points := 7
	if opts.Quick {
		n = 8
		points = 5
	}
	inputs, logPX := channel.CountSampleSpace(n, 0.5)
	thetas := meanThetaGrid(points)
	t := &Table{
		ID:      "E8",
		Title:   fmt.Sprintf("Leakage vs upper bounds (Section 5 / Alvim et al.): binary mean estimation, n=%d", n),
		Columns: []string{"eps/record", "I(Z;theta) bits", "capacity bits", "eps*n cap bits", "I<=cap<=eps*n"},
	}
	allOK := true
	for _, eps := range []float64{0.05, 0.2, 0.8, 3.2} {
		lambda := gibbs.LambdaForEpsilon(eps, meanLoss{}, n)
		est, err := gibbs.New(meanLoss{}, thetas, nil, lambda)
		if err != nil {
			return nil, err
		}
		ch, err := channel.FromMechanism(inputs, logPX, est)
		if err != nil {
			return nil, err
		}
		mi, err := ch.MutualInformation()
		if err != nil {
			return nil, err
		}
		capacity, err := ch.Capacity(1e-10, 50_000)
		if err != nil {
			return nil, err
		}
		cap2 := channel.DPLeakageCapNats(eps, n)
		ok := mi <= capacity+1e-6 && capacity <= cap2+1e-6
		allOK = allOK && ok
		t.AddRow(f(eps), f(infotheory.Nats2Bits(mi)), f(infotheory.Nats2Bits(capacity)),
			f(infotheory.Nats2Bits(cap2)), fmt.Sprint(ok))
	}
	t.AddNote("expected shape: I <= capacity <= eps*n at every eps; capacity is much tighter than the trivial cap at small eps")
	t.AddNote("all rows ok: %v", allOK)
	return t, nil
}
