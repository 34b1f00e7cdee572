package channel

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/gibbs"
	"repro/internal/infotheory"
	"repro/internal/mathx"
)

// meanLoss scores θ (a scalar in [0,1]) against a binary record x:
// l = (θ − x)² ∈ [0, 1]. It depends on the data only through the record
// value, so learners built on it are exchangeable.
type meanLoss struct{}

func (meanLoss) Loss(theta []float64, e dataset.Example) float64 {
	d := theta[0] - e.X[0]
	return d * d
}
func (meanLoss) Bound() float64 { return 1 }
func (meanLoss) Name() string   { return "mean-squared" }

func meanGrid(points int) [][]float64 {
	axis := mathx.Linspace(0, 1, points)
	out := make([][]float64, points)
	for i, v := range axis {
		out[i] = []float64{v}
	}
	return out
}

func meanEstimator(t *testing.T, lambda float64, points int) *gibbs.Estimator {
	t.Helper()
	est, err := gibbs.New(meanLoss{}, meanGrid(points), nil, lambda)
	if err != nil {
		t.Fatal(err)
	}
	return est
}

func TestBinarySampleSpace(t *testing.T) {
	inputs, logPX := BinarySampleSpace(4, 0.3)
	if len(inputs) != 16 || len(logPX) != 16 {
		t.Fatalf("sizes %d/%d", len(inputs), len(logPX))
	}
	if !mathx.AlmostEqual(mathx.LogSumExp(logPX), 0, 1e-10) {
		t.Errorf("probabilities must normalize, got %v", mathx.LogSumExp(logPX))
	}
	// Input 0 is all zeros: prob (1−p)^4.
	if !mathx.AlmostEqual(logPX[0], 4*math.Log(0.7), 1e-12) {
		t.Errorf("logPX[0] = %v", logPX[0])
	}
	// All inputs are valid neighbors chains of each other (size n).
	for _, d := range inputs {
		if d.Len() != 4 {
			t.Fatal("dataset size")
		}
	}
}

func TestBinarySampleSpacePanics(t *testing.T) {
	for i, fn := range []func(){
		func() { BinarySampleSpace(0, 0.5) },
		func() { BinarySampleSpace(21, 0.5) },
		func() { BinarySampleSpace(4, 1.5) },
		func() { CountSampleSpace(0, 0.5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d should panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestCountSampleSpace(t *testing.T) {
	inputs, logPX := CountSampleSpace(6, 0.4)
	if len(inputs) != 7 {
		t.Fatalf("inputs = %d", len(inputs))
	}
	if !mathx.AlmostEqual(mathx.LogSumExp(logPX), 0, 1e-10) {
		t.Error("binomial must normalize")
	}
	for k, d := range inputs {
		if dataset.CountOnes(d) != k {
			t.Fatalf("representative %d has %d ones", k, dataset.CountOnes(d))
		}
	}
}

func TestFromMechanismAndMI(t *testing.T) {
	est := meanEstimator(t, 10, 5)
	inputs, logPX := CountSampleSpace(8, 0.5)
	ch, err := FromMechanism(inputs, logPX, est)
	if err != nil {
		t.Fatal(err)
	}
	if ch.NumInputs() != 9 || ch.NumOutputs() != 5 {
		t.Fatal("shape")
	}
	mi, err := ch.MutualInformation()
	if err != nil {
		t.Fatal(err)
	}
	if mi <= 0 {
		t.Errorf("MI = %v, expected positive leakage", mi)
	}
	// MI bounded by input entropy.
	px := make([]float64, len(logPX))
	for i, lp := range logPX {
		px[i] = math.Exp(lp)
	}
	hIn, err := infotheory.Entropy(px)
	if err != nil {
		t.Fatal(err)
	}
	if mi > hIn+1e-9 {
		t.Errorf("MI %v exceeds input entropy %v", mi, hIn)
	}
}

func TestCountVsFullEnumerationAgree(t *testing.T) {
	// For an exchangeable learner the collapsed (count) channel and the
	// full 2^n channel must have the same MI.
	est := meanEstimator(t, 6, 4)
	n := 6
	p := 0.35
	full, logFull := BinarySampleSpace(n, p)
	coll, logColl := CountSampleSpace(n, p)
	chFull, err := FromMechanism(full, logFull, est)
	if err != nil {
		t.Fatal(err)
	}
	chColl, err := FromMechanism(coll, logColl, est)
	if err != nil {
		t.Fatal(err)
	}
	miFull, _ := chFull.MutualInformation()
	miColl, _ := chColl.MutualInformation()
	if !mathx.AlmostEqual(miFull, miColl, 1e-9) {
		t.Errorf("full MI %v != collapsed MI %v", miFull, miColl)
	}
}

func TestMIMonotoneInLambda(t *testing.T) {
	// Less privacy (larger λ) must leak more information — the paper's
	// core tradeoff (Section 4).
	inputs, logPX := CountSampleSpace(10, 0.5)
	var prev float64 = -1
	for _, lambda := range []float64{0.1, 1, 5, 20, 100} {
		est := meanEstimator(t, lambda, 9)
		ch, err := FromMechanism(inputs, logPX, est)
		if err != nil {
			t.Fatal(err)
		}
		mi, err := ch.MutualInformation()
		if err != nil {
			t.Fatal(err)
		}
		if mi < prev-1e-9 {
			t.Errorf("MI decreased with λ: %v after %v", mi, prev)
		}
		prev = mi
	}
}

func TestExpectedKLDecomposition(t *testing.T) {
	// E_Ẑ KL(ρ_Ẑ ‖ π) = I(Ẑ;θ) + KL(marginal ‖ π) (Section 4).
	est := meanEstimator(t, 8, 6)
	inputs, logPX := CountSampleSpace(7, 0.45)
	ch, err := FromMechanism(inputs, logPX, est)
	if err != nil {
		t.Fatal(err)
	}
	mi, _ := ch.MutualInformation()
	marginal := ch.OutputMarginalLog()
	// For π = marginal: E KL = I exactly.
	ekl, err := ch.ExpectedKLToPrior(marginal)
	if err != nil {
		t.Fatal(err)
	}
	if !mathx.AlmostEqual(ekl, mi, 1e-9) {
		t.Errorf("E KL to marginal = %v, MI = %v", ekl, mi)
	}
	// For a different prior: E KL = I + KL(marginal‖π) > I.
	uniform := make([]float64, ch.NumOutputs())
	for i := range uniform {
		uniform[i] = -math.Log(float64(len(uniform)))
	}
	eklU, err := ch.ExpectedKLToPrior(uniform)
	if err != nil {
		t.Fatal(err)
	}
	klMarg, err := infotheory.KLLogSpace(marginal, uniform)
	if err != nil {
		t.Fatal(err)
	}
	if !mathx.AlmostEqual(eklU, mi+klMarg, 1e-9) {
		t.Errorf("decomposition: E KL %v != MI %v + KL %v", eklU, mi, klMarg)
	}
}

func TestObjectiveAndMarginal(t *testing.T) {
	est := meanEstimator(t, 5, 4)
	inputs, logPX := CountSampleSpace(5, 0.5)
	ch, err := FromMechanism(inputs, logPX, est)
	if err != nil {
		t.Fatal(err)
	}
	risks := make([][]float64, len(inputs))
	for i, d := range inputs {
		risks[i] = est.Risks(d)
	}
	obj, err := ch.Objective(risks, 5)
	if err != nil {
		t.Fatal(err)
	}
	expRisk, _ := ch.ExpectedValue(risks)
	mi, _ := ch.MutualInformation()
	if !mathx.AlmostEqual(obj, expRisk+mi/5, 1e-12) {
		t.Errorf("objective composition")
	}
	if !mathx.AlmostEqual(mathx.LogSumExp(ch.OutputMarginalLog()), 0, 1e-9) {
		t.Error("marginal must normalize")
	}
}

func TestTheorem42RateDistortionFixedPointIsGibbs(t *testing.T) {
	// The minimizer of E risk + (1/λ)·I must be a Gibbs channel with
	// prior equal to its own output marginal (Theorem 4.2 / Section 4).
	est := meanEstimator(t, 7, 6)
	inputs, logPX := CountSampleSpace(9, 0.4)
	risks := make([][]float64, len(inputs))
	for i, d := range inputs {
		risks[i] = est.Risks(d)
	}
	lambda := 7.0
	opt, objOpt, err := RateDistortionChannel(risks, logPX, lambda, 3000, 1e-13)
	if err != nil {
		t.Fatal(err)
	}
	// Fixed-point check: each row must equal Gibbs(marginal, risks, λ).
	marginal := opt.OutputMarginalLog()
	for i := range opt.Rows {
		logw := make([]float64, len(marginal))
		for j := range logw {
			logw[j] = marginal[j] - lambda*risks[i][j]
		}
		want, _ := mathx.LogNormalize(logw)
		for j := range want {
			// Compare in the probability domain: deep tails (log-probs of
			// −100 and below) are numerically irrelevant to the fixed point.
			if math.Abs(math.Exp(opt.Rows[i][j])-math.Exp(want[j])) > 1e-8 {
				t.Fatalf("row %d not a Gibbs posterior of its own marginal: p=%v vs %v", i, math.Exp(opt.Rows[i][j]), math.Exp(want[j]))
			}
		}
	}
	// Optimality: the RD channel must (weakly) beat the uniform-prior
	// Gibbs channel and a batch of ad-hoc competitors on the objective.
	gibbsCh, err := FromMechanism(inputs, logPX, est)
	if err != nil {
		t.Fatal(err)
	}
	objGibbs, err := gibbsCh.Objective(risks, lambda)
	if err != nil {
		t.Fatal(err)
	}
	if objOpt > objGibbs+1e-9 {
		t.Errorf("RD objective %v worse than uniform-prior Gibbs %v", objOpt, objGibbs)
	}
	// Deterministic ERM channel: point mass on the per-input argmin.
	ermRows := make([][]float64, len(inputs))
	for i := range ermRows {
		ermRows[i] = make([]float64, len(risks[i]))
		best := mathx.ArgMin(risks[i])
		for j := range ermRows[i] {
			if j == best {
				ermRows[i][j] = 0
			} else {
				ermRows[i][j] = math.Inf(-1)
			}
		}
	}
	normPX, _ := mathx.LogNormalize(logPX)
	ermCh := &Channel{LogPX: normPX, Rows: ermRows}
	objERM, err := ermCh.Objective(risks, lambda)
	if err != nil {
		t.Fatal(err)
	}
	if objOpt > objERM+1e-9 {
		t.Errorf("RD objective %v worse than deterministic ERM %v", objOpt, objERM)
	}
	// Constant channel (ignores data): MI = 0 but high risk.
	constRows := make([][]float64, len(inputs))
	for i := range constRows {
		constRows[i] = make([]float64, len(risks[0]))
		for j := range constRows[i] {
			if j == 0 {
				constRows[i][j] = 0
			} else {
				constRows[i][j] = math.Inf(-1)
			}
		}
	}
	constCh := &Channel{LogPX: normPX, Rows: constRows}
	objConst, err := constCh.Objective(risks, lambda)
	if err != nil {
		t.Fatal(err)
	}
	if objOpt > objConst+1e-9 {
		t.Errorf("RD objective %v worse than constant channel %v", objOpt, objConst)
	}
}

func TestDPLeakageCaps(t *testing.T) {
	// For the Gibbs channel with per-neighbor certificate ε, any two
	// datasets differ in at most n records, so pairwise ratios ≤ ε·n and
	// MI ≤ capacity ≤ ε·n.
	n := 8
	lambda := 4.0
	est := meanEstimator(t, lambda, 5)
	epsPerNeighbor := est.Guarantee(n).Epsilon
	inputs, logPX := CountSampleSpace(n, 0.5)
	ch, err := FromMechanism(inputs, logPX, est)
	if err != nil {
		t.Fatal(err)
	}
	capNats := DPLeakageCapNats(epsPerNeighbor, n)
	maxRatio := ch.MaxPairwiseLogRatio()
	if maxRatio > capNats+1e-9 {
		t.Errorf("pairwise ratio %v exceeds ε·n = %v", maxRatio, capNats)
	}
	mi, _ := ch.MutualInformation()
	capacity, err := ch.Capacity(1e-9, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if mi > capacity+1e-6 {
		t.Errorf("MI %v exceeds capacity %v", mi, capacity)
	}
	if capacity > capNats+1e-6 {
		t.Errorf("capacity %v exceeds DP cap %v", capacity, capNats)
	}
}

func TestChannelValidation(t *testing.T) {
	if _, err := FromMechanism(nil, nil, nil); err != ErrBadChannel {
		t.Error("empty inputs")
	}
	ch := &Channel{LogPX: []float64{math.Log(0.5), math.Log(0.5)}, Rows: [][]float64{{0}, {0}}}
	if _, err := ch.ExpectedValue([][]float64{{1}}); err != ErrBadChannel {
		t.Error("ExpectedValue shape")
	}
	if _, err := ch.Objective([][]float64{{1}, {1}}, 0); err != ErrBadChannel {
		t.Error("Objective lambda")
	}
	if _, err := ch.ExpectedKLToPrior([]float64{0, 0}); err != ErrBadChannel {
		t.Error("prior shape")
	}
}

func TestRateDistortionValidation(t *testing.T) {
	if _, _, err := RateDistortionChannel(nil, nil, 1, 10, 1e-9); err != ErrBadChannel {
		t.Error("empty")
	}
	if _, _, err := RateDistortionChannel([][]float64{{1}}, []float64{0}, 0, 10, 1e-9); err != ErrBadChannel {
		t.Error("lambda")
	}
	if _, _, err := RateDistortionChannel([][]float64{{1}, {1, 2}}, []float64{0, 0}, 1, 10, 1e-9); err != ErrBadChannel {
		t.Error("ragged")
	}
}

func TestRateDistortionLimits(t *testing.T) {
	// λ→0: MI cost dominates → channel ignores data (MI ≈ 0).
	risks := [][]float64{{0, 1}, {1, 0}}
	logPX := []float64{math.Log(0.5), math.Log(0.5)}
	chLow, _, err := RateDistortionChannel(risks, logPX, 1e-6, 500, 1e-15)
	if err != nil {
		t.Fatal(err)
	}
	miLow, _ := chLow.MutualInformation()
	if miLow > 1e-3 {
		t.Errorf("λ→0 MI = %v, want ≈ 0", miLow)
	}
	// λ→∞: risk dominates → channel approaches per-input argmin (MI → ln 2
	// here) and expected risk → 0.
	chHigh, _, err := RateDistortionChannel(risks, logPX, 1e4, 2000, 1e-15)
	if err != nil {
		t.Fatal(err)
	}
	miHigh, _ := chHigh.MutualInformation()
	if math.Abs(miHigh-math.Ln2) > 1e-3 {
		t.Errorf("λ→∞ MI = %v, want ln2", miHigh)
	}
	expRisk, _ := chHigh.ExpectedValue(risks)
	if expRisk > 1e-3 {
		t.Errorf("λ→∞ risk = %v, want ≈ 0", expRisk)
	}
}

func TestComposeDataProcessingInequality(t *testing.T) {
	// Post-processing the predictor can only reduce every leakage
	// measure: Shannon MI, min-entropy leakage, and Bayes accuracy.
	est := meanEstimator(t, 12, 5)
	inputs, logPX := CountSampleSpace(8, 0.5)
	ch, err := FromMechanism(inputs, logPX, est)
	if err != nil {
		t.Fatal(err)
	}
	// A lossy post-processing: merge adjacent outputs.
	post := [][]float64{
		{1, 0, 0},
		{1, 0, 0},
		{0, 1, 0},
		{0, 0, 1},
		{0, 0, 1},
	}
	composed, err := ch.Compose(post)
	if err != nil {
		t.Fatal(err)
	}
	if composed.NumOutputs() != 3 || composed.NumInputs() != ch.NumInputs() {
		t.Fatal("composed shape")
	}
	miBefore, _ := ch.MutualInformation()
	miAfter, err := composed.MutualInformation()
	if err != nil {
		t.Fatal(err)
	}
	if miAfter > miBefore+1e-9 {
		t.Errorf("DPI violated: MI %v > %v", miAfter, miBefore)
	}
	leakBefore, _ := ch.MinEntropyLeakage()
	leakAfter, err := composed.MinEntropyLeakage()
	if err != nil {
		t.Fatal(err)
	}
	if leakAfter > leakBefore+1e-9 {
		t.Errorf("DPI violated for min-entropy leakage: %v > %v", leakAfter, leakBefore)
	}
	accBefore, _ := ch.BayesReconstructionAccuracy()
	accAfter, err := composed.BayesReconstructionAccuracy()
	if err != nil {
		t.Fatal(err)
	}
	if accAfter > accBefore+1e-12 {
		t.Errorf("post-processing improved the adversary: %v > %v", accAfter, accBefore)
	}
	// Identity post-processing changes nothing.
	id := [][]float64{
		{1, 0, 0, 0, 0}, {0, 1, 0, 0, 0}, {0, 0, 1, 0, 0}, {0, 0, 0, 1, 0}, {0, 0, 0, 0, 1},
	}
	same, err := ch.Compose(id)
	if err != nil {
		t.Fatal(err)
	}
	miSame, _ := same.MutualInformation()
	if !mathx.AlmostEqual(miSame, miBefore, 1e-9) {
		t.Errorf("identity post-processing changed MI: %v vs %v", miSame, miBefore)
	}
}

func TestComposeValidation(t *testing.T) {
	est := meanEstimator(t, 2, 3)
	inputs, logPX := CountSampleSpace(4, 0.5)
	ch, err := FromMechanism(inputs, logPX, est)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ch.Compose([][]float64{{1}}); err == nil {
		t.Error("row count mismatch")
	}
	if _, err := ch.Compose([][]float64{{1, 0}, {0, 1}, {1}}); err == nil {
		t.Error("ragged post")
	}
	if _, err := ch.Compose([][]float64{{0, 0}, {1, 0}, {0, 1}}); err == nil {
		t.Error("zero-mass row")
	}
	if _, err := ch.Compose([][]float64{{-1, 2}, {1, 0}, {0, 1}}); err == nil {
		t.Error("negative entry")
	}
}
