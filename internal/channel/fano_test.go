package channel

import (
	"math"
	"testing"

	"repro/internal/mathx"
)

func TestReconstructionIdentityChannel(t *testing.T) {
	// A noiseless channel over 4 equally-likely inputs: the adversary
	// always wins, Fano's bound is 0.
	logPX := make([]float64, 4)
	rows := make([][]float64, 4)
	for i := range rows {
		logPX[i] = math.Log(0.25)
		rows[i] = make([]float64, 4)
		for j := range rows[i] {
			if i == j {
				rows[i][j] = 0
			} else {
				rows[i][j] = math.Inf(-1)
			}
		}
	}
	ch := &Channel{LogPX: logPX, Rows: rows}
	rep, err := ch.Reconstruction()
	if err != nil {
		t.Fatal(err)
	}
	if !mathx.AlmostEqual(rep.BayesAccuracy, 1, 1e-12) {
		t.Errorf("noiseless accuracy = %v", rep.BayesAccuracy)
	}
	if rep.FanoErrorLB != 0 {
		t.Errorf("Fano bound on noiseless channel = %v", rep.FanoErrorLB)
	}
	if !mathx.AlmostEqual(rep.PriorAccuracy, 0.25, 1e-12) {
		t.Errorf("prior accuracy = %v", rep.PriorAccuracy)
	}
}

func TestReconstructionConstantChannel(t *testing.T) {
	// A constant channel: adversary can do no better than the prior, and
	// Fano forces high error.
	k := 8
	logPX := make([]float64, k)
	rows := make([][]float64, k)
	for i := range rows {
		logPX[i] = -math.Log(float64(k))
		rows[i] = []float64{0} // single output
	}
	ch := &Channel{LogPX: logPX, Rows: rows}
	rep, err := ch.Reconstruction()
	if err != nil {
		t.Fatal(err)
	}
	if !mathx.AlmostEqual(rep.BayesAccuracy, 1.0/float64(k), 1e-12) {
		t.Errorf("constant-channel accuracy = %v", rep.BayesAccuracy)
	}
	// Fano: error ≥ (ln8 − 0 − ln2)/ln7 = ln4/ln7 ≈ 0.712.
	want := math.Log(4) / math.Log(7)
	if !mathx.AlmostEqual(rep.FanoErrorLB, want, 1e-9) {
		t.Errorf("Fano = %v, want %v", rep.FanoErrorLB, want)
	}
	// Consistency: accuracy ≤ 1 − Fano error bound.
	if rep.BayesAccuracy > 1-rep.FanoErrorLB+1e-9 {
		t.Error("Bayes accuracy violates Fano")
	}
}

func TestReconstructionGibbsChannelInvariants(t *testing.T) {
	// On real Gibbs channels across λ: accuracy grows with λ, always
	// sandwiched between the prior and the Fano cap.
	inputs, logPX := CountSampleSpace(10, 0.5)
	prevAcc := 0.0
	for _, lambda := range []float64{0.5, 4, 32, 256} {
		est := meanEstimator(t, lambda, 7)
		ch, err := FromMechanism(inputs, logPX, est)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := ch.Reconstruction()
		if err != nil {
			t.Fatal(err)
		}
		if rep.BayesAccuracy < rep.PriorAccuracy-1e-12 {
			t.Fatalf("adversary below blind guessing at λ=%v", lambda)
		}
		if rep.BayesAccuracy > 1-rep.FanoErrorLB+1e-9 {
			t.Fatalf("Fano violated at λ=%v: acc %v, error LB %v", lambda, rep.BayesAccuracy, rep.FanoErrorLB)
		}
		if rep.BayesAccuracy < prevAcc-1e-9 {
			t.Fatalf("reconstruction accuracy decreased with λ: %v after %v", rep.BayesAccuracy, prevAcc)
		}
		prevAcc = rep.BayesAccuracy
		if rep.MutualInformationNats > rep.InputEntropyNats+1e-9 {
			t.Fatal("MI exceeds input entropy")
		}
	}
}

func TestFanoDegenerate(t *testing.T) {
	// Single-input channel: degenerate.
	ch := &Channel{LogPX: []float64{0}, Rows: [][]float64{{0}}}
	if _, err := ch.FanoErrorLowerBound(); err != ErrDegenerateChannel {
		t.Errorf("expected ErrDegenerateChannel, got %v", err)
	}
	// Two-input channel: vacuous bound 0, no error.
	ch2 := &Channel{LogPX: []float64{math.Log(0.5), math.Log(0.5)}, Rows: [][]float64{{0}, {0}}}
	b, err := ch2.FanoErrorLowerBound()
	if err != nil || b != 0 {
		t.Errorf("two-input Fano = %v, %v", b, err)
	}
}
