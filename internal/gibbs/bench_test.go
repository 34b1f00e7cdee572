package gibbs

// Micro-benchmarks for the Gibbs-estimator hot paths.

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/learn"
	"repro/internal/rng"
)

func benchEstimator(b *testing.B, gridPts int) (*Estimator, *dataset.Dataset) {
	b.Helper()
	g := rng.New(1)
	d := dataset.LogisticModel{Weights: []float64{2, -1}}.Generate(500, g)
	grid := learn.NewGrid(-2, 2, 2, gridPts)
	est, err := New(learn.ZeroOneLoss{}, grid.Thetas(), nil, 50)
	if err != nil {
		b.Fatal(err)
	}
	return est, d
}

func BenchmarkLogPosterior289(b *testing.B) {
	est, d := benchEstimator(b, 17)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.LogPosterior(est.Risks(d)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSample289(b *testing.B) {
	est, d := benchEstimator(b, 17)
	g := rng.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.Sample(est.Risks(d), g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMHSampler(b *testing.B) {
	s := &MHSampler{
		LogTarget: func(x []float64) float64 { return -x[0] * x[0] / 2 },
		Step:      1,
	}
	g := rng.New(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Run([]float64{0}, 100, 100, 1, g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMALASampler(b *testing.B) {
	s := &MALASampler{
		LogTarget:     func(x []float64) float64 { return -x[0] * x[0] / 2 },
		GradLogTarget: func(x []float64) []float64 { return []float64{-x[0]} },
		Tau:           1,
	}
	g := rng.New(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Run([]float64{0}, 100, 100, 1, g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEffectiveSampleSize(b *testing.B) {
	g := rng.New(7)
	chain := make([]float64, 5000)
	for i := 1; i < len(chain); i++ {
		chain[i] = 0.9*chain[i-1] + g.Normal(0, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = EffectiveSampleSize(chain)
	}
}
