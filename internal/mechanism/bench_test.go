package mechanism

// Micro-benchmarks for the mechanism hot paths.

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mathx"
	"repro/internal/rng"
)

func benchData(n int) *dataset.Dataset {
	g := rng.New(1)
	return dataset.BernoulliTable{P: 0.5}.Generate(n, g)
}

func BenchmarkLaplaceRelease(b *testing.B) {
	d := benchData(1000)
	q := CountQuery(func(e dataset.Example) bool { return e.X[0] == 1 })
	m, err := NewLaplace(q, 1)
	if err != nil {
		b.Fatal(err)
	}
	g := rng.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Release(d, g)
	}
}

func BenchmarkExponentialRelease(b *testing.B) {
	g := rng.New(3)
	d := &dataset.Dataset{}
	for i := 0; i < 500; i++ {
		d.Append(dataset.Example{X: []float64{g.Float64()}})
	}
	m, _, err := PrivateMedian(0, mathx.Linspace(0, 1, 64), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Release(d, g)
	}
}

func BenchmarkExponentialLogProbabilities(b *testing.B) {
	g := rng.New(5)
	d := &dataset.Dataset{}
	for i := 0; i < 500; i++ {
		d.Append(dataset.Example{X: []float64{g.Float64()}})
	}
	m, _, err := PrivateMedian(0, mathx.Linspace(0, 1, 64), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.LogProbabilities(d)
	}
}

func BenchmarkPermuteAndFlipRelease(b *testing.B) {
	g := rng.New(7)
	scores := make([]float64, 64)
	for i := range scores {
		scores[i] = g.Normal(0, 2)
	}
	m, err := NewPermuteAndFlip(func(_ *dataset.Dataset, u int) float64 { return scores[u] }, 64, 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	d := benchData(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Release(d, g)
	}
}

func BenchmarkMWEMRun(b *testing.B) {
	g := rng.New(9)
	domain := 16
	m, err := NewMWEM(domain, IntervalQueries(domain), 4, 1)
	if err != nil {
		b.Fatal(err)
	}
	d := &dataset.Dataset{}
	for i := 0; i < 1000; i++ {
		d.Append(dataset.Example{X: []float64{float64(g.Intn(domain))}})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Run(d, g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAccountantAdvanced(b *testing.B) {
	var a Accountant
	for i := 0; i < 200; i++ {
		a.Spend(Guarantee{Epsilon: 0.05})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.AdvancedComposition(1e-6); err != nil {
			b.Fatal(err)
		}
	}
}

// historyPrices are the six standard quotes a long-lived tenant's
// history is built from (the serve benchmark's long-history prefill).
var historyPrices = []float64{0.005, 0.01, 0.02, 0.05, 0.1, 0.2}

// accountantWithHistory returns an accountant with n recorded spends
// cycling through historyPrices and a budget far above their sum.
func accountantWithHistory(tb testing.TB, n int) *Accountant {
	tb.Helper()
	a := &Accountant{}
	if err := a.SetBudget(Guarantee{Epsilon: 1e9}); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		a.Spend(Guarantee{Epsilon: historyPrices[i%len(historyPrices)]})
	}
	return a
}

// BenchmarkReserve measures one admission (Reserve then Release at
// ε=0.02) against a history of 10² to 10⁶ spends. Admission composes
// running sums, so the cost should not grow with the history.
func BenchmarkReserve(b *testing.B) {
	for _, exp := range []int{2, 4, 5, 6} {
		var a *Accountant // built once per size, reused across b.N rounds
		b.Run(fmt.Sprintf("history=1e%d", exp), func(b *testing.B) {
			if a == nil {
				a = accountantWithHistory(b, int(math.Pow10(exp)))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := a.Reserve(Guarantee{Epsilon: 0.02})
				if err != nil {
					b.Fatal(err)
				}
				res.Release()
			}
		})
	}
}
