package mechanism

import (
	"sync"
	"testing"

	"repro/internal/mathx"
)

// TestAccountantNilSink pins the nil-sink contract the release paths rely
// on: library code spends unconditionally and a nil accountant absorbs it.
func TestAccountantNilSink(t *testing.T) {
	var a *Accountant
	a.Spend(Guarantee{Epsilon: 1}) // must not panic
	if a.Count() != 0 {
		t.Errorf("nil accountant Count = %d", a.Count())
	}
	// The compositions answer as the empty accountant does.
	if g, err := a.AdvancedComposition(1e-6); err != nil || g != (Guarantee{Delta: 1e-6}) {
		t.Errorf("nil accountant AdvancedComposition = %+v, %v; want {0, 1e-6}", g, err)
	}
	if _, err := a.AdvancedComposition(0); err == nil {
		t.Error("nil accountant must still refuse slack 0")
	}
	if g := a.BestComposition(1e-6); g != (Guarantee{}) {
		t.Errorf("nil accountant BestComposition = %+v, want basic {0, 0}", g)
	}
	var eps, del mathx.ExactSum
	eps.Add(1)
	del.Add(1)
	if count := a.Audit(&eps, &del); count != 0 || eps.Float64() != 0 || del.Float64() != 0 {
		t.Errorf("nil accountant Audit = %d, (%v, %v); want the empty books", count, eps.Float64(), del.Float64())
	}
}

// TestAdvancedCompositionSlackBoundary walks both ends of the open
// interval (0, 1): the formula needs ln(1/δ′), so 0 diverges and 1 would
// certify a vacuous guarantee.
func TestAdvancedCompositionSlackBoundary(t *testing.T) {
	var a Accountant
	a.Spend(Guarantee{Epsilon: 0.1})
	for _, slack := range []float64{0, 1, -1e-9, 1.5} {
		if _, err := a.AdvancedComposition(slack); err == nil {
			t.Errorf("slack %v must error", slack)
		}
	}
	if _, err := a.AdvancedComposition(0.999999); err != nil {
		t.Errorf("slack just inside (0,1) must work: %v", err)
	}
}

// TestAdvancedCompositionZeroSpends: with nothing spent the composition
// is free — ε = 0 — but the slack is still paid into δ.
func TestAdvancedCompositionZeroSpends(t *testing.T) {
	var a Accountant
	g, err := a.AdvancedComposition(1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if g.Epsilon != 0 || g.Delta != 1e-6 {
		t.Errorf("zero-spend advanced = %+v, want {0, 1e-6}", g)
	}
}

// TestBestCompositionTieBreaking: when advanced does not strictly beat
// basic, basic wins — it carries no slack δ. With zero spends both give
// ε = 0, so the tie must resolve to basic's δ = 0; with a single spend
// advanced is strictly looser and basic must be returned exactly.
func TestBestCompositionTieBreaking(t *testing.T) {
	var empty Accountant
	got := empty.BestComposition(1e-6)
	if got.Epsilon != 0 || got.Delta != 0 {
		t.Errorf("empty BestComposition = %+v, want the slack-free basic {0, 0}", got)
	}

	var one Accountant
	one.Spend(Guarantee{Epsilon: 0.5})
	got = one.BestComposition(1e-6)
	if got.Epsilon != 0.5 || got.Delta != 0 {
		t.Errorf("single-spend BestComposition = %+v, want basic {0.5, 0}", got)
	}
}

// TestAccountantConcurrentSpend: Spend and the composition queries are
// documented as concurrency-safe; hammer them together (run with -race).
func TestAccountantConcurrentSpend(t *testing.T) {
	var a Accountant
	const workers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				a.Spend(Guarantee{Epsilon: 0.01})
				_ = a.Count()
				_ = a.BasicComposition()
			}
		}()
	}
	wg.Wait()
	if a.Count() != workers*per {
		t.Errorf("Count = %d, want %d", a.Count(), workers*per)
	}
	want := 0.01 * float64(workers*per)
	if got := a.BasicComposition().Epsilon; got < want-1e-9 || got > want+1e-9 {
		t.Errorf("BasicComposition = %v, want %v", got, want)
	}
}
