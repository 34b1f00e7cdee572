package faults_test

// The chaos battery: every fault class the schedule can inject, driven
// against the real execution stack (parallel workers, the budgeted
// accountant, the core facade, checkpointed sweeps), asserting the
// robustness invariants the hardened pipeline promises — typed errors,
// a balanced ledger with no double- or half-spends, deterministic abort
// positions, and bit-identical resume.

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/learn"
	"repro/internal/mechanism"
	"repro/internal/parallel"
	"repro/internal/rng"
)

// chaosLearner builds a small budget-aware classifier against the given
// accountant, serial inside the fit so chaos call counters are stable.
func chaosLearner(t *testing.T, loss learn.Loss, eps float64, acct *mechanism.Accountant, policy core.DegradePolicy) (*core.Learner, *dataset.Dataset, *rng.RNG) {
	t.Helper()
	g := rng.New(41)
	d := dataset.LogisticModel{Weights: []float64{3}, Bias: 0}.Generate(80, g)
	l, err := core.NewLearner(core.Config{
		Loss:     loss,
		Thetas:   learn.NewGrid(-2, 2, 1, 9).Thetas(),
		Epsilon:  eps,
		Acct:     acct,
		Degrade:  policy,
		Parallel: parallel.Options{Workers: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return l, d, g
}

// TestChaosWorkerPanics injects schedule-driven panics into a parallel
// reduction and asserts panic isolation: the fault surfaces as a typed
// *parallel.WorkerError wrapping ErrInjected, the abort position is
// deterministic across worker counts, and a fault-free plan reproduces
// the plain reduction bit-for-bit.
func TestChaosWorkerPanics(t *testing.T) {
	const n, grain = 1 << 17, 256
	sched := faults.NewSchedule(23, map[faults.Class]float64{faults.WorkerPanic: 0.0002})
	term := func(i int) float64 { return math.Sqrt(float64(i)) }
	want := parallel.SumGrain(n, grain, parallel.Options{Workers: 1}, term)
	var firstLo atomic.Int64
	firstLo.Store(-1)
	for _, workers := range []int{1, 2, 8} {
		_, err := parallel.SumGrainCtx(context.Background(), n, grain, parallel.Options{Workers: workers}, func(i int) float64 {
			sched.Panic(faults.WorkerPanic, i)
			return term(i)
		})
		var werr *parallel.WorkerError
		if !errors.As(err, &werr) {
			t.Fatalf("workers=%d: want WorkerError, got %v", workers, err)
		}
		if !errors.Is(err, faults.ErrInjected) {
			t.Fatalf("workers=%d: injected fault not identifiable: %v", workers, err)
		}
		if prev := firstLo.Swap(int64(werr.Lo)); prev >= 0 && prev != int64(werr.Lo) {
			t.Fatalf("abort position depends on workers: chunk lo %d vs %d", prev, werr.Lo)
		}
		// The same plan, fault-free classes only: the reduction completes
		// and is bit-identical to the serial sum.
		got, err := parallel.SumGrainCtx(context.Background(), n, grain, parallel.Options{Workers: workers}, term)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("workers=%d: sum diverged after chaos run", workers)
		}
	}
}

// TestChaosBudgetDenials storms a budgeted accountant from concurrent
// goroutines whose commit/release/panic behavior the schedule picks,
// then audits the ledger: reservations all settled, spends all whole
// (committed exactly once, gapless sequence), composition within
// budget, and every denial typed.
func TestChaosBudgetDenials(t *testing.T) {
	var acct mechanism.Accountant
	if err := acct.SetBudget(mechanism.Guarantee{Epsilon: 10}); err != nil {
		t.Fatal(err)
	}
	var seqs []uint64 // appended under the accountant's lock
	acct.SetObserver(func(r mechanism.SpendRecord) { seqs = append(seqs, r.Seq) })
	sched := faults.NewSchedule(29, map[faults.Class]float64{faults.BudgetDeny: 0.5})
	const workers, iters = 8, 150
	var committed, denied atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				site := w*iters + i
				res, err := acct.Reserve(mechanism.Guarantee{Epsilon: 0.05})
				if err != nil {
					if !errors.Is(err, mechanism.ErrBudgetExhausted) {
						t.Errorf("denial not typed: %v", err)
					}
					denied.Add(1)
					continue
				}
				// The schedule decides this hold's fate: settle or abandon —
				// some abandonments happen via panic mid-protocol, exercising
				// the deferred-release path.
				func() {
					defer res.Release()
					defer func() { recover() }() //nolint:errcheck
					if sched.Hit(faults.BudgetDeny, site) {
						faults.NewSchedule(1, map[faults.Class]float64{faults.BudgetDeny: 1}).Panic(faults.BudgetDeny, site)
					}
					res.Commit(mechanism.SpendMeta{Mechanism: "chaos"})
					committed.Add(1)
				}()
			}
		}(w)
	}
	wg.Wait()
	if acct.Reserved() != 0 {
		t.Fatalf("unsettled reservations after the storm: %d", acct.Reserved())
	}
	if int64(acct.Count()) != committed.Load() {
		t.Fatalf("half-spend: ledger has %d records, %d commits happened", acct.Count(), committed.Load())
	}
	if len(seqs) != acct.Count() {
		t.Fatalf("observer saw %d spends, accountant counted %d", len(seqs), acct.Count())
	}
	for i, seq := range seqs {
		if seq != uint64(i) {
			t.Fatalf("ledger sequence has a gap at %d (seq %d)", i, seq)
		}
	}
	if comp := acct.BasicComposition(); comp.Epsilon > 10 {
		t.Fatalf("composed ε %v exceeds budget 10", comp.Epsilon)
	}
	if denied.Load() == 0 || committed.Load() == 0 {
		t.Fatalf("storm not exercised: %d denials, %d commits", denied.Load(), committed.Load())
	}
}

// flakyLoss corrupts schedule-chosen risk evaluations to NaN.
type flakyLoss struct {
	inner learn.Loss
	sched *faults.Schedule
	calls *atomic.Int64
}

func (f flakyLoss) Loss(theta []float64, e dataset.Example) float64 {
	if f.sched.Hit(faults.NaNRisk, int(f.calls.Add(1))) {
		return math.NaN()
	}
	return f.inner.Loss(theta, e)
}
func (f flakyLoss) Bound() float64 { return f.inner.Bound() }
func (f flakyLoss) Name() string   { return "flaky(" + f.inner.Name() + ")" }

// TestChaosNaNRisks injects NaN into the risk grid and asserts the
// facade's validation: the fit fails typed, the ledger and reservations
// stay untouched, and a clean learner on the same accountant then
// spends exactly once.
func TestChaosNaNRisks(t *testing.T) {
	var acct mechanism.Accountant
	sched := faults.NewSchedule(31, map[faults.Class]float64{faults.NaNRisk: 0.01})
	var calls atomic.Int64
	poisoned := flakyLoss{inner: learn.ZeroOneLoss{}, sched: sched, calls: &calls}
	l, d, g := chaosLearner(t, poisoned, 1, &acct, core.DegradeRefuse)
	if _, err := l.Fit(d, g); !errors.Is(err, core.ErrNonFiniteInput) {
		t.Fatalf("poisoned fit: want ErrNonFiniteInput, got %v", err)
	}
	if calls.Load() == 0 {
		t.Fatal("flaky loss never evaluated")
	}
	if acct.Count() != 0 || acct.Reserved() != 0 {
		t.Fatalf("poisoned fit charged: Count=%d Reserved=%d", acct.Count(), acct.Reserved())
	}
	clean, d2, g2 := chaosLearner(t, learn.ZeroOneLoss{}, 1, &acct, core.DegradeRefuse)
	if _, err := clean.Fit(d2, g2); err != nil {
		t.Fatalf("clean fit after chaos: %v", err)
	}
	if acct.Count() != 1 || acct.Reserved() != 0 {
		t.Fatalf("clean fit mischarged: Count=%d Reserved=%d", acct.Count(), acct.Reserved())
	}
}

// TestChaosCheckpointWriteFailures kills the checkpoint log at a
// schedule-chosen cell and asserts the sweep's failure handling: the
// loss surfaces as checkpoint.ErrWrite with the cell's coordinates, the
// computed results for stored cells survive, and a resume completes the
// sweep bit-identical to an unfaulted run.
func TestChaosCheckpointWriteFailures(t *testing.T) {
	grid := experiments.Grid{Ns: []int{10, 20, 30}, Epss: []float64{0.1, 1, 5}}
	body := func(c experiments.Cell) (float64, error) { return c.RNG.Float64() * c.Eps, nil }
	want, err := experiments.SweepGrid(grid, rng.New(77), parallel.Options{Workers: 1}, body)
	if err != nil {
		t.Fatal(err)
	}
	sched := faults.NewSchedule(37, map[faults.Class]float64{faults.CheckpointWrite: 0.3})
	failAt := -1
	for k := 0; k < grid.Cells(); k++ {
		if sched.Hit(faults.CheckpointWrite, k) {
			failAt = k
			break
		}
	}
	if failAt < 0 || failAt == grid.Cells()-1 {
		t.Fatalf("schedule seed must fire on a non-final cell, fired at %d", failAt)
	}
	path := filepath.Join(t.TempDir(), "ck")
	ck, err := checkpoint.Open(path, false)
	if err != nil {
		t.Fatal(err)
	}
	var cell atomic.Int64
	cell.Store(-1)
	_, err = experiments.SweepGridCtx(context.Background(), grid, rng.New(77),
		experiments.SweepConfig{Parallel: parallel.Options{Workers: 1}, Checkpoint: ck},
		func(c experiments.Cell) (float64, error) {
			k := int(cell.Add(1))
			if k == failAt {
				ck.Close() // the injected fault: every Put from here on fails
			}
			return body(c)
		})
	if !errors.Is(err, checkpoint.ErrWrite) {
		t.Fatalf("want checkpoint.ErrWrite, got %v", err)
	}
	ck2, err := checkpoint.Open(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer ck2.Close()
	if ck2.Len() != failAt {
		t.Fatalf("log kept %d cells, want the %d before the fault", ck2.Len(), failAt)
	}
	got, err := experiments.SweepGridCtx(context.Background(), grid, rng.New(77),
		experiments.SweepConfig{Parallel: parallel.Options{Workers: 1}, Checkpoint: ck2}, body)
	if err != nil {
		t.Fatal(err)
	}
	for k := range want {
		if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
			t.Fatalf("cell %d after write-fault resume: %v != %v", k, got[k], want[k])
		}
	}
}

// TestChaosDegradeUnderStorm drives a budgeted learner past exhaustion
// under the fallback policy with schedule-driven attempts, asserting
// the ledger never exceeds budget, degraded releases charge nothing,
// and every fit either succeeds, degrades, or fails typed.
func TestChaosDegradeUnderStorm(t *testing.T) {
	var acct mechanism.Accountant
	l, d, g := chaosLearner(t, learn.ZeroOneLoss{}, 1, &acct, core.DegradeFallback)
	est, err := l.Estimator(d.Len())
	if err != nil {
		t.Fatal(err)
	}
	full := est.Guarantee(d.Len())
	budget := mechanism.Guarantee{Epsilon: 2.5 * full.Epsilon} // admits two fits
	if err := acct.SetBudget(budget); err != nil {
		t.Fatal(err)
	}
	paid, degraded := 0, 0
	for i := 0; i < 10; i++ {
		fit, err := l.Fit(d, g)
		if err != nil {
			t.Fatalf("fit %d: fallback should never fail once a fit is cached: %v", i, err)
		}
		if fit.Degraded {
			degraded++
		} else {
			paid++
		}
		if acct.Reserved() != 0 {
			t.Fatalf("fit %d left a reservation open", i)
		}
	}
	if paid != 2 || degraded != 8 {
		t.Fatalf("want 2 paid + 8 degraded fits, got %d + %d", paid, degraded)
	}
	if acct.Count() != 2 {
		t.Fatalf("degraded releases charged the ledger: Count=%d", acct.Count())
	}
	if comp := acct.BasicComposition(); comp.Epsilon > budget.Epsilon {
		t.Fatalf("composed ε %v exceeds budget %v", comp.Epsilon, budget.Epsilon)
	}
}
