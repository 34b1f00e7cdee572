package mechanism

import (
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/rng"
)

// TestReserveCommitRecordsSpend pins the two-phase happy path: Commit
// produces exactly the SpendRecord SpendDetail would have, sequence
// number and observer delivery included.
func TestReserveCommitRecordsSpend(t *testing.T) {
	var a Accountant
	var seen []SpendRecord
	a.SetObserver(func(r SpendRecord) { seen = append(seen, r) })
	g := Guarantee{Epsilon: 0.5}
	res, err := a.Reserve(g)
	if err != nil {
		t.Fatal(err)
	}
	if a.Count() != 0 {
		t.Fatalf("reservation charged the ledger early: Count = %d", a.Count())
	}
	if a.Reserved() != 1 {
		t.Fatalf("Reserved = %d, want 1", a.Reserved())
	}
	res.Commit(SpendMeta{Mechanism: "test"})
	if a.Count() != 1 || a.Reserved() != 0 {
		t.Fatalf("after commit: Count=%d Reserved=%d", a.Count(), a.Reserved())
	}
	if len(seen) != 1 || seen[0] != (SpendRecord{Seq: 0, Guarantee: g, Meta: SpendMeta{Mechanism: "test"}}) {
		t.Fatalf("observer saw %+v, want the one committed record", seen)
	}
}

// TestReserveReleaseNeverCharges pins the "failed release never charges
// the ledger" half of the protocol.
func TestReserveReleaseNeverCharges(t *testing.T) {
	var a Accountant
	if err := a.SetBudget(Guarantee{Epsilon: 1}); err != nil {
		t.Fatal(err)
	}
	res, err := a.Reserve(Guarantee{Epsilon: 1})
	if err != nil {
		t.Fatal(err)
	}
	res.Release()
	res.Release() // double release is a no-op
	if a.Count() != 0 || a.Reserved() != 0 {
		t.Fatalf("release charged something: Count=%d Reserved=%d", a.Count(), a.Reserved())
	}
	rem, ok := a.Remaining()
	if !ok || rem.Epsilon != 1 {
		t.Fatalf("headroom not returned: %+v ok=%v", rem, ok)
	}
	// The freed headroom is reusable.
	if _, err := a.Reserve(Guarantee{Epsilon: 1}); err != nil {
		t.Fatalf("freed headroom not reusable: %v", err)
	}
}

// TestBudgetEnforced pins admission: held reservations and recorded
// spends both count, and the over-budget request gets the typed
// sentinel.
func TestBudgetEnforced(t *testing.T) {
	var a Accountant
	if err := a.SetBudget(Guarantee{Epsilon: 1}); err != nil {
		t.Fatal(err)
	}
	r1, err := a.Reserve(Guarantee{Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Reserve(Guarantee{Epsilon: 0.5}); err != nil {
		t.Fatalf("exact-budget composition must be admitted: %v", err)
	}
	if _, err := a.Reserve(Guarantee{Epsilon: 1e-6}); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("want ErrBudgetExhausted, got %v", err)
	}
	r1.Commit(SpendMeta{})
	// Committed spend still counts against the cap.
	if _, err := a.Reserve(Guarantee{Epsilon: 1e-6}); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("spent ε must still count: %v", err)
	}
	// δ is enforced independently of ε.
	var b Accountant
	if err := b.SetBudget(Guarantee{Epsilon: 10, Delta: 1e-9}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Reserve(Guarantee{Epsilon: 0.1, Delta: 1e-6}); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("δ over budget must be refused: %v", err)
	}
}

// TestRefusalFinality pins which refusals are final: a refusal wraps
// ErrBudgetSpent exactly when the spends alone refuse the request, and
// Refusal says so for a request that takes whatever headroom is left.
func TestRefusalFinality(t *testing.T) {
	var a Accountant
	if err := a.SetBudget(Guarantee{Epsilon: 1, Delta: 1e-9}); err != nil {
		t.Fatal(err)
	}
	final := func(g Guarantee) bool {
		t.Helper()
		_, err := a.Reserve(g)
		if !errors.Is(err, ErrBudgetExhausted) {
			t.Fatalf("Reserve(%+v) = %v, want a refusal", g, err)
		}
		return errors.Is(err, ErrBudgetSpent)
	}
	r1, err := a.Reserve(Guarantee{Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := a.Reserve(Guarantee{Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if final(Guarantee{Epsilon: 1e-6}) || a.Refusal() != ErrBudgetExhausted {
		t.Error("a refusal that only holds cause is final")
	}
	if !final(Guarantee{Epsilon: 1.5}) {
		t.Error("a quote past the whole budget is not final")
	}
	r1.Commit(SpendMeta{})
	if final(Guarantee{Epsilon: 0.5}) {
		t.Error("spent 0.5 + 0.5 fits the budget exactly, yet the refusal is final")
	}
	if !final(Guarantee{Epsilon: 0.6}) || !final(Guarantee{Delta: 1e-8}) {
		t.Error("a quote the spends alone refuse, in ε or in δ, is not final")
	}
	r2.Release()
	if a.Refusal() != ErrBudgetExhausted {
		t.Error("Refusal is final with half the budget unspent")
	}
	a.Spend(Guarantee{Epsilon: 0.5})
	if !final(Guarantee{Epsilon: 1e-6}) || a.Refusal() != ErrBudgetSpent {
		t.Error("a spent budget's refusal is not final")
	}
	if got := a.Reserved(); got != 0 {
		t.Errorf("refusals left %d hold(s)", got)
	}
}

// TestReserveWithoutBudgetAdmitsAll pins that Reserve without SetBudget
// is pure bookkeeping.
func TestReserveWithoutBudgetAdmitsAll(t *testing.T) {
	var a Accountant
	for i := 0; i < 100; i++ {
		res, err := a.Reserve(Guarantee{Epsilon: 1000})
		if err != nil {
			t.Fatal(err)
		}
		res.Commit(SpendMeta{})
	}
	if a.Count() != 100 {
		t.Fatalf("Count = %d", a.Count())
	}
}

// TestNilAccountantReserve pins the nil-sink contract for the two-phase
// API: everything is a silent no-op, matching Spend.
func TestNilAccountantReserve(t *testing.T) {
	var a *Accountant
	res, err := a.Reserve(Guarantee{Epsilon: 1})
	if err != nil || res != nil {
		t.Fatalf("nil accountant Reserve = (%v, %v)", res, err)
	}
	res.Commit(SpendMeta{}) // nil reservation: must not panic
	res.Release()
	if res.Amount() != (Guarantee{}) {
		t.Fatal("nil reservation Amount not zero")
	}
	if err := a.SetBudget(Guarantee{Epsilon: 1}); err != nil {
		t.Fatal(err)
	}
	if _, ok := a.Remaining(); ok {
		t.Fatal("nil accountant reports a budget")
	}
}

// TestReleaseAfterCommitIsNoop pins the `defer res.Release()` idiom: the
// deferred release on the success path must not undo the spend.
func TestReleaseAfterCommitIsNoop(t *testing.T) {
	var a Accountant
	res, _ := a.Reserve(Guarantee{Epsilon: 0.5})
	res.Commit(SpendMeta{})
	res.Release()
	if a.Count() != 1 {
		t.Fatalf("Release after Commit un-charged the ledger: Count=%d", a.Count())
	}
}

// TestCommitMisusePanics pins that half-spend hazards (commit twice,
// commit a released hold) are loud API-misuse panics, never silent
// ledger corruption.
func TestCommitMisusePanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	var a Accountant
	r1, _ := a.Reserve(Guarantee{Epsilon: 1})
	r1.Commit(SpendMeta{})
	mustPanic("double commit", func() { r1.Commit(SpendMeta{}) })
	r2, _ := a.Reserve(Guarantee{Epsilon: 1})
	r2.Release()
	mustPanic("commit after release", func() { r2.Commit(SpendMeta{}) })
	if a.Count() != 1 {
		t.Fatalf("misuse mutated the ledger: Count=%d", a.Count())
	}
}

// TestSetBudgetValidation rejects non-finite and out-of-range budgets.
func TestSetBudgetValidation(t *testing.T) {
	var a Accountant
	bad := []Guarantee{
		{Epsilon: math.NaN()},
		{Epsilon: math.Inf(1)},
		{Epsilon: -1},
		{Epsilon: 1, Delta: math.NaN()},
		{Epsilon: 1, Delta: -1e-9},
		{Epsilon: 1, Delta: 1},
	}
	for _, g := range bad {
		if err := a.SetBudget(g); err == nil {
			t.Errorf("SetBudget(%+v) accepted", g)
		}
	}
	if _, ok := a.Budget(); ok {
		t.Fatal("rejected budget was installed")
	}
	if err := a.SetBudget(Guarantee{Epsilon: 2, Delta: 1e-6}); err != nil {
		t.Fatal(err)
	}
	if g, ok := a.Budget(); !ok || g.Epsilon != 2 {
		t.Fatalf("Budget = %+v, %v", g, ok)
	}
	a.ClearBudget()
	if _, ok := a.Budget(); ok {
		t.Fatal("ClearBudget left a budget")
	}
}

// TestReservePanicPathReleases simulates the chaos scenario from the
// issue: a worker reserves, then panics before committing. The deferred
// Release must free the hold so the budget is not leaked.
func TestReservePanicPathReleases(t *testing.T) {
	var a Accountant
	if err := a.SetBudget(Guarantee{Epsilon: 1}); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() { recover() }()
		res, err := a.Reserve(Guarantee{Epsilon: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer res.Release()
		panic("release failed mid-flight")
	}()
	if a.Count() != 0 || a.Reserved() != 0 {
		t.Fatalf("panic path leaked: Count=%d Reserved=%d", a.Count(), a.Reserved())
	}
	if _, err := a.Reserve(Guarantee{Epsilon: 1}); err != nil {
		t.Fatalf("budget leaked by panicked reservation: %v", err)
	}
}

// TestAdmissionIsOrderIndependent pins that the admission verdict is a
// pure function of the obligation multiset: whatever order the same
// holds were taken in, the next request sees the same answer.
func TestAdmissionIsOrderIndependent(t *testing.T) {
	gs := []Guarantee{{Epsilon: 0.3}, {Epsilon: 0.1}, {Epsilon: 0.25}}
	admit := func(order []int) error {
		var a Accountant
		if err := a.SetBudget(Guarantee{Epsilon: 0.7}); err != nil {
			t.Fatal(err)
		}
		for _, i := range order {
			if _, err := a.Reserve(gs[i]); err != nil {
				t.Fatal(err)
			}
		}
		_, err := a.Reserve(Guarantee{Epsilon: 0.1})
		return err
	}
	errA := admit([]int{0, 1, 2})
	errB := admit([]int{2, 0, 1})
	errC := admit([]int{1, 2, 0})
	if (errA == nil) != (errB == nil) || (errB == nil) != (errC == nil) {
		t.Fatalf("order-dependent admission: %v / %v / %v", errA, errB, errC)
	}
	if !errors.Is(errA, ErrBudgetExhausted) {
		t.Fatalf("0.65 held + 0.1 over a 0.7 budget must be refused: %v", errA)
	}
}

// TestConcurrentReserveCommitRelease hammers the two-phase API from
// many goroutines with seeded-random interleavings (run under -race in
// CI). Invariants checked at the end: no outstanding holds, the ledger
// holds exactly the committed spends, the composed guarantee never
// exceeds the budget, and sequence numbers are a gapless total order.
func TestConcurrentReserveCommitRelease(t *testing.T) {
	const (
		workers   = 8
		perWorker = 200
	)
	var a Accountant
	budget := Guarantee{Epsilon: 25}
	if err := a.SetBudget(budget); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var observed []SpendRecord
	a.SetObserver(func(r SpendRecord) {
		mu.Lock()
		observed = append(observed, r)
		mu.Unlock()
	})

	var committed, denied, released, panicked [workers]int
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(slot int) {
			defer wg.Done()
			g := rng.New(int64(1000 + slot))
			for i := 0; i < perWorker; i++ {
				eps := 0.05 + 0.2*g.Float64()
				res, err := a.Reserve(Guarantee{Epsilon: eps})
				if err != nil {
					if !errors.Is(err, ErrBudgetExhausted) {
						t.Errorf("worker %d: unexpected error %v", slot, err)
					}
					denied[slot]++
					continue
				}
				switch g.Intn(3) {
				case 0: // release: a failed mechanism run
					res.Release()
					released[slot]++
				case 1: // panic mid-release, deferred cleanup
					func() {
						defer func() { recover() }()
						defer res.Release()
						panic("injected")
					}()
					panicked[slot]++
				default:
					res.Commit(SpendMeta{Mechanism: "race"})
					released[slot]++ // exercise no-op Release after Commit
					res.Release()
					committed[slot]++
				}
			}
		}(w)
	}
	wg.Wait()

	totalCommitted := 0
	for _, c := range committed {
		totalCommitted += c
	}
	if a.Reserved() != 0 {
		t.Fatalf("outstanding holds leaked: %d", a.Reserved())
	}
	if a.Count() != totalCommitted {
		t.Fatalf("ledger count %d != committed %d (double- or half-spend)", a.Count(), totalCommitted)
	}
	if len(observed) != totalCommitted {
		t.Fatalf("observer saw %d records, want %d", len(observed), totalCommitted)
	}
	composed := a.BasicComposition()
	if composed.Epsilon > budget.Epsilon || composed.Delta > budget.Delta {
		t.Fatalf("budget violated: composed %+v > budget %+v", composed, budget)
	}
	seqs := make(map[uint64]bool, totalCommitted)
	for _, r := range observed {
		seqs[r.Seq] = true
	}
	for i := 0; i < totalCommitted; i++ {
		if !seqs[uint64(i)] {
			t.Fatalf("sequence gap at %d", i)
		}
	}
}

// TestReserveRefusesInvalidGuarantee pins that admission fails closed
// on a guarantee no budget could admit: a NaN, infinite or negative
// component is refused (with an error that is not ErrBudgetExhausted)
// and leaves the books as they were, so later requests are judged
// against the true headroom.
func TestReserveRefusesInvalidGuarantee(t *testing.T) {
	for _, g := range []Guarantee{
		{Epsilon: math.Inf(1)},
		{Epsilon: math.NaN()},
		{Epsilon: -5},
		{Epsilon: 0.1, Delta: math.NaN()},
		{Epsilon: 0.1, Delta: math.Inf(1)},
		{Epsilon: 0.1, Delta: -1e-9},
	} {
		var a Accountant
		if err := a.SetBudget(Guarantee{Epsilon: 1}); err != nil {
			t.Fatal(err)
		}
		res, err := a.Reserve(g)
		if err == nil || res != nil {
			t.Fatalf("Reserve(%+v) admitted", g)
		}
		if errors.Is(err, ErrBudgetExhausted) {
			t.Fatalf("Reserve(%+v): an invalid guarantee is not an exhausted budget: %v", g, err)
		}
		if a.Reserved() != 0 {
			t.Fatalf("Reserve(%+v) left a hold", g)
		}
		if _, err := a.Reserve(Guarantee{Epsilon: 0.9}); err != nil {
			t.Fatalf("after Reserve(%+v): first 0.9 refused: %v", g, err)
		}
		if _, err := a.Reserve(Guarantee{Epsilon: 0.9}); !errors.Is(err, ErrBudgetExhausted) {
			t.Fatalf("after Reserve(%+v): second 0.9 over a budget of 1 got %v", g, err)
		}
	}
	var unbudgeted Accountant
	if _, err := unbudgeted.Reserve(Guarantee{Epsilon: math.Inf(1)}); err == nil {
		t.Fatal("an accountant without a budget admitted ε=+Inf")
	}
}

// TestNaNHistoryRefusesAdmission pins the NaN-safe comparison: a NaN
// that reaches the history through SpendDetail makes the composition
// NaN, and admission then refuses rather than admits.
func TestNaNHistoryRefusesAdmission(t *testing.T) {
	var a Accountant
	if err := a.SetBudget(Guarantee{Epsilon: 1}); err != nil {
		t.Fatal(err)
	}
	a.SpendDetail(Guarantee{Epsilon: math.NaN()}, SpendMeta{})
	if _, err := a.Reserve(Guarantee{Epsilon: 0.1}); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("Reserve over a NaN history = %v, want ErrBudgetExhausted", err)
	}
}

// TestReserveReleaseRestoresRemainingBits pins that a Reserve/Release
// round trip subtracts exactly what it added: the headroom afterwards
// is bit-identical, whatever low bits the history carries.
func TestReserveReleaseRestoresRemainingBits(t *testing.T) {
	var a Accountant
	if err := a.SetBudget(Guarantee{Epsilon: 10, Delta: 1e-3}); err != nil {
		t.Fatal(err)
	}
	g := rng.New(21)
	for i := 0; i < 50; i++ {
		a.Spend(Guarantee{Epsilon: 0.1 * g.Float64(), Delta: 1e-7 * g.Float64()})
	}
	before, _ := a.Remaining()
	for i := 0; i < 50; i++ {
		res, err := a.Reserve(Guarantee{Epsilon: 0.3 * g.Float64(), Delta: 1e-6 * g.Float64()})
		if err != nil {
			t.Fatal(err)
		}
		res.Release()
		after, _ := a.Remaining()
		if math.Float64bits(after.Epsilon) != math.Float64bits(before.Epsilon) ||
			math.Float64bits(after.Delta) != math.Float64bits(before.Delta) {
			t.Fatalf("round trip %d moved Remaining from %+v to %+v", i, before, after)
		}
	}
}

// TestResetThenReleaseRestoresBudget pins that Reset clears the spends
// but not an outstanding hold, and that the hold's later Release
// returns the headroom to the full budget.
func TestResetThenReleaseRestoresBudget(t *testing.T) {
	var a Accountant
	budget := Guarantee{Epsilon: 1, Delta: 1e-6}
	if err := a.SetBudget(budget); err != nil {
		t.Fatal(err)
	}
	a.Spend(Guarantee{Epsilon: 0.3})
	res, err := a.Reserve(Guarantee{Epsilon: 0.4, Delta: 1e-7})
	if err != nil {
		t.Fatal(err)
	}
	a.Reset()
	if rem, _ := a.Remaining(); rem.Epsilon != 0.6 || rem.Delta != budget.Delta-1e-7 {
		t.Fatalf("after Reset with a hold out: Remaining = %+v", rem)
	}
	res.Release()
	if rem, _ := a.Remaining(); rem != budget {
		t.Fatalf("after Reset and Release: Remaining = %+v, want the full budget %+v", rem, budget)
	}
	if got := a.BasicComposition(); got != (Guarantee{}) {
		t.Fatalf("after Reset: BasicComposition = %+v", got)
	}
}

// TestReserveCostIndependentOfHistory pins that admission does not
// grow with the history: the bytes a Reserve+Release allocates with
// 10⁵ recorded spends are no more than with 10², up to a small slack.
// Allocation is measured, not time, so the test is immune to host load.
func TestReserveCostIndependentOfHistory(t *testing.T) {
	const calls = 1000
	bytesPerOp := func(history int) uint64 {
		a := accountantWithHistory(t, history)
		reserve := func() {
			res, err := a.Reserve(Guarantee{Epsilon: 0.02})
			if err != nil {
				t.Fatal(err)
			}
			res.Release()
		}
		reserve() // warm the accountant's scratch storage
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			reserve()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / calls
	}
	const slack = 256
	small, large := bytesPerOp(100), bytesPerOp(100_000)
	if large > small+slack {
		t.Fatalf("Reserve+Release allocates %d B/op at 10⁵ spends but %d B/op at 10²", large, small)
	}
}
