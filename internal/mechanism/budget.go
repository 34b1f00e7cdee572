package mechanism

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/mathx"
)

// ErrBudgetExhausted reports that admitting a release would push the
// accountant's composed guarantee past the configured budget. The
// pipeline checks it with errors.Is and applies the caller's
// DegradePolicy (refuse, fall back, or widen) instead of spending.
var ErrBudgetExhausted = errors.New("mechanism: privacy budget exhausted")

// ErrBudgetSpent marks a refusal as final: the committed spends alone
// already refuse the request, and spends never fall, so no retry can be
// admitted under the same budget. It wraps ErrBudgetExhausted, which
// every refusal matches; a refusal that releasing an outstanding hold
// could still reverse matches ErrBudgetExhausted alone.
var ErrBudgetSpent = fmt.Errorf("%w: the committed spends alone refuse it", ErrBudgetExhausted)

// SetBudget installs a hard cap on the accountant's basic composition:
// every subsequent Reserve is admitted only if the composed guarantee
// of all spends, all held reservations, and the new request stays
// within the budget in both ε and δ. Already-recorded spends are not
// retroactively rejected, but they do count against the cap. A nil
// accountant ignores the call (nothing is enforced where nothing is
// accounted).
func (a *Accountant) SetBudget(g Guarantee) error {
	if a == nil {
		return nil
	}
	if !finiteNonNegative(g.Epsilon) {
		return fmt.Errorf("mechanism: budget ε must be finite and non-negative, got %v", g.Epsilon)
	}
	if math.IsNaN(g.Delta) || g.Delta < 0 || g.Delta >= 1 {
		return fmt.Errorf("mechanism: budget δ must be in [0,1), got %v", g.Delta)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.budget = g
	a.hasBudget = true
	return nil
}

// ClearBudget removes the budget; Reserve admits everything again.
func (a *Accountant) ClearBudget() {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.budget = Guarantee{}
	a.hasBudget = false
}

// Budget returns the configured budget and whether one is set.
func (a *Accountant) Budget() (Guarantee, bool) {
	if a == nil {
		return Guarantee{}, false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.budget, a.hasBudget
}

// finiteNonNegative reports whether x is a finite value ≥ 0 (false for
// NaN).
func finiteNonNegative(x float64) bool {
	return x >= 0 && !math.IsInf(x, 1)
}

// usedLocked returns the composition of every spend and every held
// reservation: each component summed exactly and rounded once. Caller
// holds a.mu.
func (a *Accountant) usedLocked() Guarantee {
	a.usedEps.SetSum(&a.spentEps, &a.heldEps)
	a.usedDel.SetSum(&a.spentDel, &a.heldDel)
	return Guarantee{Epsilon: a.usedEps.Float64(), Delta: a.usedDel.Float64()}
}

// spentRefusesLocked reports whether the spends alone refuse g: their
// exact composition with g, rounded once, passes the budget in ε or δ.
// Caller holds a.mu and has set a budget.
func (a *Accountant) spentRefusesLocked(g Guarantee) bool {
	var none mathx.ExactSum
	a.usedEps.SetSum(&a.spentEps, &none)
	a.usedEps.Add(g.Epsilon)
	a.usedDel.SetSum(&a.spentDel, &none)
	a.usedDel.Add(g.Delta)
	return !(a.usedEps.Float64() <= a.budget.Epsilon && a.usedDel.Float64() <= a.budget.Delta)
}

// Refusal returns the error for a refused request that would take
// whatever ε headroom is left, as a widened fit does: ErrBudgetSpent
// when the spends alone leave none, so no retry can find any;
// otherwise ErrBudgetExhausted, since the holds that took the headroom
// may yet be released.
func (a *Accountant) Refusal() error {
	if a == nil {
		return ErrBudgetExhausted
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.hasBudget && !(a.spentEps.Float64() < a.budget.Epsilon) {
		return ErrBudgetSpent
	}
	return ErrBudgetExhausted
}

// Remaining returns the budget headroom: the budget minus the
// composition of all spends and held reservations, clamped at zero
// component-wise. The second result is false when no budget is set.
func (a *Accountant) Remaining() (Guarantee, bool) {
	if a == nil {
		return Guarantee{}, false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.hasBudget {
		return Guarantee{}, false
	}
	used := a.usedLocked()
	rem := Guarantee{Epsilon: a.budget.Epsilon - used.Epsilon, Delta: a.budget.Delta - used.Delta}
	if rem.Epsilon < 0 {
		rem.Epsilon = 0
	}
	if rem.Delta < 0 {
		rem.Delta = 0
	}
	return rem, true
}

// Reservation is a held claim on budget headroom: the first half of the
// two-phase spend protocol. Reserve admits the guarantee against the
// budget without charging the ledger; Commit converts the hold into a
// recorded spend once the release actually happened; Release abandons
// the hold so a failed release never charges the ledger. The intended
// shape is
//
//	res, err := acct.Reserve(g)
//	if err != nil { ... degrade ... }
//	defer res.Release() // no-op after Commit; frees the hold on panic
//	out := mech.Release(...)
//	res.Commit(meta)
//
// A nil *Reservation (from a nil accountant) is a valid no-op handle.
type Reservation struct {
	a *Accountant
	g Guarantee

	mu    sync.Mutex
	state resState
}

type resState int

const (
	resHeld resState = iota
	resCommitted
	resReleased
)

// Reserve admits a prospective release against the budget and returns a
// hold on it. If composing the request with every spend and every held
// reservation would exceed the budget in ε or δ, it returns an error
// wrapping ErrBudgetExhausted and holds nothing. With no budget set,
// Reserve always admits. A guarantee with a NaN, infinite or negative
// component is refused with an error of its own: no budget could admit
// it. A refusal wraps ErrBudgetSpent when the spends alone, without the
// holds, would refuse g too: the verdict is exact, taken under the
// lock, and computed on the refusal path only. On a nil accountant
// Reserve returns (nil, nil): the nil Reservation's Commit and Release
// are no-ops, matching the nil-accountant contract of Spend.
//
// Admission is decided on the exact composition of the obligation
// multiset, rounded once, so the verdict for a given set of outstanding
// holds is deterministic — independent of the order concurrent
// reservations interleaved in — and costs the same at any history
// length. It admits only when the composition is within the budget in
// both components, so a NaN composition refuses.
func (a *Accountant) Reserve(g Guarantee) (*Reservation, error) {
	if a == nil {
		return nil, nil
	}
	if !finiteNonNegative(g.Epsilon) || !finiteNonNegative(g.Delta) {
		return nil, fmt.Errorf("mechanism: cannot reserve (ε=%v, δ=%v): both must be finite and non-negative", g.Epsilon, g.Delta)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.heldEps.Add(g.Epsilon)
	a.heldDel.Add(g.Delta)
	if a.hasBudget {
		if used := a.usedLocked(); !(used.Epsilon <= a.budget.Epsilon && used.Delta <= a.budget.Delta) {
			a.heldEps.Sub(g.Epsilon)
			a.heldDel.Sub(g.Delta)
			cause := ErrBudgetExhausted
			if a.spentRefusesLocked(g) {
				cause = ErrBudgetSpent
			}
			return nil, fmt.Errorf("mechanism: reserving (ε=%g, δ=%g) would compose to (ε=%g, δ=%g), over budget (ε=%g, δ=%g): %w",
				g.Epsilon, g.Delta, used.Epsilon, used.Delta, a.budget.Epsilon, a.budget.Delta, cause)
		}
	}
	a.held++
	return &Reservation{a: a, g: g}, nil
}

// Amount returns the reserved guarantee (zero on a nil reservation).
func (r *Reservation) Amount() Guarantee {
	if r == nil {
		return Guarantee{}
	}
	return r.g
}

// Commit converts the hold into a recorded spend: the reservation
// leaves the outstanding holds and a SpendRecord with the next
// sequence number is appended and forwarded to the observer, exactly as
// SpendDetail would. Committing a released reservation or committing
// twice is an API-misuse panic — it would double-charge the ledger.
// On a nil reservation Commit is a no-op.
func (r *Reservation) Commit(meta SpendMeta) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	switch r.state {
	case resCommitted:
		panic("mechanism: Reservation.Commit called twice")
	case resReleased:
		panic("mechanism: Reservation.Commit after Release")
	}
	r.state = resCommitted
	a := r.a
	a.mu.Lock()
	defer a.mu.Unlock()
	a.dropReservationLocked(r)
	a.recordLocked(r.g, meta)
}

// Release abandons the hold, returning its headroom to the budget with
// nothing charged to the ledger. After Commit (or a second Release) it
// is a no-op, so `defer res.Release()` is the canonical cleanup: it
// frees the reservation on every early-error and panic path and does
// nothing on the success path that committed. On a nil reservation it
// is a no-op.
func (r *Reservation) Release() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state != resHeld {
		return
	}
	r.state = resReleased
	r.a.mu.Lock()
	defer r.a.mu.Unlock()
	r.a.dropReservationLocked(r)
}

// dropReservationLocked removes one outstanding hold: the count and,
// exactly, its guarantee from the held sums. The reservation's state
// machine calls it once per hold, on the move out of resHeld. Caller
// holds a.mu.
func (a *Accountant) dropReservationLocked(r *Reservation) {
	a.held--
	a.heldEps.Sub(r.g.Epsilon)
	a.heldDel.Sub(r.g.Delta)
}

// Reserved returns the number of outstanding (held, neither committed
// nor released) reservations.
func (a *Accountant) Reserved() int {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.held
}
