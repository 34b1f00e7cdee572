package mechanism

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/mathx"
)

// ErrBudgetExhausted reports that admitting a release would push the
// accountant's composed guarantee past the configured budget. The
// pipeline checks it with errors.Is and applies the caller's
// DegradePolicy (refuse, fall back, or widen) instead of spending.
var ErrBudgetExhausted = errors.New("mechanism: privacy budget exhausted")

// composeCanonical returns the basic sequential composition of a
// multiset of guarantees — ε_total = Σ εᵢ, δ_total = Σ δᵢ — summed in
// the canonical order (ascending by ε, then δ) with Kahan compensation.
// The result is a pure function of the multiset, never of arrival
// order, which is what lets the budget admission decision and the
// ledger cross-check stay bit-identical across worker interleavings.
// The slice is sorted in place; callers pass a private copy.
func composeCanonical(gs []Guarantee) Guarantee {
	sort.Slice(gs, func(i, j int) bool {
		if gs[i].Epsilon != gs[j].Epsilon { //dplint:ignore floateq canonical-order comparison: exact value ordering is the point
			return gs[i].Epsilon < gs[j].Epsilon
		}
		return gs[i].Delta < gs[j].Delta
	})
	var eps, del mathx.KahanSum
	for _, g := range gs {
		eps.Add(g.Epsilon)
		del.Add(g.Delta)
	}
	return Guarantee{Epsilon: eps.Sum(), Delta: del.Sum()}
}

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
	if math.IsNaN(g.Epsilon) || math.IsInf(g.Epsilon, 0) || g.Epsilon < 0 {
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

// obligations returns the guarantees of every spend and every held
// reservation. Caller must hold a.mu.
func (a *Accountant) obligationsLocked() []Guarantee {
	gs := make([]Guarantee, 0, len(a.spent)+len(a.reserved))
	for _, r := range a.spent {
		gs = append(gs, r.Guarantee)
	}
	for _, res := range a.reserved {
		gs = append(gs, res.g)
	}
	return gs
}

// Remaining returns the budget headroom: the budget minus the canonical
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
	used := composeCanonical(a.obligationsLocked())
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
// Reserve always admits. On a nil accountant it returns (nil, nil):
// the nil Reservation's Commit and Release are no-ops, matching the
// nil-accountant contract of Spend.
//
// Admission is decided on the canonical composition of the obligation
// multiset, so the verdict for a given set of outstanding holds is
// deterministic — independent of the order concurrent reservations
// interleaved in.
func (a *Accountant) Reserve(g Guarantee) (*Reservation, error) {
	if a == nil {
		return nil, nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.hasBudget {
		prospective := append(a.obligationsLocked(), g)
		used := composeCanonical(prospective)
		if used.Epsilon > a.budget.Epsilon || used.Delta > a.budget.Delta {
			return nil, fmt.Errorf("mechanism: reserving (ε=%g, δ=%g) would compose to (ε=%g, δ=%g), over budget (ε=%g, δ=%g): %w",
				g.Epsilon, g.Delta, used.Epsilon, used.Delta, a.budget.Epsilon, a.budget.Delta, ErrBudgetExhausted)
		}
	}
	res := &Reservation{a: a, g: g}
	a.reserved = append(a.reserved, res)
	return res, nil
}

// Amount returns the reserved guarantee (zero on a nil reservation).
func (r *Reservation) Amount() Guarantee {
	if r == nil {
		return Guarantee{}
	}
	return r.g
}

// Commit converts the hold into a recorded spend: the reservation is
// removed from the outstanding set and a SpendRecord with the next
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

// dropReservationLocked removes one reservation by identity. Caller
// holds a.mu.
func (a *Accountant) dropReservationLocked(r *Reservation) {
	for i, held := range a.reserved {
		if held == r {
			a.reserved = append(a.reserved[:i], a.reserved[i+1:]...)
			return
		}
	}
}

// Reserved returns the number of outstanding (held, neither committed
// nor released) reservations.
func (a *Accountant) Reserved() int {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.reserved)
}
