// Package twophase exercises the two-phase budget protocol check: every
// Reserve must reach exactly one Commit or Release on every path out of
// the function, early returns and the panic edges of the sandwiched DP
// release included. The types below are structural stubs of the real
// mechanism package — the check recognizes them by shape (Reserve returns
// a *Reservation; Commit/Release are its protocol methods), not by
// import path.
package twophase

import "errors"

// Example is one raw record.
type Example struct{ X []float64 }

// Dataset is the raw sample.
type Dataset struct{ Examples []Example }

// Len is the dataset's public size.
func (d *Dataset) Len() int { return len(d.Examples) }

// Guarantee is a privacy price tag.
type Guarantee struct{ Epsilon float64 }

// RNG stands in for the seeded sampler.
type RNG struct{ state uint64 }

// Mech is a mechanism: it bears a Guarantee method, so its Release is a
// DP release site (and a potential panic source while a hold is live).
type Mech struct{ Epsilon float64 }

// Release consumes the raw data.
func (m *Mech) Release(d *Dataset, g *RNG) float64 { return m.Epsilon }

// Guarantee prices one release.
func (m *Mech) Guarantee() Guarantee { return Guarantee{Epsilon: m.Epsilon} }

// ErrExhausted mirrors the accountant's budget-exhaustion sentinel.
var ErrExhausted = errors.New("budget exhausted")

// Accountant registers spends and admits reservations.
type Accountant struct{ spent []Guarantee }

// Spend records one guarantee.
func (a *Accountant) Spend(g Guarantee) { a.spent = append(a.spent, g) }

// Reservation is a held budget claim: the first half of the two-phase
// Reserve/Commit protocol.
type Reservation struct {
	a Accountant
	g Guarantee
}

// Reserve admits a guarantee against the budget and returns the hold.
func (a *Accountant) Reserve(g Guarantee) (*Reservation, error) {
	return &Reservation{g: g}, nil
}

// Commit turns the hold into a recorded spend. Panics on double-commit.
func (r *Reservation) Commit(meta string) {}

// Release frees an uncommitted hold; it is a no-op after Commit.
func (r *Reservation) Release() {}

// Amount reports the held epsilon (a read, not a protocol transition).
func (r *Reservation) Amount() float64 { return r.g.Epsilon }

// DeferCovered is the canonical sandwich: guard the Reserve error, defer
// Release, release, Commit. Clean on every path including panics.
func DeferCovered(d *Dataset, acct *Accountant, g *RNG) (float64, error) {
	m := &Mech{Epsilon: 1}
	res, err := acct.Reserve(m.Guarantee())
	if err != nil {
		return 0, err
	}
	defer res.Release()
	out := m.Release(d, g)
	res.Commit("mech")
	return out, nil
}

// EarlyReturnLeak abandons the hold on the fast path: the early return
// leaves budget headroom reserved that nothing will ever commit or free.
func EarlyReturnLeak(acct *Accountant, m *Mech, fast bool) (float64, error) {
	res, err := acct.Reserve(m.Guarantee()) // want "reservation leak.*neither committed nor released"
	if err != nil {
		return 0, err
	}
	if fast {
		return 0, nil
	}
	res.Commit("mech")
	return 1, nil
}

// PanicLeak sandwiches the release without a deferred cleanup: if the
// release panics the hold is lost. The commit below is unconditional, so
// only the panic edge leaks.
func PanicLeak(d *Dataset, acct *Accountant, g *RNG) (float64, error) {
	m := &Mech{Epsilon: 1}
	res, err := acct.Reserve(m.Guarantee()) // want "reservation leak on panic"
	if err != nil {
		return 0, err
	}
	out := m.Release(d, g)
	res.Commit("mech")
	return out, nil
}

// LateDefer registers the cleanup after the release: order matters — a
// panic during the release happens before the defer exists.
func LateDefer(d *Dataset, acct *Accountant, g *RNG) float64 {
	m := &Mech{Epsilon: 1}
	res, err := acct.Reserve(m.Guarantee()) // want "reservation leak on panic"
	if err != nil {
		return 0
	}
	out := m.Release(d, g)
	defer res.Release()
	res.Commit("mech")
	return out
}

// ErrIsGuard degrades on budget exhaustion: on the errors.Is edge the
// Reserve failed, so the early return holds nothing. Clean.
func ErrIsGuard(d *Dataset, acct *Accountant, g *RNG) (float64, error) {
	m := &Mech{Epsilon: 1}
	res, err := acct.Reserve(m.Guarantee())
	if errors.Is(err, ErrExhausted) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	defer res.Release()
	out := m.Release(d, g)
	res.Commit("mech")
	return out, nil
}

// CommitInBranch commits only under a flag and has no deferred Release:
// the flag-off path exits with the hold still open.
func CommitInBranch(acct *Accountant, m *Mech, ok bool) float64 {
	res, err := acct.Reserve(m.Guarantee()) // want "reservation leak.*neither committed nor released"
	if err != nil {
		return 0
	}
	if ok {
		res.Commit("mech")
	}
	return 1
}

// LoopReserve holds and settles one reservation per iteration, each
// covered by its own deferred Release. Clean across the back edge.
func LoopReserve(d *Dataset, acct *Accountant, ms []*Mech, g *RNG) float64 {
	total := 0.0
	for _, m := range ms {
		res, err := acct.Reserve(m.Guarantee())
		if err != nil {
			return total
		}
		defer res.Release()
		total += m.Release(d, g)
		res.Commit("mech")
	}
	return total
}

// DoubleCommit settles the hold twice: Reservation.Commit panics on the
// second call by contract.
func DoubleCommit(d *Dataset, acct *Accountant, g *RNG) (float64, error) {
	m := &Mech{Epsilon: 1}
	res, err := acct.Reserve(m.Guarantee())
	if err != nil {
		return 0, err
	}
	defer res.Release()
	out := m.Release(d, g)
	res.Commit("mech")
	res.Commit("mech") // want "panics on double-commit"
	return out, nil
}

// TransferOut returns the hold: ownership (and the settle obligation)
// moves to the caller. Clean here — the caller's scope is checked there.
func TransferOut(acct *Accountant, m *Mech) (*Reservation, error) {
	res, err := acct.Reserve(m.Guarantee())
	if err != nil {
		return nil, err
	}
	return res, nil
}

// HandOff passes the hold to a helper: an escaped reservation is the
// callee's obligation, not a leak at this site.
func HandOff(acct *Accountant, m *Mech) {
	res, err := acct.Reserve(m.Guarantee())
	if err != nil {
		return
	}
	settle(res)
}

func settle(r *Reservation) { r.Commit("mech") }

// AbandonedHold reads the hold but never settles it: the exit leaks even
// though the variable is used.
func AbandonedHold(acct *Accountant, m *Mech) float64 {
	res, err := acct.Reserve(m.Guarantee()) // want "reservation leak.*neither committed nor released"
	if err != nil {
		return 0
	}
	return res.Amount()
}

// SuppressedLeak exercises the suppression path: the directive names the
// check and gives a reason, so the finding is waived (and audited).
func SuppressedLeak(acct *Accountant, m *Mech) float64 {
	//dplint:ignore twophase deliberate abandon exercised by the suppression test
	res, err := acct.Reserve(m.Guarantee())
	if err != nil {
		return 0
	}
	return res.Amount()
}

// Txn is a durable hold following the Reservation protocol by shape:
// Commit/Release plus Amount returning the held Guarantee. The check
// recognizes it structurally — the name does not matter, the
// settle-exactly-once obligation does.
type Txn struct{ g Guarantee }

// Log is the write-ahead ledger; Begin fsyncs a reserve record and
// returns the durable hold.
type Log struct{}

// Begin opens a durable hold. The accountant comes first: the check
// keys on the result type, not the argument layout.
func (l *Log) Begin(a *Accountant, g Guarantee) (*Txn, error) {
	return &Txn{g: g}, nil
}

// Commit fsyncs the commit record, settling the hold.
func (t *Txn) Commit(status int) {}

// Release voids an uncommitted hold.
func (t *Txn) Release() {}

// Amount reports the held guarantee.
func (t *Txn) Amount() Guarantee { return t.g }

// DurableCovered is the serve envelope: reserve durably, defer the
// void, release, commit. Clean on every path including panics.
func DurableCovered(d *Dataset, acct *Accountant, wal *Log, g *RNG) (float64, error) {
	m := &Mech{Epsilon: 1}
	tx, err := wal.Begin(acct, m.Guarantee())
	if err != nil {
		return 0, err
	}
	defer tx.Release()
	out := m.Release(d, g)
	tx.Commit(200)
	return out, nil
}

// DurableLeak abandons the durable hold on the fast path: recovery
// charges nothing for a request that never committed, but this process
// leaked headroom nothing will settle.
func DurableLeak(acct *Accountant, wal *Log, m *Mech, fast bool) (float64, error) {
	tx, err := wal.Begin(acct, m.Guarantee()) // want "reservation leak.*neither committed nor released"
	if err != nil {
		return 0, err
	}
	if fast {
		return 0, nil
	}
	tx.Commit(200)
	return 1, nil
}
