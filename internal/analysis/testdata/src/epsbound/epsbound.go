// Package epsbound exercises the symbolic budget-bound analysis: in
// fixture mode every exported function is an entry point, sequential
// charges sum, branches take the max, annotated loops multiply, and a
// charging loop without a //dp:loopbound annotation is a finding.
package epsbound

// Structural stubs of the accountant surface; epsbound keys on the
// Spend/SpendDetail/Reserve shapes, not the import path.

type Guarantee struct {
	Epsilon float64
	Delta   float64
}

type SpendMeta struct {
	Mechanism string
}

type Accountant struct {
	spent []Guarantee
}

func (a *Accountant) Spend(g Guarantee) {
	a.spent = append(a.spent, g)
}

func (a *Accountant) SpendDetail(g Guarantee, meta SpendMeta) {
	a.spent = append(a.spent, g)
}

type Reservation struct {
	g Guarantee
}

func (a *Accountant) Reserve(g Guarantee) (*Reservation, error) {
	a.spent = append(a.spent, g)
	return &Reservation{g: g}, nil
}

func (r *Reservation) Commit(meta SpendMeta) {}
func (r *Reservation) Release()              {}

// SequentialRelease charges twice in sequence: the bound is the sum
// eps1 + eps2.
func SequentialRelease(a *Accountant, eps1, eps2 float64) {
	a.Spend(Guarantee{Epsilon: eps1})
	a.Spend(Guarantee{Epsilon: eps2})
}

// BranchRelease charges on exactly one of two branches: the bound is
// max(0.5*eps, eps).
func BranchRelease(a *Accountant, cheap bool, eps float64) {
	if cheap {
		a.Spend(Guarantee{Epsilon: eps / 2})
	} else {
		a.Spend(Guarantee{Epsilon: eps})
	}
}

// BoundedSteps charges once per iteration under a declared trip count:
// the bound is steps*eps.
func BoundedSteps(a *Accountant, steps int, eps float64) {
	//dp:loopbound k=steps
	for i := 0; i < steps; i++ {
		a.Spend(Guarantee{Epsilon: eps})
	}
}

// UnboundedSteps charges per iteration with no declared trip count, so
// its certificate is unbounded — a finding.
func UnboundedSteps(a *Accountant, eps float64, done func() bool) {
	for !done() { // want "no //dp:loopbound"
		a.Spend(Guarantee{Epsilon: eps})
	}
}

// quoted routes its Guarantee parameter through the two-phase protocol;
// its summary carries the parameter marker for call sites to fill in.
func quoted(a *Accountant, g Guarantee) error {
	res, err := a.Reserve(g)
	if err != nil {
		return err
	}
	defer res.Release()
	res.Commit(SpendMeta{})
	return nil
}

// QuotedRelease quotes the caller's ε into the shared helper: the bound
// substitutes to exactly eps.
func QuotedRelease(a *Accountant, eps float64) error {
	return quoted(a, Guarantee{Epsilon: eps})
}

// SplitRelease spends an even share per part, iterated over the parts:
// the reciprocal cancels and the bound folds back to eps.
func SplitRelease(a *Accountant, parts []float64, eps float64) {
	per := eps / float64(len(parts))
	//dp:loopbound k=len(parts)
	for range parts {
		a.Spend(Guarantee{Epsilon: per})
	}
}

// ChargeFree never touches the accountant; its certificate is zero.
func ChargeFree(xs []float64) float64 {
	var total float64
	for _, x := range xs {
		total += x
	}
	return total
}

// Txn is the durable intent returned by the write-ahead ledger. It has
// the two-phase hold shape, but neither its Reserve wrapper's result nor
// its Commit is a charge of its own.
type Txn struct{ g Guarantee }

func (t *Txn) Commit(meta SpendMeta) {}
func (t *Txn) Release()              {}
func (t *Txn) Amount() Guarantee     { return t.g }

// Ledger stands in for the write-ahead log. Its Reserve takes the
// accountant first and admits the guarantee on it: the charge is the
// accountant's Reserve, priced through Ledger.Reserve's summary.
type Ledger struct{}

func (l *Ledger) Reserve(a *Accountant, g Guarantee) (*Txn, error) {
	if _, err := a.Reserve(g); err != nil {
		return nil, err
	}
	return &Txn{g: g}, nil
}

// DurableQuoted charges through the WAL-logged Reserve: the bound is
// exactly eps, substituted through the wrapper's summary.
func DurableQuoted(a *Accountant, wal *Ledger, eps float64) error {
	tx, err := wal.Reserve(a, Guarantee{Epsilon: eps})
	if err != nil {
		return err
	}
	defer tx.Release()
	tx.Commit(SpendMeta{})
	return nil
}

// DurableLoop charges per iteration through the durable hold with no
// declared trip count: still a finding.
func DurableLoop(a *Accountant, wal *Ledger, eps float64, done func() bool) {
	for !done() { // want "no //dp:loopbound"
		tx, err := wal.Reserve(a, Guarantee{Epsilon: eps})
		if err != nil {
			return
		}
		tx.Commit(SpendMeta{})
	}
}
