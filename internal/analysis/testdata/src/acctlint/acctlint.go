// Package acctlint exercises the accounting check: every reachable
// release must flow its Guarantee into Accountant.Spend exactly once,
// unconditionally. The types below are structural stubs of the real
// mechanism package — the check recognizes them by shape (a Guarantee
// method marks a mechanism; a Spend(Guarantee) method marks an
// accountant), not by import path.
package acctlint

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
// DP release site.
type Mech struct{ Epsilon float64 }

// Release consumes the raw data. As a method of a Guarantee-bearing type
// it is itself exempt from accounting — callers pay, not the mechanism.
func (m *Mech) Release(d *Dataset, g *RNG) float64 { return m.Epsilon }

// Guarantee prices one release.
func (m *Mech) Guarantee() Guarantee { return Guarantee{Epsilon: m.Epsilon} }

// Accountant registers spends.
type Accountant struct{ spent []Guarantee }

// Spend records one guarantee.
func (a *Accountant) Spend(g Guarantee) { a.spent = append(a.spent, g) }

// Leak is the seeded violation: an exported release whose guarantee
// never reaches an accountant.
func Leak(d *Dataset, g *RNG) float64 {
	m := &Mech{Epsilon: 1}
	return m.Release(d, g) // want "un-accounted release"
}

// Accounted releases and pays: clean.
func Accounted(d *Dataset, acct *Accountant, g *RNG) float64 {
	m := &Mech{Epsilon: 1}
	v := m.Release(d, g)
	acct.Spend(m.Guarantee())
	return v
}

// Public reaches helper through the call graph, so helper's leak is
// reported even though helper is unexported.
func Public(d *Dataset, g *RNG) float64 {
	return helper(d, g)
}

func helper(d *Dataset, g *RNG) float64 {
	m := &Mech{Epsilon: 2}
	return m.Release(d, g) // want "un-accounted release"
}

// orphan is unreachable from every exported root, so its release is not
// checked: dead code cannot leak.
func orphan(d *Dataset, g *RNG) float64 {
	m := &Mech{Epsilon: 3}
	return m.Release(d, g)
}

// MaybePay releases unconditionally but spends only under a flag: some
// executions release without paying.
func MaybePay(d *Dataset, acct *Accountant, debug bool, g *RNG) float64 {
	m := &Mech{Epsilon: 1}
	v := m.Release(d, g)
	if debug {
		acct.Spend(m.Guarantee()) // want "conditionally-accounted release"
	}
	return v
}

// LoopPay releases and spends together inside a loop: loops are not
// guards, the pair stays matched on every iteration.
func LoopPay(d *Dataset, acct *Accountant, g *RNG) float64 {
	m := &Mech{Epsilon: 1}
	var s float64
	for i := 0; i < 3; i++ {
		s += m.Release(d, g)
		acct.Spend(m.Guarantee())
	}
	return s
}

// DoubleSpend registers the same guarantee twice, over-reporting the
// privacy loss.
func DoubleSpend(d *Dataset, acct *Accountant, g *RNG) float64 {
	m := &Mech{Epsilon: 1}
	v := m.Release(d, g)
	gu := m.Guarantee()
	acct.Spend(gu)
	acct.Spend(gu) // want "double-spend"
	return v
}

// SuppressedLeak keeps a deliberate un-accounted release behind a
// reasoned directive; the finding is recorded as suppressed, not lost.
func SuppressedLeak(d *Dataset, g *RNG) float64 {
	m := &Mech{Epsilon: 1}
	//dplint:ignore acctlint fixture: harness samples the raw release on synthetic data
	return m.Release(d, g)
}

// SpendDetail records one guarantee together with ledger metadata; the
// check treats it as the same accounting act as Spend.
func (a *Accountant) SpendDetail(g Guarantee, mechanism string) {
	a.spent = append(a.spent, g)
	_ = mechanism
}

// DetailAccounted pays through the metadata variant: clean.
func DetailAccounted(d *Dataset, acct *Accountant, g *RNG) float64 {
	m := &Mech{Epsilon: 1}
	v := m.Release(d, g)
	acct.SpendDetail(m.Guarantee(), "mech")
	return v
}

//dp:observer fixture: estimates the mechanism's realized eps by resampling its output
func AuditObserver(d *Dataset, g *RNG) float64 {
	m := &Mech{Epsilon: 1}
	var s float64
	for i := 0; i < 64; i++ {
		s += m.Release(d, g)
	}
	return s / 64
}

// ObserverClosure exempts only the marked literal; the function around
// it is still checked (and is clean — it makes no release itself).
func ObserverClosure(d *Dataset, g *RNG) float64 {
	m := &Mech{Epsilon: 1}
	//dp:observer fixture: sampling closure handed to a measurement harness
	sample := func() float64 { return m.Release(d, g) }
	return sample() + sample()
}

// NotAnObserver has a directive two lines up — out of anchor range, so
// the exemption does not apply and the release stays flagged.
//
//dp:observer fixture: directive stranded above a blank line

func NotAnObserver(d *Dataset, g *RNG) float64 {
	m := &Mech{Epsilon: 1}
	return m.Release(d, g) // want "un-accounted release"
}

// Reservation is a held budget claim: the first half of the two-phase
// spend protocol. It deliberately bears no Guarantee method, so its own
// Release is NOT a DP release site.
type Reservation struct {
	a *Accountant
	g Guarantee
}

// Reserve admits a guarantee against the budget and returns the hold.
func (a *Accountant) Reserve(g Guarantee) *Reservation {
	return &Reservation{a: a, g: g}
}

// Commit turns the hold into a recorded spend — the accounting act.
func (r *Reservation) Commit(meta string) {
	r.a.spent = append(r.a.spent, r.g)
	_ = meta
}

// Release abandons the hold, returning the headroom uncharged.
func (r *Reservation) Release() {}

// TwoPhaseAccounted pays through the two-phase protocol: Reserve admits
// the guarantee before the release and Commit records it after, jointly
// satisfying the must-spend rule. The deferred Reservation.Release is
// not a DP release (no Guarantee on the receiver).
func TwoPhaseAccounted(d *Dataset, acct *Accountant, g *RNG) float64 {
	m := &Mech{Epsilon: 1}
	res := acct.Reserve(m.Guarantee())
	defer res.Release()
	v := m.Release(d, g)
	res.Commit("mech")
	return v
}

// ReservedNeverCommitted holds budget but abandons the hold without
// committing: the release goes unrecorded, so it still leaks.
func ReservedNeverCommitted(d *Dataset, acct *Accountant, g *RNG) float64 {
	m := &Mech{Epsilon: 1}
	res := acct.Reserve(m.Guarantee())
	defer res.Release()
	return m.Release(d, g) // want "un-accounted release"
}

// CommitInBranch commits only under a flag: some executions release
// without recording the spend, exactly like a branched Spend.
func CommitInBranch(d *Dataset, acct *Accountant, ok bool, g *RNG) float64 {
	m := &Mech{Epsilon: 1}
	res := acct.Reserve(m.Guarantee())
	defer res.Release()
	v := m.Release(d, g)
	if ok {
		res.Commit("mech") // want "conditionally-accounted release"
	}
	return v
}

// Sample is a fallible posterior draw: a DP release whose error result
// reports that no output was produced (and no budget consumed).
func (m *Mech) Sample(d *Dataset, g *RNG) (int, error) { return 0, nil }

// EarlyReturn releases, then bails out on the fast path before paying.
// The Spend is not nested in any branch — a syntactic guard check sees
// nothing — but the release still reaches the early exit unpaid.
func EarlyReturn(d *Dataset, acct *Accountant, fast bool, g *RNG) float64 {
	m := &Mech{Epsilon: 1}
	v := m.Release(d, g)
	if fast {
		return v
	}
	acct.Spend(m.Guarantee()) // want "conditionally-accounted release"
	return v
}

// ErrVoided pays only when the draw succeeded: on the error path the
// release produced no output and charged nothing, so the guarded early
// return is clean.
func ErrVoided(d *Dataset, acct *Accountant, g *RNG) (int, error) {
	m := &Mech{Epsilon: 1}
	idx, err := m.Sample(d, g)
	if err != nil {
		return 0, err
	}
	acct.Spend(m.Guarantee())
	return idx, nil
}

// Composite is itself a mechanism (it bears Guarantee), so its internal
// releases are priced by its own Guarantee and exempt from per-call
// accounting — callers spend the composite price.
type Composite struct{ parts []Mech }

// Guarantee prices the whole composition.
func (c *Composite) Guarantee() Guarantee {
	var eps float64
	for _, m := range c.parts {
		eps += m.Epsilon
	}
	return Guarantee{Epsilon: eps}
}

// Run releases every part without spending: exempt by receiver.
func (c *Composite) Run(d *Dataset, g *RNG) float64 {
	var s float64
	for i := range c.parts {
		s += c.parts[i].Release(d, g)
	}
	return s
}

// AccessRecord is one ε-attributed access-log line: the telemetry
// payload an access logger transcribes per request.
type AccessRecord struct {
	Trace        string
	SpentEpsilon float64
}

// AccessLog is an access logger: a named type carrying a Record method
// whose single parameter is an AccessRecord. That shape makes every one
// of its methods an observer scope structurally — tracing plumbing
// transcribes already-accounted outcomes, it is not a release path — so
// no //dp:observer comment is needed.
type AccessLog struct {
	lines []AccessRecord
	probe Mech
}

// Record transcribes one line: the single-AccessRecord signature is the
// shape anchor the structural exemption keys on.
func (l *AccessLog) Record(r AccessRecord) { l.lines = append(l.lines, r) }

// flush is another method of the same type and inherits the structural
// exemption: its un-accounted release is a measurement, not a spend.
func (l *AccessLog) flush(d *Dataset, g *RNG) float64 {
	return l.probe.Release(d, g)
}

// Annotate re-samples the mechanism while stamping a line: exempt by
// receiver shape even though the release never reaches a Spend.
func (l *AccessLog) Annotate(r AccessRecord, d *Dataset, g *RNG) {
	r.SpentEpsilon = l.probe.Release(d, g)
	l.lines = append(l.lines, r)
}

// NotARecordLog has a Record method of the wrong shape (no AccessRecord
// parameter), so it is not an access logger and stays checked.
type NotARecordLog struct{ probe Mech }

// Record here takes a plain string: no structural exemption.
func (l *NotARecordLog) Record(line string, d *Dataset, g *RNG) float64 {
	return l.probe.Release(d, g) // want "un-accounted release"
}

// Txn is a durable intent: the write-ahead reserve record a request
// settles with a commit or a void. It follows the two-phase hold shape
// (Commit/Release/Amount→Guarantee) but holds no budget, so its Commit
// makes an outcome durable and charges nothing.
type Txn struct{ g Guarantee }

// Commit fsyncs the commit record; the accountant is not touched.
func (t *Txn) Commit(status int) {}

// Release voids an uncommitted intent.
func (t *Txn) Release() {}

// Amount reports the quoted guarantee — the shape anchor.
func (t *Txn) Amount() Guarantee { return t.g }

// Ledger is the write-ahead log; Begin fsyncs the reserve record before
// the mechanism runs.
type Ledger struct{}

// Begin opens a durable intent quoting g.
func (l *Ledger) Begin(g Guarantee) (*Txn, error) {
	return &Txn{g: g}, nil
}

// DurableAccounted wraps a two-phase accountant spend in the durable
// intent: the Reservation's Commit pays, the Txn's Commit logs it.
func DurableAccounted(d *Dataset, acct *Accountant, wal *Ledger, g *RNG) (float64, error) {
	m := &Mech{Epsilon: 1}
	tx, err := wal.Begin(m.Guarantee())
	if err != nil {
		return 0, err
	}
	defer tx.Release()
	res := acct.Reserve(m.Guarantee())
	defer res.Release()
	v := m.Release(d, g)
	res.Commit("mech")
	tx.Commit(200)
	return v, nil
}

// DurableIntentOnly settles the release only with the intent's Commit:
// a durable record of an outcome is not a charge, so the release leaks.
func DurableIntentOnly(d *Dataset, wal *Ledger, g *RNG) (float64, error) {
	m := &Mech{Epsilon: 1}
	tx, err := wal.Begin(m.Guarantee())
	if err != nil {
		return 0, err
	}
	defer tx.Release()
	v := m.Release(d, g) // want "un-accounted release"
	tx.Commit(200)
	return v, nil
}

// DurableNeverCommitted voids the durable intent without committing
// anything: the release stays unrecorded, so it still leaks.
func DurableNeverCommitted(d *Dataset, wal *Ledger, g *RNG) (float64, error) {
	m := &Mech{Epsilon: 1}
	tx, err := wal.Begin(m.Guarantee())
	if err != nil {
		return 0, err
	}
	defer tx.Release()
	return m.Release(d, g), nil // want "un-accounted release"
}
