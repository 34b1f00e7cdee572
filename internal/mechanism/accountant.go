package mechanism

import (
	"errors"
	"math"
	"sync"

	"repro/internal/mathx"
)

// SpendMeta carries the ledger metadata of one release: everything an
// observer needs to turn a Spend into an auditable privacy-ledger
// record beyond the Guarantee itself. All fields are optional; the
// plain Spend path leaves them zero.
type SpendMeta struct {
	// Mechanism is the release's kind ("gibbs", "laplace", "expmech",
	// "svt", ...), free-form but stable per call site.
	Mechanism string
	// Sensitivity is the released query's global sensitivity (Δq of
	// Theorem 2.2, ΔR̂ of Theorem 4.1, Δf of Theorem 2.1).
	Sensitivity float64
	// Outcomes is the outcome domain size of the release: |Θ| for an
	// exponential-mechanism draw, the output dimension for a numeric
	// vector. 0 means unknown.
	Outcomes int
	// Duration is the release's duration in the run's clock units (0 =
	// untimed). Deterministic runs use logical ticks, never wall time.
	Duration int64
	// Span is the trace-span id enclosing the release, if the run is
	// traced.
	Span uint64
	// Trace is the 32-hex-digit W3C trace id of the request that caused
	// the release ("" outside any request trace). It is what joins a
	// spend back to the exact request — across the access log, the span
	// tree, and the ledger — in per-request ε attribution.
	Trace string
	// Charge is the scope of the request the spend belongs to (nil
	// outside any request). Commit sites stamp it from ChargeScopeFrom,
	// and the accountant appends the committed record to it, so every
	// guarantee a facade call commits — however it recomputes ε
	// internally — reaches the request's record exactly. The observer
	// sees the record without it: a scope lives only as long as its
	// request.
	Charge *ChargeScope
}

// SpendRecord is one accounted release: the guarantee, its metadata,
// and the accountant's monotonic sequence number. Seq is assigned under
// the accountant's lock, so it is a total arrival order — the observer
// sees releases in audit order even when the parallel engine's workers
// spend concurrently.
type SpendRecord struct {
	Seq       uint64
	Guarantee Guarantee
	Meta      SpendMeta
}

// SpendObserver receives every accounted release, synchronously and in
// sequence order (the callback runs under the accountant's lock — keep
// it cheap and never call back into the accountant). The obs package's
// privacy ledger is the intended implementation.
type SpendObserver func(SpendRecord)

// Accountant tracks the privacy cost of a sequence of mechanism
// invocations on the same dataset and reports composed guarantees.
// The zero value is an empty accountant ready to use, and a nil
// *Accountant is a valid sink that records nothing — release paths can
// spend unconditionally and let the caller decide whether to account.
// Spend and the composition queries are safe for concurrent use.
type Accountant struct {
	mu       sync.Mutex
	observer SpendObserver

	// No per-spend history: spent counts the spends (the next Seq),
	// spentEps and spentDel are their exact running sums, firstEps is
	// the first spend's ε, and advErr is set by the first spend that
	// breaks AdvancedComposition's homogeneous pure-ε precondition.
	spent              int
	spentEps, spentDel mathx.ExactSum
	firstEps           float64
	advErr             error

	// Budget enforcement (see budget.go): when hasBudget is set, Reserve
	// admits a release only if the composition of spent, reserved, and
	// the request stays within budget. held counts the outstanding
	// (reserved-but-not-yet-committed) claims, heldEps and heldDel are
	// their exact sums, and usedEps and usedDel are scratch for spent
	// plus held.
	budget           Guarantee
	hasBudget        bool
	held             int
	heldEps, heldDel mathx.ExactSum
	usedEps, usedDel mathx.ExactSum
}

// SetObserver installs the spend observer (nil to remove). On a nil
// accountant it is a no-op. The observer sees every subsequent spend
// with its sequence number; it is invoked under the accountant's lock
// so records arrive in sequence order.
func (a *Accountant) SetObserver(obs SpendObserver) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.observer = obs
}

// Spend records one mechanism invocation. On a nil accountant it is a
// no-op, so library code never needs to branch around accounting.
func (a *Accountant) Spend(g Guarantee) {
	a.SpendDetail(g, SpendMeta{})
}

// SpendDetail records one mechanism invocation together with its ledger
// metadata. It assigns the next monotonic sequence number under the
// accountant's lock and forwards the full record to the observer, if
// one is installed. On a nil accountant it is a no-op.
func (a *Accountant) SpendDetail(g Guarantee, meta SpendMeta) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.recordLocked(g, meta)
}

// recordLocked commits one spend: the next sequence number, the count
// and sums, AdvancedComposition's precondition, the request's scope,
// then the observer. The record the scope and the observer see drops
// the scope, so nothing pins it past its request. Caller holds a.mu.
func (a *Accountant) recordLocked(g Guarantee, meta SpendMeta) {
	rec := SpendRecord{Seq: uint64(a.spent), Guarantee: g, Meta: meta}
	rec.Meta.Charge = nil
	if a.spent == 0 {
		a.firstEps = g.Epsilon
	}
	a.spent++
	a.spentEps.Add(g.Epsilon)
	a.spentDel.Add(g.Delta)
	if a.advErr == nil && g.Delta != 0 { //dplint:ignore floateq pure eps-DP is encoded as bitwise delta=0; no arithmetic ever perturbs it
		a.advErr = errors.New("mechanism: advanced composition implemented for pure ε-DP only")
	}
	if a.advErr == nil && g.Epsilon != a.firstEps { //dplint:ignore floateq homogeneity check: the spent guarantees must carry the identical stored ε
		a.advErr = errors.New("mechanism: advanced composition implemented for homogeneous ε only")
	}
	meta.Charge.add(rec)
	if a.observer != nil {
		a.observer(rec)
	}
}

// Count returns the number of recorded invocations.
func (a *Accountant) Count() int {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.spent
}

// Audit returns the spend count and sets eps and del to copies of the
// spends' exact ε and δ sums, all read under one lock, so the three
// describe the same spends; an audit reads its witness first and the
// accountant second. A nil accountant has empty books.
func (a *Accountant) Audit(eps, del *mathx.ExactSum) (count int) {
	if a == nil {
		eps.Reset()
		del.Reset()
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	var none mathx.ExactSum // a sum with nothing added makes SetSum a copy
	eps.SetSum(&a.spentEps, &none)
	del.SetSum(&a.spentDel, &none)
	return a.spent
}

// BasicComposition returns the sequential-composition guarantee:
// ε_total = Σ εᵢ, δ_total = Σ δᵢ.
//
// Each sum is exact and rounded once, to nearest-even (mathx.ExactSum),
// so the composed guarantee is a pure function of the *multiset* of
// spends. Floating-point addition is not associative; a running float
// sum would let workers interleaving their spends differently across
// runs (or across Workers settings of the parallel engine) change the
// composed ε's low bits, and the runtime privacy ledger could never be
// golden-tested. obs.ComposeBasic and the write-ahead log's books round
// the same exact sum, so each agrees with the accountant bit for bit.
// The sums are kept as spends arrive, so the call costs the same at any
// history length.
func (a *Accountant) BasicComposition() Guarantee {
	if a == nil {
		return Guarantee{}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return Guarantee{Epsilon: a.spentEps.Float64(), Delta: a.spentDel.Float64()}
}

// AdvancedComposition returns the Dwork–Rothblum–Vadhan advanced
// composition bound for k mechanisms each ε-DP (requires homogeneous pure
// guarantees): for any slack δ′ > 0 the composition is
// (ε·sqrt(2k·ln(1/δ′)) + k·ε·(e^ε − 1), δ′)-DP.
// It returns an error if the recorded guarantees are heterogeneous or
// impure, since the closed form only covers that case; the first spend
// to break the precondition picks the error.
func (a *Accountant) AdvancedComposition(deltaSlack float64) (Guarantee, error) {
	if deltaSlack <= 0 || deltaSlack >= 1 {
		return Guarantee{}, errors.New("mechanism: advanced composition needs slack in (0,1)")
	}
	if a == nil {
		return Guarantee{Delta: deltaSlack}, nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.spent == 0 {
		return Guarantee{Delta: deltaSlack}, nil
	}
	if a.advErr != nil {
		return Guarantee{}, a.advErr
	}
	eps, k := a.firstEps, float64(a.spent)
	epsTotal := eps*math.Sqrt(2*k*math.Log(1/deltaSlack)) + k*eps*math.Expm1(eps)
	return Guarantee{Epsilon: epsTotal, Delta: deltaSlack}, nil
}

// BestComposition returns the tighter of basic and advanced composition
// (advanced with the given slack, falling back to basic when advanced is
// inapplicable or looser).
func (a *Accountant) BestComposition(deltaSlack float64) Guarantee {
	basic := a.BasicComposition()
	adv, err := a.AdvancedComposition(deltaSlack)
	if err != nil {
		return basic
	}
	if adv.Epsilon < basic.Epsilon {
		return adv
	}
	return basic
}

// ParallelComposition returns the guarantee for mechanisms applied to
// disjoint partitions of the data: the max of the individual guarantees.
func ParallelComposition(gs []Guarantee) Guarantee {
	var out Guarantee
	for _, g := range gs {
		if g.Epsilon > out.Epsilon {
			out.Epsilon = g.Epsilon
		}
		if g.Delta > out.Delta {
			out.Delta = g.Delta
		}
	}
	return out
}

// Reset clears the accountant (the observer stays installed; sequence
// numbers restart from zero).
func (a *Accountant) Reset() {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.spent, a.firstEps, a.advErr = 0, 0, nil
	a.spentEps.Reset()
	a.spentDel.Reset()
}
