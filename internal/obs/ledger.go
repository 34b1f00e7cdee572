package obs

import (
	"sync"

	"repro/internal/mathx"
)

// LedgerRecord is one line of the privacy ledger: the runtime account of
// a single differentially-private release. It carries the fields of a
// mechanism.SpendRecord — the ledger stays decoupled from the mechanism
// package so that obs depends only on the standard library and mathx;
// the accountant's observer hook copies the fields across.
type LedgerRecord struct {
	// Seq is the accountant's monotonic sequence number: the arrival
	// order of the spend under the accountant's lock.
	Seq uint64 `json:"seq"`
	// Mechanism is the release's kind ("gibbs", "laplace", ...).
	Mechanism string `json:"mechanism,omitempty"`
	// Sensitivity is the query's global sensitivity (Δq or ΔR̂).
	Sensitivity float64 `json:"sensitivity,omitempty"`
	// Epsilon and Delta are the (ε, δ) guarantee spent by the release.
	Epsilon float64 `json:"epsilon"`
	Delta   float64 `json:"delta,omitempty"`
	// Outcomes is the release's outcome domain size (|Θ| for a Gibbs
	// draw, the output dimension for a Laplace vector), 0 if unknown.
	Outcomes int `json:"outcomes,omitempty"`
	// Duration is the release's duration in clock units (ns under
	// WallClock, ticks under LogicalClock), 0 if untimed.
	Duration int64 `json:"duration,omitempty"`
	// Span is the id of the trace span enclosing the release, if any.
	Span uint64 `json:"span,omitempty"`
	// Trace is the 32-hex-digit W3C trace id of the request that caused
	// the release, if the release ran under a request span. omitempty
	// keeps pre-tracing ledger NDJSON byte-identical on round-trip and
	// the ComposeBasic cross-check untouched.
	Trace string `json:"trace,omitempty"`
}

// ledgerLine is LedgerRecord with the NDJSON type discriminator.
type ledgerLine struct {
	Type string `json:"type"`
	LedgerRecord
}

// Ledger keeps the books of one run's privacy ledger — the release count
// and the exact sums of their ε and δ, no per-release history — and,
// when a Tracer is attached, streams every record as a "ledger" NDJSON
// line interleaved with spans. It is safe for concurrent use; a nil
// *Ledger is a valid no-op sink.
type Ledger struct {
	mu       sync.Mutex
	n        int
	eps, del mathx.ExactSum
	tracer   *Tracer
}

// NewLedger returns an empty ledger. tracer may be nil; when set, each
// Record is written to the trace as an NDJSON "ledger" line.
func NewLedger(tracer *Tracer) *Ledger {
	return &Ledger{tracer: tracer}
}

// Record counts one release into the books and streams its line to the
// tracer, if any (nil-safe).
func (l *Ledger) Record(r LedgerRecord) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.n++
	l.eps.Add(r.Epsilon)
	l.del.Add(r.Delta)
	l.mu.Unlock()
	if l.tracer != nil {
		l.tracer.emit(ledgerLine{Type: "ledger", LedgerRecord: r})
	}
}

// Len returns the number of recorded releases (nil-safe).
func (l *Ledger) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// Composed returns the basic sequential composition (Σεᵢ, Σδᵢ) of the
// ledger, each component summed exactly and rounded once by
// mathx.ExactSum — the accumulator mechanism.Accountant keeps — so the
// two agree bit-for-bit on the same multiset of guarantees, for every
// arrival order and worker count.
func (l *Ledger) Composed() (epsilon, delta float64) {
	if l == nil {
		return 0, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.eps.Float64(), l.del.Float64()
}

// ComposeBasic is the basic-composition sum (Σεᵢ, Σδᵢ) of a list of
// spends, computed by the accumulator mechanism.Accountant keeps:
// each component is summed exactly and rounded once, to nearest-even,
// so the composed guarantee is a pure function of the *multiset* of
// spends — reproducible when concurrent workers interleave their spends
// differently across runs or worker counts.
func ComposeBasic(eps, del []float64) (epsilon, delta float64) {
	var se, sd mathx.ExactSum
	for _, x := range eps {
		se.Add(x)
	}
	for _, x := range del {
		sd.Add(x)
	}
	return se.Float64(), sd.Float64()
}
