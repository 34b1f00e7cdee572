package obs

import (
	"sort"
	"sync"

	"repro/internal/mathx"
)

// LedgerRecord is one line of the privacy ledger: the runtime account of
// a single differentially-private release. It is the dynamic mirror of a
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

// Ledger accumulates the privacy ledger of one run. It is safe for
// concurrent use; a nil *Ledger is a valid no-op sink. When a Tracer is
// attached, every record is additionally emitted as a "ledger" NDJSON
// line into the trace stream, interleaved with spans.
type Ledger struct {
	mu     sync.Mutex
	recs   []LedgerRecord
	tracer *Tracer
}

// NewLedger returns an empty ledger. tracer may be nil; when set, each
// Record is also written to the trace as an NDJSON "ledger" line.
func NewLedger(tracer *Tracer) *Ledger {
	return &Ledger{tracer: tracer}
}

// Record appends one release to the ledger (nil-safe).
func (l *Ledger) Record(r LedgerRecord) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.recs = append(l.recs, r)
	tr := l.tracer
	l.mu.Unlock()
	if tr != nil {
		tr.emit(ledgerLine{Type: "ledger", LedgerRecord: r})
	}
}

// Len returns the number of recorded releases (nil-safe).
func (l *Ledger) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.recs)
}

// Records returns a copy of the ledger sorted by sequence number — the
// audit order of the releases.
func (l *Ledger) Records() []LedgerRecord {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	out := append([]LedgerRecord(nil), l.recs...)
	l.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
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
	var eps, del mathx.ExactSum
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, r := range l.recs {
		eps.Add(r.Epsilon)
		del.Add(r.Delta)
	}
	return eps.Float64(), del.Float64()
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
