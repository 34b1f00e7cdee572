package obs

import "repro/internal/mathx"

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
	// keeps pre-tracing ledger NDJSON byte-identical on round-trip.
	Trace string `json:"trace,omitempty"`
}

// ledgerLine is LedgerRecord with the NDJSON type discriminator.
type ledgerLine struct {
	Type string `json:"type"`
	LedgerRecord
}

// Ledger streams a run's privacy ledger: with a Tracer attached, each
// record becomes a "ledger" NDJSON line interleaved with spans. It
// keeps no books; recomposed with ComposeBasic, the lines read back are
// the accountant's offline witness. It is safe for concurrent use; a
// nil *Ledger is a valid no-op sink.
type Ledger struct {
	tracer *Tracer
}

// NewLedger returns a ledger streaming to tracer (nil streams nowhere).
func NewLedger(tracer *Tracer) *Ledger {
	return &Ledger{tracer: tracer}
}

// Record streams one release's line to the tracer, if any (nil-safe).
func (l *Ledger) Record(r LedgerRecord) {
	if l == nil || l.tracer == nil {
		return
	}
	l.tracer.emit(ledgerLine{Type: "ledger", LedgerRecord: r})
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

// ComposeLedger is ComposeBasic over the guarantees of ledger lines.
func ComposeLedger(lines []LedgerRecord) (epsilon, delta float64) {
	eps := make([]float64, len(lines))
	del := make([]float64, len(lines))
	for i, lr := range lines {
		eps[i], del[i] = lr.Epsilon, lr.Delta
	}
	return ComposeBasic(eps, del)
}
