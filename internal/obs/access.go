package obs

import "io"

// AccessRecord is one line of the serve layer's access log: the
// per-request face of the privacy ledger. Where a LedgerRecord accounts
// for one mechanism release, an AccessRecord accounts for one HTTP
// request — which tenant asked, what it cost (quoted vs. actually
// committed ε), how the admission decision went, and how long the
// request ran — all keyed by the same trace id that the request's spans
// and ledger lines carry, so the three artifacts join offline.
type AccessRecord struct {
	// Trace is the request's 32-hex-digit W3C trace id ("" when the
	// client sent no traceparent header).
	Trace string `json:"trace,omitempty"`
	// Span is the id of the server's request span for this attempt (0,
	// and omitted, when the request is untraced). Each attempt of a
	// retried request has its own, so a trace's attempts tell apart.
	Span uint64 `json:"span,omitempty"`
	// Tenant is the tenant id the request named ("" when unresolved).
	Tenant string `json:"tenant,omitempty"`
	// Endpoint is the logical endpoint ("fit", "density", ...).
	Endpoint string `json:"endpoint"`
	// Status is the HTTP status code written.
	Status int `json:"status"`
	// QuotedEpsilon is the ε the endpoint would charge on success.
	QuotedEpsilon float64 `json:"quoted_epsilon,omitempty"`
	// SpentEpsilon is the ε actually committed against the tenant's
	// budget (0 when the request was refused, failed, or was free).
	SpentEpsilon float64 `json:"spent_epsilon,omitempty"`
	// Outcome is the reservation outcome: "replayed" (idempotent retry
	// served from the durable outcome store without a second charge) or
	// "degraded" (a fallback or widened fit) when the handler says so;
	// otherwise "committed" exactly when the request charged its budget,
	// else "refused" (429/503), "free" (a 2xx that spent nothing) or
	// "error".
	Outcome string `json:"outcome,omitempty"`
	// IdempotencyKey is the client-supplied Idempotency-Key header (""
	// when the request carried none).
	IdempotencyKey string `json:"idem_key,omitempty"`
	// Start is the request's start timestamp in clock units.
	Start int64 `json:"start"`
	// Duration is the request's duration in clock units (ns under
	// WallClock, ticks under LogicalClock).
	Duration int64 `json:"duration"`
}

// accessLine is AccessRecord with the NDJSON type discriminator.
type accessLine struct {
	Type string `json:"type"`
	AccessRecord
}

// AccessLog writes NDJSON "access" lines, one per request. A nil
// *AccessLog is a valid no-op sink. The log never reads a clock —
// timestamps arrive in the record, already taken by the caller's
// Observer — so attaching or detaching an access log cannot perturb a
// deterministic run's tick stream. Lines go out through Tracer.emit, so
// write errors are sticky and reported by Err, as for a Tracer.
type AccessLog struct {
	out Tracer // only its NDJSON writer is used
}

// NewAccessLog returns an access log writing NDJSON records to w.
func NewAccessLog(w io.Writer) *AccessLog {
	return &AccessLog{out: Tracer{w: w}}
}

// Record writes one access-log line (nil-safe).
func (l *AccessLog) Record(r AccessRecord) {
	if l == nil {
		return
	}
	l.out.emit(accessLine{Type: "access", AccessRecord: r})
}

// Err returns the first write or encoding error the log has hit
// (nil-safe).
func (l *AccessLog) Err() error {
	if l == nil {
		return nil
	}
	return l.out.Err()
}
