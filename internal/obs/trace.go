package obs

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
)

// Tracer writes a structured trace as NDJSON: one JSON object per line,
// each carrying a "type" discriminator ("span" or "ledger"). Spans form a
// tree through parent IDs. A nil *Tracer is a valid no-op sink.
//
// Tracer is safe for concurrent use. Records are written when a span
// ends (not when it starts), so a trace file lists spans in completion
// order; readers reconstruct the tree from the id/parent fields.
type Tracer struct {
	mu    sync.Mutex
	w     io.Writer
	clock Clock
	ids   atomic.Uint64
	err   error
}

// NewTracer returns a tracer writing NDJSON records to w, stamping them
// with clock (nil defaults to WallClock). Write errors are sticky and
// reported by Err, so hot paths never handle I/O failures inline.
func NewTracer(w io.Writer, clock Clock) *Tracer {
	if clock == nil {
		clock = WallClock{}
	}
	return &Tracer{w: w, clock: clock}
}

// Err returns the first write or encoding error the tracer has hit.
func (t *Tracer) Err() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// emit marshals one record to a single NDJSON line, written under the
// tracer's lock; the first marshal or write error is kept and every
// later record is dropped. AccessLog writes through it too.
func (t *Tracer) emit(rec any) {
	b, err := json.Marshal(rec)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	if err != nil {
		t.err = err
		return
	}
	if _, err := t.w.Write(append(b, '\n')); err != nil {
		t.err = err
	}
}

// Span is one timed operation in the trace tree. All methods are
// nil-safe, so instrumented code calls them unconditionally.
//
// A span may be "silent": clock but no tracer. Silent spans consume
// exactly the same clock reads as emitting spans (one at start, one at
// End) but write nothing. They exist for tick parity:
// logical-clock tick streams — and therefore every duration histogram
// fed from Observer.Now — are bit-identical whether tracing is wired or
// not, which is what lets the serve /metrics golden hold with tracing
// on and off.
type Span struct {
	tracer *Tracer
	clock  Clock
	id     uint64
	parent uint64
	trace  string
	name   string
	start  int64
	mu     sync.Mutex
	attrs  map[string]any
	ended  bool
}

// SpanRecord is the NDJSON shape of a completed span (type "span").
type SpanRecord struct {
	Type   string         `json:"type"`
	ID     uint64         `json:"id"`
	Parent uint64         `json:"parent,omitempty"`
	Trace  string         `json:"trace,omitempty"`
	Name   string         `json:"name"`
	Start  int64          `json:"start"`
	End    int64          `json:"end"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// EventRecord is the NDJSON shape of a typed event (type "event"), as
// older traces carry them; readers still decode it.
type EventRecord struct {
	Type   string         `json:"type"`
	Span   uint64         `json:"span,omitempty"`
	TS     int64          `json:"ts"`
	Kind   string         `json:"kind"`
	Fields map[string]any `json:"fields,omitempty"`
}

// StartSpan opens a root span (nil-safe).
func (t *Tracer) StartSpan(name string) *Span {
	return t.startSpan(name, 0, "")
}

// StartRequestSpan opens a root span bound to a request's TraceContext:
// the span record — and every descendant span, via Child — carries the
// 128-bit trace id, which is what joins the server-side span tree to the
// client's traceparent, the ledger's ε charges, and the access log.
// An invalid (zero) TraceContext yields an ordinary untraced root span.
func (t *Tracer) StartRequestSpan(name string, tc TraceContext) *Span {
	return t.startSpan(name, 0, tc.TraceID())
}

func (t *Tracer) startSpan(name string, parent uint64, trace string) *Span {
	if t == nil {
		return nil
	}
	return &Span{
		tracer: t,
		clock:  t.clock,
		id:     t.ids.Add(1),
		parent: parent,
		trace:  trace,
		name:   name,
		start:  t.clock.Now(),
	}
}

// newSilentSpan opens a span with a clock but no tracer: it times
// itself (preserving tick parity with an emitting span) but writes
// nothing and has no id.
func newSilentSpan(clock Clock, name, trace string) *Span {
	return &Span{
		clock: clock,
		trace: trace,
		name:  name,
		start: clock.Now(),
	}
}

// Child opens a sub-span of s (nil-safe: a nil parent yields nil). The
// parent's trace id propagates, so every span under a request span
// joins back to the request.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	if s.tracer == nil {
		return newSilentSpan(s.clock, name, s.trace)
	}
	return s.tracer.startSpan(name, s.id, s.trace)
}

// ID returns the span's trace-unique id (0 for a nil or silent span).
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// TraceID returns the 32-hex-digit trace id of the request this span
// belongs to ("" for a nil span or a span outside any request trace).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.trace
}

// SetAttr attaches a key/value attribute, rendered into the span record
// at End (nil-safe).
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.attrs == nil {
		s.attrs = make(map[string]any)
	}
	s.attrs[key] = value
}

// End closes the span and writes its record. A second End is a no-op,
// as is End on a nil span. A silent span reads the clock exactly like
// an emitting one but writes nothing.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	attrs := s.attrs
	s.mu.Unlock()
	end := s.clock.Now()
	if s.tracer == nil {
		return
	}
	s.tracer.emit(SpanRecord{
		Type:   "span",
		ID:     s.id,
		Parent: s.parent,
		Trace:  s.trace,
		Name:   s.name,
		Start:  s.start,
		End:    end,
		Attrs:  attrs,
	})
}
