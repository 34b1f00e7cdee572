// Package obs is the library's runtime observability subsystem: a
// structured trace/ledger API, a metrics registry, and exporters
// (Prometheus text exposition, expvar, pprof) — all built on the standard
// library alone, mirroring how the static-analysis framework
// (internal/analysis) re-implements go/analysis without external
// dependencies.
//
// The package is the dynamic counterpart of the acctlint static check:
// where the linter proves at build time that every release *registers*
// its Guarantee, the privacy ledger records at run time what each
// release *actually* leaked (mechanism kind, sensitivity, ε spent,
// outcome domain size, duration), turning the Accountant's ε-spend into
// an auditable signal — the operational analogue of the paper's
// mutual-information accounting of the Ẑ → θ channel (Theorem 4.2).
//
// # Determinism contract
//
// Instrumented hot paths must never read the wall clock directly: every
// timestamp flows through a Clock. In deterministic runs (golden tests,
// seeded experiments) a LogicalClock is injected instead of WallClock,
// so enabling tracing cannot perturb released values — instrumentation
// only ever observes computations, it does not reorder or re-seed them.
// The golden determinism test at the module root pins this: the pipeline
// produces bit-identical output with tracing on and off.
//
// # Wiring
//
// An Observer bundles a Tracer, a metrics Registry, and a Clock, and is
// threaded through parallel.Options (and hence core.Config.Parallel)
// into every hot path. A nil Observer — and a nil Tracer, Span, or
// Ledger — is a valid no-op sink, so library code instruments
// unconditionally and pays a single pointer test when observability is
// off.
package obs

// Observer bundles the three observability sinks that instrumented code
// needs: a Tracer for spans and ledger lines, a Registry for metrics,
// and a Clock for timestamps. Any field may be nil; every method is
// nil-safe on a nil *Observer too, so call sites never branch.
type Observer struct {
	// Tracer receives spans; nil disables tracing.
	Tracer *Tracer
	// Metrics receives counters, gauges, and histograms; nil disables
	// metric collection.
	Metrics *Registry
	// Clock stamps durations fed into ledger records and histograms.
	// Nil falls back to the Tracer's clock, then to no timing (Now
	// returns 0). Deterministic runs inject a LogicalClock.
	Clock Clock
}

// Span starts a root span (nil-safe). With a Tracer the span emits;
// with only a Clock it is silent — it consumes identical clock reads
// but writes nothing — so logical tick streams (and every /metrics
// duration derived from them) are bit-identical with tracing on and
// off. With neither, Span returns nil.
func (o *Observer) Span(name string) *Span {
	if o == nil {
		return nil
	}
	if o.Tracer != nil {
		return o.Tracer.StartSpan(name)
	}
	if o.Clock != nil {
		return newSilentSpan(o.Clock, name, "")
	}
	return nil
}

// RequestSpan starts a root span bound to a request's TraceContext
// (nil-safe; silent when only a Clock is wired, like Span). Descendant
// spans created with Child or StartSpanCtx inherit the trace id.
func (o *Observer) RequestSpan(name string, tc TraceContext) *Span {
	if o == nil {
		return nil
	}
	if o.Tracer != nil {
		return o.Tracer.StartRequestSpan(name, tc)
	}
	if o.Clock != nil {
		return newSilentSpan(o.Clock, name, tc.TraceID())
	}
	return nil
}

// Now reads the observer's clock (nil-safe; 0 when no clock is wired).
func (o *Observer) Now() int64 {
	if o == nil {
		return 0
	}
	if o.Clock != nil {
		return o.Clock.Now()
	}
	if o.Tracer != nil && o.Tracer.clock != nil {
		return o.Tracer.clock.Now()
	}
	return 0
}

// Reg returns the observer's metrics registry, or nil (nil-safe).
func (o *Observer) Reg() *Registry {
	if o == nil {
		return nil
	}
	return o.Metrics
}
