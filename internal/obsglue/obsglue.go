// Package obsglue wires the observability subsystem (internal/obs,
// which depends only on the standard library and internal/mathx) into
// the command-line binaries: the shared -trace / -metrics-addr / -pprof
// flag surface, the trace-file lifecycle, the accountant→ledger bridge,
// and the post-run trace summary. It exists so that internal/obs has no
// dependency on the mechanism package — the two meet only here, at the
// edge of the process. The bridge only streams: the trace's ledger
// lines, recomposed by the summary Close prints or by dplearn-trace
// -check, are the run's offline witness of its accountant.
package obsglue

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/mechanism"
	"repro/internal/obs"
)

// Flags is the observability CLI surface shared by the dplearn binaries.
type Flags struct {
	// Trace is the NDJSON trace/ledger output path ("" disables tracing).
	Trace string
	// MetricsAddr is the listen address of the opt-in HTTP endpoint
	// serving /metrics and /debug/vars ("" disables it; ":0" picks a
	// free port and the bound address is printed to stderr).
	MetricsAddr string
	// Pprof additionally mounts net/http/pprof under /debug/pprof on the
	// metrics endpoint. It requires MetricsAddr.
	Pprof bool
}

// Register installs the three flags on fs (use flag.CommandLine in main).
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Trace, "trace", "", "write an NDJSON trace + privacy ledger to this file")
	fs.StringVar(&f.MetricsAddr, "metrics-addr", "", "serve /metrics and /debug/vars on this address (e.g. localhost:9090, :0 for a free port)")
	fs.BoolVar(&f.Pprof, "pprof", false, "also serve /debug/pprof on -metrics-addr")
}

// RunContext builds the root context of one CLI run: it cancels on
// SIGINT/SIGTERM and, when timeout > 0, at the deadline. Cancellation
// is the graceful-drain signal — the parallel engine stops claiming
// chunks but finishes claimed ones, sweeps keep their checkpoints, and
// the ledger still flushes on the way out — so a ^C'd run exits
// non-zero with its books balanced rather than mid-write. A second
// SIGINT kills the process immediately (the default handler is
// restored once the context cancels, per signal.NotifyContext).
//
// The returned stop func releases the signal registration and any
// timer; defer it unconditionally.
func RunContext(timeout time.Duration) (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	if timeout <= 0 {
		return ctx, stop
	}
	tctx, cancel := context.WithTimeout(ctx, timeout)
	return tctx, func() {
		cancel()
		stop()
	}
}

// Runtime is the live observability state of one CLI run.
type Runtime struct {
	// Obs is the observer to thread through parallel.Options (and hence
	// core.Config.Parallel / experiments.Options). Nil-safe everywhere,
	// so callers pass it unconditionally.
	Obs *obs.Observer
	// Ledger streams the run's privacy ledger into the trace when
	// tracing is on (a no-op sink otherwise).
	Ledger *obs.Ledger
	// Addr is the bound metrics address ("" when no endpoint is up).
	Addr string

	tracer    *obs.Tracer
	traceFile *os.File
	tracePath string
	stopHTTP  func()
}

// Start opens the trace file, builds the Observer, and starts the HTTP
// endpoint when requested. The observer always uses a LogicalClock:
// durations count instrumentation ticks, not wall time, so a seeded run
// writes the same trace bytes every time and golden outputs survive with
// tracing enabled (see the obs package's determinism contract). Wall-time
// profiles belong to -pprof, which samples real time independently.
func Start(f Flags) (*Runtime, error) {
	if f.Pprof && f.MetricsAddr == "" {
		return nil, fmt.Errorf("obsglue: -pprof requires -metrics-addr")
	}
	rt := &Runtime{}
	clock := &obs.LogicalClock{}
	reg := obs.NewRegistry()
	if f.Trace != "" {
		file, err := os.Create(f.Trace)
		if err != nil {
			return nil, fmt.Errorf("obsglue: trace file: %w", err)
		}
		rt.traceFile = file
		rt.tracePath = f.Trace
		rt.tracer = obs.NewTracer(file, clock)
	}
	rt.Ledger = obs.NewLedger(rt.tracer)
	rt.Obs = &obs.Observer{Tracer: rt.tracer, Metrics: reg, Clock: clock}
	if f.MetricsAddr != "" {
		addr, stop, err := obs.Serve(f.MetricsAddr, reg, f.Pprof)
		if err != nil {
			_ = rt.closeTraceFile() // the listener error supersedes
			return nil, err
		}
		rt.Addr = addr
		rt.stopHTTP = stop
	}
	return rt, nil
}

// RecordSpend is the accountant→ledger bridge: it streams one spend as
// a ledger line. Call it from the observer wired with
// Accountant.SetObserver; the accountant invokes that under its own
// lock, so the lines arrive in Seq order.
func RecordSpend(l *obs.Ledger, r mechanism.SpendRecord) {
	l.Record(obs.LedgerRecord{
		Seq:         r.Seq,
		Mechanism:   r.Meta.Mechanism,
		Sensitivity: r.Meta.Sensitivity,
		Epsilon:     r.Guarantee.Epsilon,
		Delta:       r.Guarantee.Delta,
		Outcomes:    r.Meta.Outcomes,
		Duration:    r.Meta.Duration,
		Span:        r.Meta.Span,
		Trace:       r.Meta.Trace,
	})
}

// Close stops the HTTP endpoint, flushes and closes the trace file, and
// — when a trace was written — re-reads it and renders the TraceSummary
// to w (nil w skips the summary). Safe on a nil Runtime, so callers may
// defer it unconditionally.
func (rt *Runtime) Close(w io.Writer) error {
	if rt == nil {
		return nil
	}
	if rt.stopHTTP != nil {
		rt.stopHTTP()
		rt.stopHTTP = nil
	}
	if err := rt.tracer.Err(); err != nil {
		_ = rt.closeTraceFile() // the sticky write error supersedes
		return fmt.Errorf("obsglue: trace write: %w", err)
	}
	path := rt.tracePath
	if err := rt.closeTraceFile(); err != nil {
		return fmt.Errorf("obsglue: trace close: %w", err)
	}
	if path == "" || w == nil {
		return nil
	}
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("obsglue: trace summary: %w", err)
	}
	defer f.Close() //dplint:ignore errdrop read-only reopen for summarizing; a close error cannot lose data
	s, err := obs.Summarize(f)
	if err != nil {
		return fmt.Errorf("obsglue: trace summary: %w", err)
	}
	return s.Render(w)
}

func (rt *Runtime) closeTraceFile() error {
	if rt.traceFile == nil {
		return nil
	}
	err := rt.traceFile.Close()
	rt.traceFile = nil
	return err
}
