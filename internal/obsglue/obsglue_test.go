package obsglue

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/mechanism"
	"repro/internal/obs"
)

// TestFlagsRegister checks the shared flag surface parses the canonical
// invocation.
func TestFlagsRegister(t *testing.T) {
	var f Flags
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f.Register(fs)
	if err := fs.Parse([]string{"-trace", "out.ndjson", "-metrics-addr", ":0", "-pprof"}); err != nil {
		t.Fatal(err)
	}
	if f.Trace != "out.ndjson" || f.MetricsAddr != ":0" || !f.Pprof {
		t.Fatalf("flags not bound: %+v", f)
	}
}

// TestPprofRequiresMetricsAddr pins the opt-in rule: profiling is never
// exposed without an explicitly chosen listen address.
func TestPprofRequiresMetricsAddr(t *testing.T) {
	if _, err := Start(Flags{Pprof: true}); err == nil {
		t.Fatal("Start should reject -pprof without -metrics-addr")
	}
}

// TestRuntimeEndToEnd drives the full CLI glue path: Start with a trace
// file, spend through an observed accountant, cross-check, Close, then
// re-read the NDJSON artifact and verify the ledger it carries.
func TestRuntimeEndToEnd(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.ndjson")
	rt, err := Start(Flags{Trace: path})
	if err != nil {
		t.Fatal(err)
	}

	var acct mechanism.Accountant
	acct.SetObserver(func(r mechanism.SpendRecord) { RecordSpend(rt.Ledger, r) })
	acct.SpendDetail(mechanism.Guarantee{Epsilon: 0.5}, mechanism.SpendMeta{Mechanism: "laplace", Sensitivity: 2, Outcomes: 16})
	acct.SpendDetail(mechanism.Guarantee{Epsilon: 0.25, Delta: 1e-9}, mechanism.SpendMeta{Mechanism: "gaussian", Sensitivity: 0.1})
	sp := rt.Obs.Span("fit")
	sp.End()

	if err := CrossCheck(rt.Ledger, &acct); err != nil {
		t.Fatalf("cross-check failed on a consistent run: %v", err)
	}

	var summary bytes.Buffer
	if err := rt.Close(&summary); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"2 release(s)", "laplace", "gaussian", "1 span(s)"} {
		if !strings.Contains(summary.String(), want) {
			t.Fatalf("summary missing %q:\n%s", want, summary.String())
		}
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	data, err := obs.ReadTraceNDJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	recs := data.Ledger
	if len(recs) != 2 {
		t.Fatalf("trace file carries %d ledger records, want 2", len(recs))
	}
	if recs[0].Mechanism != "laplace" || recs[0].Seq != 0 || recs[1].Seq != 1 {
		t.Fatalf("ledger records mangled: %+v", recs)
	}
	eps := make([]float64, len(recs))
	del := make([]float64, len(recs))
	for i, r := range recs {
		eps[i], del[i] = r.Epsilon, r.Delta
	}
	e, d := obs.ComposeBasic(eps, del)
	g := acct.BasicComposition()
	if e != g.Epsilon || d != g.Delta {
		t.Fatalf("file ledger (%g,%g) != accountant (%g,%g)", e, d, g.Epsilon, g.Delta)
	}
}

// TestCrossCheckDetectsEscapedRelease makes sure the cross-check is not
// vacuous: a spend that bypasses the observed accountant (the dynamic
// analogue of an un-accounted release) must fail it.
func TestCrossCheckDetectsEscapedRelease(t *testing.T) {
	rt, err := Start(Flags{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := rt.Close(nil); err != nil {
			t.Fatal(err)
		}
	}()
	var acct mechanism.Accountant
	acct.SetObserver(func(r mechanism.SpendRecord) { RecordSpend(rt.Ledger, r) })
	acct.Spend(mechanism.Guarantee{Epsilon: 0.5})
	// A second accountant spends without the ledger seeing it.
	var rogue mechanism.Accountant
	rogue.Spend(mechanism.Guarantee{Epsilon: 0.5})
	rogue.Spend(mechanism.Guarantee{Epsilon: 0.5})
	if err := CrossCheck(rt.Ledger, &rogue); err == nil {
		t.Fatal("cross-check should fail when counts differ")
	}
}

// TestStartServesMetrics checks the -metrics-addr path binds a real
// listener and reports the bound address.
func TestStartServesMetrics(t *testing.T) {
	rt, err := Start(Flags{MetricsAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Addr == "" {
		t.Fatal("Start did not report the bound address")
	}
	if err := rt.Close(nil); err != nil {
		t.Fatal(err)
	}
}

// TestRunContextTimeout pins the -timeout path: the context expires on
// its own and reports DeadlineExceeded.
func TestRunContextTimeout(t *testing.T) {
	ctx, stop := RunContext(30 * time.Millisecond)
	defer stop()
	select {
	case <-ctx.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("timeout context never expired")
	}
	if !errors.Is(ctx.Err(), context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", ctx.Err())
	}
}

// TestRunContextNoTimeout pins that a zero timeout means no deadline.
func TestRunContextNoTimeout(t *testing.T) {
	ctx, stop := RunContext(0)
	defer stop()
	if _, ok := ctx.Deadline(); ok {
		t.Fatal("zero timeout set a deadline")
	}
	select {
	case <-ctx.Done():
		t.Fatalf("context done immediately: %v", ctx.Err())
	default:
	}
	stop()
	if ctx.Err() == nil {
		t.Fatal("stop did not cancel the context")
	}
}

// TestRunContextSIGINT pins the graceful-drain signal path: a SIGINT
// cancels the run context instead of killing the process.
func TestRunContextSIGINT(t *testing.T) {
	ctx, stop := RunContext(0)
	defer stop()
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ctx.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("SIGINT did not cancel the run context")
	}
	if !errors.Is(ctx.Err(), context.Canceled) {
		t.Fatalf("want Canceled, got %v", ctx.Err())
	}
}
