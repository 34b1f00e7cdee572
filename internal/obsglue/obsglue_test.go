package obsglue

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/mathx"
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
// file, spend through an observed accountant, Close, then re-read the
// NDJSON artifact and verify the ledger it carries.
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

	var summary bytes.Buffer
	if err := rt.Close(&summary); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"2 release(s)", "laplace", "gaussian", "1 span(s)"} {
		if !strings.Contains(summary.String(), want) {
			t.Fatalf("summary missing %q:\n%s", want, summary.String())
		}
	}

	recs := readLedger(t, path)
	if len(recs) != 2 {
		t.Fatalf("trace file carries %d ledger records, want 2", len(recs))
	}
	if recs[0].Mechanism != "laplace" || recs[0].Seq != 0 || recs[1].Seq != 1 {
		t.Fatalf("ledger records mangled: %+v", recs)
	}
	if err := streamMatches(recs, &acct); err != nil {
		t.Fatal(err)
	}
}

// readLedger reads the ledger lines of a closed trace file back.
func readLedger(t *testing.T, path string) []obs.LedgerRecord {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	data, err := obs.ReadTraceNDJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	return data.Ledger
}

// streamMatches is the offline witness: the streamed ledger lines,
// recomposed with obs.ComposeBasic, must hold the accountant's count
// and composition bit for bit.
func streamMatches(recs []obs.LedgerRecord, acct *mechanism.Accountant) error {
	eps := make([]float64, len(recs))
	del := make([]float64, len(recs))
	for i, r := range recs {
		eps[i], del[i] = r.Epsilon, r.Delta
	}
	e, d := obs.ComposeBasic(eps, del)
	var se, sd mathx.ExactSum
	count := acct.Audit(&se, &sd)
	if ge, gd := se.Float64(), sd.Float64(); len(recs) != count || e != ge || d != gd {
		return fmt.Errorf("stream holds %d line(s) composing to (%.17g, %.17g), accountant %d spend(s) composing to (%.17g, %.17g)",
			len(recs), e, d, count, ge, gd)
	}
	return nil
}

// TestCrossCheckDetectsEscapedRelease makes sure the offline witness is
// not vacuous: the trace's ledger lines, recomposed, match the
// accountant the bridge observed, and a spend that bypasses the bridge
// (the dynamic analogue of an un-accounted release) shows up as a
// difference.
func TestCrossCheckDetectsEscapedRelease(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.ndjson")
	rt, err := Start(Flags{Trace: path})
	if err != nil {
		t.Fatal(err)
	}
	var acct mechanism.Accountant
	acct.SetObserver(func(r mechanism.SpendRecord) { RecordSpend(rt.Ledger, r) })
	acct.Spend(mechanism.Guarantee{Epsilon: 0.5})
	// A second accountant spends without the ledger seeing it.
	var rogue mechanism.Accountant
	rogue.Spend(mechanism.Guarantee{Epsilon: 0.5})
	rogue.Spend(mechanism.Guarantee{Epsilon: 0.5})
	if err := rt.Close(nil); err != nil {
		t.Fatal(err)
	}
	recs := readLedger(t, path)
	if err := streamMatches(recs, &acct); err != nil {
		t.Fatalf("observed accountant: %v", err)
	}
	if err := streamMatches(recs, &rogue); err == nil {
		t.Fatal("the stream should not match an accountant whose spends escaped it")
	}
}

// TestCrossCheckUnderLiveTraffic streams the ledger while two
// goroutines keep spending through the observed accountant: the bridge
// runs under the accountant's lock, so the lines read back carry every
// Seq from 0 in order, with no gap, and recompose to the accountant's
// books bit for bit.
func TestCrossCheckUnderLiveTraffic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.ndjson")
	rt, err := Start(Flags{Trace: path})
	if err != nil {
		t.Fatal(err)
	}
	var acct mechanism.Accountant
	acct.SetObserver(func(r mechanism.SpendRecord) { RecordSpend(rt.Ledger, r) })
	var stop atomic.Bool
	var started, wg sync.WaitGroup
	started.Add(2)
	wg.Add(2)
	for w := 0; w < 2; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				acct.SpendDetail(mechanism.Guarantee{Epsilon: 1e-3 * float64(i%7+1), Delta: 1e-9 * float64(w)},
					mechanism.SpendMeta{Mechanism: "laplace"})
				if i == 0 {
					started.Done()
				}
			}
		}(w)
	}
	started.Wait()
	for acct.Count() < 2000 {
		runtime.Gosched()
	}
	stop.Store(true)
	wg.Wait()
	if err := rt.Close(nil); err != nil {
		t.Fatal(err)
	}
	recs := readLedger(t, path)
	for i, r := range recs {
		if r.Seq != uint64(i) {
			t.Fatalf("line %d carries seq %d: the stream left arrival order", i, r.Seq)
		}
	}
	if err := streamMatches(recs, &acct); err != nil {
		t.Fatal(err)
	}
}

// TestBooksRetainNoHistory pins that the accountant keeps counts and
// exact sums, not a list of spends, and the bridge keeps nothing: 10⁵
// spends through it grow the live heap by far less than one byte per
// spend.
func TestBooksRetainNoHistory(t *testing.T) {
	const spends = 100_000
	led := obs.NewLedger(nil)
	acct := &mechanism.Accountant{}
	acct.SetObserver(func(r mechanism.SpendRecord) { RecordSpend(led, r) })
	before := liveHeap()
	for i := 0; i < spends; i++ {
		acct.SpendDetail(mechanism.Guarantee{Epsilon: 1e-3 * float64(i%7+1)},
			mechanism.SpendMeta{Mechanism: "laplace", Sensitivity: 1, Outcomes: 16})
	}
	after := liveHeap()
	if acct.Count() != spends {
		t.Fatalf("accountant counted %d of %d spends", acct.Count(), spends)
	}
	runtime.KeepAlive(acct)
	runtime.KeepAlive(led)
	grew := int64(after) - int64(before)
	t.Logf("live heap grew %d B over %d spends", grew, spends)
	if grew > 1<<20 {
		t.Fatalf("live heap grew %d B over %d spends, want under 1 MiB", grew, spends)
	}
}

// liveHeap returns the bytes of live heap objects after a full
// collection (two cycles, so pooled objects are dropped too).
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
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
