package dplearn

// Golden determinism test: the parallel fan-out engine promises
// bit-for-bit identical results for every Workers setting (see package
// parallel's determinism contract). This test runs the full pipeline —
// Fit, Certify, risk grid, and the Figure-1 information account
// (channel sums + Blahut–Arimoto capacity) — at several worker counts
// and compares every released float by its exact bit pattern.

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/channel"
	"repro/internal/checkpoint"
	"repro/internal/experiments"
	"repro/internal/learn"
	"repro/internal/mechanism"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/serve"
)

// goldenRun is the bit-level snapshot of one pipeline execution.
type goldenRun struct {
	fitIndex int
	fitTheta []uint64
	risks    []uint64
	cert     []uint64
	account  []uint64
}

func float64Bits(vs ...float64) []uint64 {
	out := make([]uint64, len(vs))
	for i, v := range vs {
		out[i] = math.Float64bits(v)
	}
	return out
}

func bitsEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// goldenPipeline executes the full pipeline with the given worker count
// and snapshots every output. Each call rebuilds its own sample space
// and RNG, so runs are independent and comparable.
func goldenPipeline(t *testing.T, workers int) goldenRun {
	t.Helper()
	return goldenPipelineOpts(t, parallel.Options{Workers: workers})
}

// goldenPipelineOpts is goldenPipeline with full fan-out options, so the
// tracing test can attach an Observer and prove instrumentation never
// changes a single released bit.
func goldenPipelineOpts(t *testing.T, opts parallel.Options) goldenRun {
	t.Helper()
	n := 8
	inputs, logPX := channel.CountSampleSpace(n, 0.5)
	for _, d := range inputs {
		for i := range d.Examples {
			d.Examples[i].Y = d.Examples[i].X[0]
		}
	}
	loss := learn.NewClippedLoss(learn.AbsoluteLoss{}, 1)
	grid := [][]float64{{0}, {0.25}, {0.5}, {0.75}, {1}}
	learner, err := NewLearner(Config{
		Loss:     loss,
		Thetas:   grid,
		Epsilon:  2,
		Parallel: opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	train := inputs[len(inputs)/2]
	fit, err := learner.Fit(train, NewRNG(42))
	if err != nil {
		t.Fatal(err)
	}
	cert, err := learner.Certify(train)
	if err != nil {
		t.Fatal(err)
	}
	est, err := learner.Estimator(n)
	if err != nil {
		t.Fatal(err)
	}
	risks := est.Risks(train)
	acct, err := learner.AccountInformation(inputs, logPX)
	if err != nil {
		t.Fatal(err)
	}
	return goldenRun{
		fitIndex: fit.Index,
		fitTheta: float64Bits(fit.Theta...),
		risks:    float64Bits(risks...),
		cert: float64Bits(cert.Privacy.Epsilon, cert.Lambda, cert.RiskBound,
			cert.Delta, cert.ExpEmpRisk, cert.KL),
		account: float64Bits(acct.MutualInformation, acct.Capacity,
			acct.DPCap, acct.ExpectedRisk),
	}
}

// TestGoldenDeterminismAcrossWorkers pins the determinism contract:
// Workers ∈ {1, 2, 7, GOMAXPROCS} must produce byte-identical fits,
// certificates, risk grids, and information accounts for a fixed seed.
func TestGoldenDeterminismAcrossWorkers(t *testing.T) {
	ref := goldenPipeline(t, 1)
	for _, workers := range []int{2, 7, runtime.GOMAXPROCS(0)} {
		got := goldenPipeline(t, workers)
		if got.fitIndex != ref.fitIndex {
			t.Errorf("workers=%d: fit index %d != %d", workers, got.fitIndex, ref.fitIndex)
		}
		if !bitsEqual(got.fitTheta, ref.fitTheta) {
			t.Errorf("workers=%d: fit theta bits differ", workers)
		}
		if !bitsEqual(got.risks, ref.risks) {
			t.Errorf("workers=%d: risk grid bits differ", workers)
		}
		if !bitsEqual(got.cert, ref.cert) {
			t.Errorf("workers=%d: certificate bits differ", workers)
		}
		if !bitsEqual(got.account, ref.account) {
			t.Errorf("workers=%d: information account bits differ", workers)
		}
	}
}

// TestGoldenDeterminismRepeatedRuns guards against hidden global state:
// the same configuration run twice (same worker count) must reproduce
// the exact bits, including through the risk cache (second Certify on a
// shared learner hits the cache; its certificate must equal the cold
// one bit-for-bit).
func TestGoldenDeterminismRepeatedRuns(t *testing.T) {
	a := goldenPipeline(t, 2)
	b := goldenPipeline(t, 2)
	if a.fitIndex != b.fitIndex || !bitsEqual(a.fitTheta, b.fitTheta) ||
		!bitsEqual(a.risks, b.risks) || !bitsEqual(a.cert, b.cert) ||
		!bitsEqual(a.account, b.account) {
		t.Fatal("identical configurations produced different bits")
	}

	n := 8
	inputs, _ := channel.CountSampleSpace(n, 0.5)
	for _, d := range inputs {
		for i := range d.Examples {
			d.Examples[i].Y = d.Examples[i].X[0]
		}
	}
	loss := learn.NewClippedLoss(learn.AbsoluteLoss{}, 1)
	learner, err := NewLearner(Config{
		Loss:    loss,
		Thetas:  [][]float64{{0}, {0.25}, {0.5}, {0.75}, {1}},
		Epsilon: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	train := inputs[len(inputs)/2]
	cold, err := learner.Certify(train)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := learner.Certify(train) // risk cache hit
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(
		float64Bits(cold.RiskBound, cold.ExpEmpRisk, cold.KL),
		float64Bits(warm.RiskBound, warm.ExpEmpRisk, warm.KL),
	) {
		t.Fatal("cached Certify differs from cold Certify")
	}
}

// TestGoldenDeterminismWithTracing pins the observability half of the
// determinism contract: running the full pipeline with a live Tracer,
// metrics Registry, and LogicalClock attached must reproduce the exact
// bits of the uninstrumented run — instrumentation observes, it never
// perturbs. It also checks the trace actually recorded something, so the
// test cannot pass vacuously with a disconnected observer.
func TestGoldenDeterminismWithTracing(t *testing.T) {
	ref := goldenPipeline(t, 4)
	var buf bytes.Buffer
	clock := &obs.LogicalClock{}
	o := &obs.Observer{
		Tracer:  obs.NewTracer(&buf, clock),
		Metrics: obs.NewRegistry(),
		Clock:   clock,
	}
	got := goldenPipelineOpts(t, parallel.Options{Workers: 4, Obs: o})
	if got.fitIndex != ref.fitIndex || !bitsEqual(got.fitTheta, ref.fitTheta) ||
		!bitsEqual(got.risks, ref.risks) || !bitsEqual(got.cert, ref.cert) ||
		!bitsEqual(got.account, ref.account) {
		t.Fatal("tracing changed released bits")
	}
	if buf.Len() == 0 {
		t.Fatal("observer attached but trace is empty")
	}
	if err := o.Tracer.Err(); err != nil {
		t.Fatalf("tracer error: %v", err)
	}
}

// ledgerRun drives a batch of concurrent spends through a shared
// accountant whose observer streams a ledger line per spend into a
// trace, under the parallel engine with the given worker count, and
// returns the accountant and the lines read back from the stream.
func ledgerRun(workers int) (acct *mechanism.Accountant, lines []obs.LedgerRecord) {
	acct = &mechanism.Accountant{}
	var buf bytes.Buffer
	led := obs.NewLedger(obs.NewTracer(&buf, &obs.LogicalClock{}))
	acct.SetObserver(func(r mechanism.SpendRecord) {
		led.Record(obs.LedgerRecord{
			Seq:         r.Seq,
			Mechanism:   r.Meta.Mechanism,
			Sensitivity: r.Meta.Sensitivity,
			Epsilon:     r.Guarantee.Epsilon,
			Delta:       r.Guarantee.Delta,
			Outcomes:    r.Meta.Outcomes,
			Duration:    r.Meta.Duration,
			Span:        r.Meta.Span,
		})
	})
	// 101 spends with unequal ε values: Kahan-summing them in different
	// arrival orders WOULD give different low bits, so this detects any
	// regression to arrival-order composition.
	parallel.ForGrain(101, 1, parallel.Options{Workers: workers}, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			acct.SpendDetail(
				mechanism.Guarantee{Epsilon: 1e-3 * float64(i%7+1), Delta: 1e-9 * float64(i%3)},
				mechanism.SpendMeta{Mechanism: "laplace", Sensitivity: 1, Outcomes: 1},
			)
		}
	})
	return acct, readLines(&buf)
}

// readLines reads a trace stream's ledger lines back.
func readLines(buf *bytes.Buffer) []obs.LedgerRecord {
	data, err := obs.ReadTraceNDJSON(buf)
	if err != nil {
		panic(err)
	}
	return data.Ledger
}

// composeLines recomposes streamed ledger lines with obs.ComposeBasic.
func composeLines(lines []obs.LedgerRecord) (epsilon, delta float64) {
	eps := make([]float64, len(lines))
	del := make([]float64, len(lines))
	for i, l := range lines {
		eps[i], del[i] = l.Epsilon, l.Delta
	}
	return obs.ComposeBasic(eps, del)
}

// TestLedgerMatchesAccountantAcrossWorkers pins satellite invariants of
// the privacy ledger: for every worker count, the stream carries
// exactly Accountant.Count() lines, their canonical composed (ε, δ)
// equals Accountant.BasicComposition bit-for-bit, and the composed
// value is bit-identical between serial and 8-worker runs even though
// the spend arrival order differs.
func TestLedgerMatchesAccountantAcrossWorkers(t *testing.T) {
	refAcct, _ := ledgerRun(1)
	refG := refAcct.BasicComposition()
	for _, workers := range []int{1, 8} {
		acct, lines := ledgerRun(workers)
		if len(lines) != acct.Count() {
			t.Fatalf("workers=%d: stream has %d lines, accountant %d spends", workers, len(lines), acct.Count())
		}
		le, ld := composeLines(lines)
		g := acct.BasicComposition()
		if !bitsEqual(float64Bits(le, ld), float64Bits(g.Epsilon, g.Delta)) {
			t.Errorf("workers=%d: stream composed (%.17g, %.17g) != accountant (%.17g, %.17g)",
				workers, le, ld, g.Epsilon, g.Delta)
		}
		if !bitsEqual(float64Bits(g.Epsilon, g.Delta), float64Bits(refG.Epsilon, refG.Delta)) {
			t.Errorf("workers=%d: composed guarantee bits differ from serial run", workers)
		}
		// Seq numbers must be a total order 0..n−1 that the observer,
		// called under the accountant's lock, streams in sequence.
		checkSeqs(t, workers, lines, acct.Count())
	}
}

// checkSeqs asserts that the stream carries exactly the sequence
// numbers 0..count−1, in order.
func checkSeqs(t *testing.T, workers int, lines []obs.LedgerRecord, count int) {
	t.Helper()
	if len(lines) != count {
		t.Fatalf("workers=%d: stream carries %d spends, accountant %d", workers, len(lines), count)
	}
	for i, l := range lines {
		if l.Seq != uint64(i) {
			t.Fatalf("workers=%d: spend %d has seq %d", workers, i, l.Seq)
		}
	}
}

// renderTable flattens a table to bytes for bit-level comparison.
func renderTable(t *testing.T, tab *experiments.Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenDeterminismCheckpointResume extends the determinism contract
// to the checkpoint/resume path: an experiment run with a checkpoint
// log, then resumed from that log (recomputing nothing), must reproduce
// the plain run's table byte-for-byte — even when the resumed run uses a
// different worker count than the run that wrote the log.
func TestGoldenDeterminismCheckpointResume(t *testing.T) {
	opts := experiments.Options{Seed: 42, Quick: true, Workers: 1}
	ref, err := experiments.Run("E10", opts)
	if err != nil {
		t.Fatal(err)
	}
	refBytes := renderTable(t, ref)

	path := filepath.Join(t.TempDir(), "E10.ndjson")
	ck, err := checkpoint.Open(path, false)
	if err != nil {
		t.Fatal(err)
	}
	ckOpts := opts
	ckOpts.Checkpoint = ck
	first, err := experiments.Run("E10", ckOpts)
	if err != nil {
		t.Fatal(err)
	}
	cells := ck.Len()
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
	if cells == 0 {
		t.Fatal("checkpointed run recorded no cells")
	}
	if !bytes.Equal(renderTable(t, first), refBytes) {
		t.Fatal("checkpointed run's table differs from the plain run")
	}

	ck2, err := checkpoint.Open(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer ck2.Close()
	resumed := opts
	resumed.Workers = 8
	resumed.Checkpoint = ck2
	second, err := experiments.Run("E10", resumed)
	if err != nil {
		t.Fatal(err)
	}
	if ck2.Len() != cells {
		t.Fatalf("resume recomputed cells: log grew from %d to %d entries", cells, ck2.Len())
	}
	if !bytes.Equal(renderTable(t, second), refBytes) {
		t.Fatal("resumed run's table differs from the plain run")
	}
}

// budgetedLedgerRun drives concurrent two-phase spends against a
// budget-capped accountant under the parallel engine: each worker
// reserves, commits what the budget admits, and releases the rest. It
// returns the accountant and the ledger lines its observer streamed.
func budgetedLedgerRun(workers int) (acct *mechanism.Accountant, lines []obs.LedgerRecord) {
	acct = &mechanism.Accountant{}
	if err := acct.SetBudget(mechanism.Guarantee{Epsilon: 0.05}); err != nil {
		panic(err)
	}
	var buf bytes.Buffer
	led := obs.NewLedger(obs.NewTracer(&buf, &obs.LogicalClock{}))
	acct.SetObserver(func(r mechanism.SpendRecord) {
		led.Record(obs.LedgerRecord{Seq: r.Seq, Mechanism: r.Meta.Mechanism,
			Epsilon: r.Guarantee.Epsilon, Delta: r.Guarantee.Delta})
	})
	parallel.ForGrain(101, 1, parallel.Options{Workers: workers}, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			res, err := acct.Reserve(mechanism.Guarantee{Epsilon: 1e-3 * float64(i%7+1)})
			if err != nil {
				continue // denied: the budget is the arbiter, not the schedule
			}
			res.Commit(mechanism.SpendMeta{Mechanism: "laplace", Sensitivity: 1, Outcomes: 1})
			res.Release() // no-op after Commit (the defer idiom)
		}
	})
	return acct, readLines(&buf)
}

// TestBudgetedLedgerMatchesAccountant pins the budget-enforcement
// half of the ledger contract: with a cap that denies most of the
// concurrent reservations, every committed spend still lands in the
// streamed ledger, the lines' composed (ε, δ) matches
// Accountant.BasicComposition bit-for-bit, stays within the budget, and
// no reservation leaks. Which spends are admitted may differ between
// worker counts (admission is arrival-order under contention) — the
// invariants may not.
func TestBudgetedLedgerMatchesAccountant(t *testing.T) {
	for _, workers := range []int{1, 8} {
		acct, lines := budgetedLedgerRun(workers)
		if len(lines) != acct.Count() {
			t.Fatalf("workers=%d: stream has %d lines, accountant %d spends", workers, len(lines), acct.Count())
		}
		if acct.Count() == 0 {
			t.Fatalf("workers=%d: budget admitted nothing", workers)
		}
		if acct.Reserved() != 0 {
			t.Fatalf("workers=%d: %d reservation(s) leaked", workers, acct.Reserved())
		}
		le, ld := composeLines(lines)
		g := acct.BasicComposition()
		if !bitsEqual(float64Bits(le, ld), float64Bits(g.Epsilon, g.Delta)) {
			t.Errorf("workers=%d: stream composed (%.17g, %.17g) != accountant (%.17g, %.17g)",
				workers, le, ld, g.Epsilon, g.Delta)
		}
		if g.Epsilon > 0.05 {
			t.Errorf("workers=%d: composed ε=%.17g exceeds the 0.05 budget", workers, g.Epsilon)
		}
		checkSeqs(t, workers, lines, acct.Count())
	}
}

// recoveryMetrics scrapes /metrics and keeps the dplearn_serve_ and
// dplearn_wal_ families — the surface that must be a pure function of
// the WAL content, independent of the recovered server's worker count.
func recoveryMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var keep []string
	for _, line := range strings.Split(string(b), "\n") {
		if strings.Contains(line, "dplearn_serve_") || strings.Contains(line, "dplearn_wal_") {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "\n") + "\n"
}

// TestRecoveryDeterminismAcrossWorkers builds one write-ahead privacy
// ledger — committed releases, then a stranded reserve and a torn final
// commit in the older reserve/commit format, the signature of a process
// killed mid-request — then recovers it at Workers=1 and Workers=8.
// Alpha must recover exactly its committed fits: the stranded reserve
// and the torn commit charge nothing. Recovery replay is
// single-threaded by construction, so both boots must rebuild the
// identical accountant state (composition compared by bit pattern) and
// expose byte-identical dplearn_serve_ / dplearn_wal_ metric families.
func TestRecoveryDeterminismAcrossWorkers(t *testing.T) {
	tenants := []serve.TenantConfig{
		{ID: "alpha", Budget: mechanism.Guarantee{Epsilon: 8}},
		{ID: "beta", Budget: mechanism.Guarantee{Epsilon: 4}},
	}
	freshObs := func() *obs.Observer {
		return &obs.Observer{Metrics: obs.NewRegistry(), Clock: &obs.LogicalClock{}}
	}
	post := func(ts *httptest.Server, path string, payload any, key string) (*http.Response, []byte) {
		t.Helper()
		b, err := json.Marshal(payload)
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPost, ts.URL+path, bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if key != "" {
			req.Header.Set("Idempotency-Key", key)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}

	// Phase 1: write the WAL with a fixed request script.
	seedDir := t.TempDir()
	s, err := serve.New(serve.Config{Tenants: tenants, Observer: freshObs(), WALDir: seedDir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	data := serve.DataJSON{X: [][]float64{{0.2, -0.4}, {-0.6, 0.8}, {0.1, 0.3}, {0.5, -0.9}},
		Y: []float64{1, -1, 1, -1}}
	for i, tenant := range []string{"alpha", "beta", "alpha"} {
		resp, body := post(ts, "/v1/fit", serve.FitRequest{Tenant: tenant, Seed: int64(20 + i), Data: data},
			"det-"+tenant+string(rune('0'+i)))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("fit %d: HTTP %d: %s", i, resp.StatusCode, body)
		}
	}
	if resp, body := post(ts, "/v1/summary", serve.SummaryRequest{Tenant: "beta", Seed: 5, Feature: 0,
		Lo: -1, Hi: 1, Quantiles: []float64{0.5}, Epsilon: 0.25, Data: data}, ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("summary: HTTP %d: %s", resp.StatusCode, body)
	}
	seedAlpha, _ := s.Tenants().Get("alpha")
	alphaComp := seedAlpha.Acct.BasicComposition()
	alphaBooks := float64Bits(alphaComp.Epsilon, alphaComp.Delta)
	ts.Close()
	s.CloseWALs()

	// A killed writer leaves work in flight: a stranded reserve and a
	// torn final line, neither of which may charge.
	alphaWAL := filepath.Join(seedDir, "alpha.wal")
	f, err := os.OpenFile(alphaWAL, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"reserve","lsn":9999,"key":"stranded","endpoint":"fit","seed":77,"epsilon":0.5}` + "\n" +
		`{"op":"commit","lsn":10000,"ref":9999,"charges":[{"eps`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	seedWALs := map[string][]byte{}
	for _, id := range []string{"alpha", "beta"} {
		b, err := os.ReadFile(filepath.Join(seedDir, id+".wal"))
		if err != nil {
			t.Fatal(err)
		}
		seedWALs[id] = b
	}

	// Phase 2: recover the identical WAL bytes at each worker count.
	type recovered struct {
		comp    map[string][]uint64
		metrics string
	}
	runs := map[int]recovered{}
	for _, workers := range []int{1, 8} {
		dir := t.TempDir()
		for id, b := range seedWALs {
			if err := os.WriteFile(filepath.Join(dir, id+".wal"), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s, err := serve.New(serve.Config{Tenants: tenants, Observer: freshObs(), WALDir: dir, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: recovery boot: %v", workers, err)
		}
		ts := httptest.NewServer(s.Handler())
		r := recovered{comp: map[string][]uint64{}, metrics: recoveryMetrics(t, ts.URL)}
		for _, tn := range s.Tenants().Tenants() {
			g := tn.Acct.BasicComposition()
			r.comp[tn.ID] = float64Bits(g.Epsilon, g.Delta)
			if tn.Acct.Count() == 0 {
				t.Fatalf("workers=%d: tenant %s recovered nothing", workers, tn.ID)
			}
			if _, _, err := tn.CrossCheck(true); err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
		}
		for _, rep := range s.RecoveryReports() {
			if rep.Tenant == "alpha" && (rep.Commits != 2 || rep.RestoredKeys != 2) {
				t.Fatalf("workers=%d: alpha recovered %d commit(s) and %d key(s), want its 2 committed fits", workers, rep.Commits, rep.RestoredKeys)
			}
		}
		alpha, _ := s.Tenants().Get("alpha")
		if !bitsEqual(r.comp["alpha"], alphaBooks) || alpha.Acct.Count() != 2 {
			t.Fatalf("workers=%d: alpha recovered %d spend(s) composing to bits %v, want its 2 committed fits composing to %v",
				workers, alpha.Acct.Count(), r.comp["alpha"], alphaBooks)
		}
		ts.Close()
		s.CloseWALs()
		runs[workers] = r
	}

	ref := runs[1]
	got := runs[8]
	for id, want := range ref.comp {
		if !bitsEqual(got.comp[id], want) {
			t.Errorf("tenant %s: recovered composition bits differ between Workers=1 and Workers=8", id)
		}
	}
	if ref.metrics != got.metrics {
		t.Errorf("recovered metric families differ between Workers=1 and Workers=8:\n--- workers=1\n%s\n--- workers=8\n%s",
			ref.metrics, got.metrics)
	}
}
