package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/mechanism"
	"repro/internal/obs"
	"repro/internal/wal"
)

// postKeyed posts body with an Idempotency-Key header.
func postKeyed(t *testing.T, url string, body any, key string) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Idempotency-Key", key)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, out
}

// readWALRecords opens the WAL read-only-in-spirit (Open repairs the
// tail, which is what a recovering server would do anyway) and returns
// the surviving records. Only call it when no server holds the file.
func readWALRecords(t *testing.T, path string) []wal.Record {
	t.Helper()
	l, recs, err := wal.Open(path)
	if err != nil {
		t.Fatalf("wal.Open(%s): %v", path, err)
	}
	l.Close()
	return recs
}

// commitsForKey returns the commit records carrying the given
// idempotency key: the commit's own, or — in a log written before
// commits carried their intent — that of the reserve its Ref names.
func commitsForKey(recs []wal.Record, key string) []wal.Record {
	reserveKeys := make(map[uint64]string)
	var out []wal.Record
	for _, r := range recs {
		switch r.Op {
		case wal.OpReserve:
			reserveKeys[r.LSN] = r.Key
		case wal.OpCommit:
			if r.Key == key || r.Key == "" && reserveKeys[r.Ref] == key {
				out = append(out, r)
			}
		}
	}
	return out
}

// composedOf recomposes a charge multiset canonically.
func composedOf(charges []wal.Charge) (float64, float64) {
	eps := make([]float64, len(charges))
	del := make([]float64, len(charges))
	for i, c := range charges {
		eps[i], del[i] = c.Epsilon, c.Delta
	}
	return obs.ComposeBasic(eps, del)
}

// walTenant is the single-tenant config the battery uses throughout.
func walTenant(budget float64) []TenantConfig {
	return []TenantConfig{{ID: "alpha", Budget: mechanism.Guarantee{Epsilon: budget}}}
}

func getAlpha(t *testing.T, s *Server) *Tenant {
	t.Helper()
	tn, ok := s.Tenants().Get("alpha")
	if !ok {
		t.Fatal("tenant alpha missing")
	}
	return tn
}

// TestWALRecoveryRoundTrip serves keyed traffic against a WAL, restarts
// onto the same directory, and proves the rebuilt accountant matches
// the pre-restart books bit for bit — and that a key settled before the
// restart replays its exact bytes afterwards without a second charge.
func TestWALRecoveryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	data := testData(3, 24, 2)

	s1, ts1 := newTestService(t, Config{Tenants: walTenant(10), WALDir: dir})
	var bodies [][]byte
	for i := 0; i < 3; i++ {
		resp, body := postKeyed(t, ts1.URL+"/v1/fit",
			FitRequest{Tenant: "alpha", Seed: int64(100 + i), Data: data}, "rt-"+string(rune('a'+i)))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("fit %d: HTTP %d: %s", i, resp.StatusCode, body)
		}
		bodies = append(bodies, body)
	}
	// One keyless request too: durability must not depend on the key.
	if resp, body := postJSON(t, ts1.URL+"/v1/summary", SummaryRequest{
		Tenant: "alpha", Seed: 9, Feature: 0, Lo: -1, Hi: 1,
		Quantiles: []float64{0.5}, Epsilon: 0.3, Data: data,
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("summary: HTTP %d: %s", resp.StatusCode, body)
	}
	before := getAlpha(t, s1).Acct.BasicComposition()
	count := getAlpha(t, s1).Acct.Count()
	ts1.Close()
	s1.CloseWALs()

	s2, ts2 := newTestService(t, Config{Tenants: walTenant(10), WALDir: dir})
	tn := getAlpha(t, s2)
	after := tn.Acct.BasicComposition()
	//dplint:ignore floateq bit-exact recovery is the audited property
	if after.Epsilon != before.Epsilon || after.Delta != before.Delta {
		t.Fatalf("recovered composition (%.17g, %.17g) != pre-restart (%.17g, %.17g)",
			after.Epsilon, after.Delta, before.Epsilon, before.Delta)
	}
	if got := tn.Acct.Count(); got != count {
		t.Fatalf("recovered %d spend(s), want %d", got, count)
	}
	reps := s2.RecoveryReports()
	if len(reps) != 1 || reps[0].Tenant != "alpha" || reps[0].Commits != 4 || reps[0].RestoredKeys != 3 {
		t.Fatalf("recovery report %+v, want 4 commits and 3 restored keys for alpha", reps)
	}

	// A settled key replays across the restart: exact bytes, marker
	// header, zero new charge.
	resp, body := postKeyed(t, ts2.URL+"/v1/fit",
		FitRequest{Tenant: "alpha", Seed: 100, Data: data}, "rt-a")
	if resp.StatusCode != http.StatusOK || resp.Header.Get(replayedHeader) != "true" {
		t.Fatalf("replay: HTTP %d, %s=%q", resp.StatusCode, replayedHeader, resp.Header.Get(replayedHeader))
	}
	if !bytes.Equal(body, bodies[0]) {
		t.Fatalf("replayed body differs:\n got %s\nwant %s", body, bodies[0])
	}
	post := tn.Acct.BasicComposition()
	//dplint:ignore floateq a replay must charge exactly nothing
	if post.Epsilon != after.Epsilon {
		t.Fatalf("replay charged ε: %.17g -> %.17g", after.Epsilon, post.Epsilon)
	}
	checkBooks(t, tn)

	// A charge committed straight on the accountant, outside the durable
	// envelope, fails the quiescent audit as the difference between the
	// books: one charge of exactly its ε, although the two rounded
	// compositions differ by another float.
	onLog := tn.Acct.BasicComposition()
	tn.Acct.Spend(mechanism.Guarantee{Epsilon: 0.25})
	if diff := tn.Acct.BasicComposition().Epsilon - onLog.Epsilon; diff == 0.25 {
		t.Fatalf("the rounded compositions differ by exactly 0.25, so this history cannot tell an exact difference from a rounded one")
	}
	want := "1 charge(s) (ε 0.25, δ 0) on the accountant are missing from the write-ahead log"
	if _, _, err := tn.CrossCheck(true); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("audit after a charge outside the envelope: %v; want %q", err, want)
	}
	ts2.Close()
	s2.CloseWALs()

	// The WAL itself recomposes to the recovered accountant bit for bit.
	st := wal.Replay(readWALRecords(t, filepath.Join(dir, "alpha.wal")))
	ce, cd := composedOf(st.Charges())
	//dplint:ignore floateq bit-exact WAL-vs-accountant agreement is the audited property
	if ce != after.Epsilon || cd != after.Delta {
		t.Fatalf("WAL composes to (%.17g, %.17g), accountant to (%.17g, %.17g)", ce, cd, after.Epsilon, after.Delta)
	}
}

// TestWALRecoveryRefusesDecreasingLSN boots two tenants whose second
// log holds a record with an LSN below its predecessor's, which no
// writer of the log produces: the boot fails with an error naming that
// tenant, and the log of the healthy tenant, which recovery opened, is
// closed again.
func TestWALRecoveryRefusesDecreasingLSN(t *testing.T) {
	dir := t.TempDir()
	commit := func(lsn int, eps float64) string {
		return fmt.Sprintf(`{"op":"commit","lsn":%d,"endpoint":"summary","epsilon":%g,"status":200,"charges":[{"mechanism":"summary","epsilon":%g}]}`+"\n", lsn, eps, eps)
	}
	for id, log := range map[string]string{"alpha": commit(1, 0.3) + commit(2, 0.1), "beta": commit(2, 0.3) + commit(1, 0.1)} {
		if err := os.WriteFile(filepath.Join(dir, id+".wal"), []byte(log), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	tenants := []TenantConfig{{ID: "alpha", Budget: mechanism.Guarantee{Epsilon: 10}}, {ID: "beta", Budget: mechanism.Guarantee{Epsilon: 10}}}
	s, err := New(Config{Tenants: tenants, Observer: testObserver(), WALDir: dir})
	if err == nil {
		s.CloseWALs()
		t.Fatal("boot on a log whose LSNs decrease succeeded")
	}
	if !errors.Is(err, wal.ErrOrder) || !strings.Contains(err.Error(), "tenant beta") {
		t.Fatalf("boot error %q, want wal.ErrOrder naming tenant beta", err)
	}
	if held := heldFiles(t, dir); len(held) != 0 {
		t.Fatalf("the failed boot left %v open", held)
	}
}

// heldFiles lists the files under dir that the process holds open,
// read from /proc/self/fd (none where that does not exist).
func heldFiles(t *testing.T, dir string) []string {
	t.Helper()
	dir, err := filepath.EvalSymlinks(dir)
	if err != nil {
		t.Fatal(err)
	}
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Logf("no /proc/self/fd (%v): open files not checked", err)
		return nil
	}
	var held []string
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && strings.HasPrefix(target, dir+string(filepath.Separator)) {
			held = append(held, target)
		}
	}
	return held
}

// TestWALCrashChaosEveryBoundary hard-aborts a keyed request at every
// WAL phase boundary on every spending endpoint, then reboots onto the
// WAL directory and proves the exactly-once contract: a crash after the
// durable commit leaves the charge and replays the stored response on
// retry; a crash anywhere earlier leaves no charge and the retry runs
// afresh, charging exactly once. Either way the client's retry settles
// with exactly one commit record and one durable charge.
func TestWALCrashChaosEveryBoundary(t *testing.T) {
	data := testData(5, 24, 2)
	endpoints := []struct {
		name string
		path string
		req  func(seed int64) any
	}{
		{"fit", "/v1/fit", func(seed int64) any {
			return FitRequest{Tenant: "alpha", Seed: seed, Data: data}
		}},
		{"select", "/v1/select", func(seed int64) any {
			return SelectRequest{Tenant: "alpha", Seed: seed, Epsilon: 0.3,
				Candidates: []CandidateJSON{{Name: "a", Theta: []float64{1, 0}}, {Name: "b", Theta: []float64{0, 1}}},
				Data:       data}
		}},
		{"density", "/v1/density", func(seed int64) any {
			return DensityRequest{Tenant: "alpha", Seed: seed, Feature: 0, Lo: -1, Hi: 1,
				Epsilon: 0.3, Bins: 8, Data: data}
		}},
		{"summary", "/v1/summary", func(seed int64) any {
			return SummaryRequest{Tenant: "alpha", Seed: seed, Feature: 0, Lo: -1, Hi: 1,
				Quantiles: []float64{0.5}, Epsilon: 0.3, Data: data}
		}},
	}

	for _, class := range faults.WALCrashes {
		for _, ep := range endpoints {
			t.Run(string(class)+"/"+ep.name, func(t *testing.T) {
				dir := t.TempDir()
				seed := int64(41)
				key := "retry-" + ep.name
				walPath := filepath.Join(dir, "alpha.wal")

				// Phase 1: the process "dies" mid-request. The client sees a
				// 500 and holds no response bytes.
				s1, ts1 := newTestService(t, Config{
					Tenants: walTenant(10), WALDir: dir,
					Faults: faults.NewSchedule(1, map[faults.Class]float64{class: 1}),
				})
				resp, body := postKeyed(t, ts1.URL+ep.path, ep.req(seed), key)
				if resp.StatusCode != http.StatusInternalServerError {
					t.Fatalf("crashed request: HTTP %d: %s", resp.StatusCode, body)
				}
				// The crashed server's own audit, before it is abandoned:
				// its frozen log can never take another record, so a
				// charge it holds only in memory is missing for good.
				crashedTn := getAlpha(t, s1)
				_, _, err := crashedTn.CrossCheck(true)
				if class == faults.WALCrashPreCommit {
					want := fmt.Sprintf("1 charge(s) (ε %.17g, δ 0) on the accountant are missing from the write-ahead log",
						crashedTn.Acct.BasicComposition().Epsilon)
					if err == nil || !strings.Contains(err.Error(), want) || !errors.Is(err, wal.ErrFrozen) {
						t.Fatalf("audit of a pre-commit crash: %v; want %q on the frozen log", err, want)
					}
				} else if err != nil {
					t.Fatalf("audit of a %s crash: %v", class, err)
				}
				ts1.Close()
				_ = s1 // abandoned without drain or CloseWALs: that is the crash
				// Only a crash after the durable commit leaves a record.
				crashed, err := os.ReadFile(walPath)
				if err != nil {
					t.Fatal(err)
				}
				if class != faults.WALCrashPostCommit && len(crashed) != 0 {
					t.Fatalf("%s left %q on the WAL, want no record at all", class, crashed)
				}

				// Phase 2: reboot on the same WAL directory.
				s2, ts2 := newTestService(t, Config{Tenants: walTenant(10), WALDir: dir})
				tn := getAlpha(t, s2)
				rec := tn.Acct.BasicComposition()
				rep := s2.RecoveryReports()[0]

				if class == faults.WALCrashPostCommit {
					// The charge was durable before the crash; the response
					// simply never escaped. Recovery must charge it.
					if rep.Commits != 1 || rep.RestoredKeys != 1 || rec.Epsilon <= 0 {
						t.Fatalf("post-commit recovery: %+v, recovered ε=%g; want 1 commit, 1 restored key, ε>0", rep, rec.Epsilon)
					}
				} else {
					// Nothing escaped and nothing durable committed: the
					// recovered books must be empty.
					if rep.Commits != 0 || rep.RestoredKeys != 0 || rec.Epsilon != 0 { //dplint:ignore floateq an uncommitted crash must recover to the exact zero spend
						t.Fatalf("%s recovery: %+v, recovered ε=%g; want no commits, no keys, ε=0", class, rep, rec.Epsilon)
					}
				}

				// The retry under the same key settles the request.
				resp2, body2 := postKeyed(t, ts2.URL+ep.path, ep.req(seed), key)
				if resp2.StatusCode != http.StatusOK {
					t.Fatalf("retry: HTTP %d: %s", resp2.StatusCode, body2)
				}
				if class == faults.WALCrashPostCommit {
					if resp2.Header.Get(replayedHeader) != "true" {
						t.Fatal("post-commit retry must replay the durable outcome")
					}
					after := tn.Acct.BasicComposition()
					//dplint:ignore floateq a replay must charge exactly nothing
					if after.Epsilon != rec.Epsilon {
						t.Fatalf("replay charged ε: %.17g -> %.17g", rec.Epsilon, after.Epsilon)
					}
				} else {
					if resp2.Header.Get(replayedHeader) == "true" {
						t.Fatal("an uncharged crash must not have a replayable outcome")
					}
					if got := tn.Acct.BasicComposition(); got.Epsilon <= 0 {
						t.Fatalf("retry did not charge: ε=%g", got.Epsilon)
					}
				}
				final := tn.Acct.BasicComposition()
				checkBooks(t, tn)
				ts2.Close()
				s2.CloseWALs()

				// Forensics on the log itself: it holds exactly one record,
				// the commit of the key, carrying exactly the bytes the
				// client holds, and the commit multiset recomposes the final
				// books bit for bit.
				recs := readWALRecords(t, walPath)
				commits := commitsForKey(recs, key)
				if len(recs) != 1 || len(commits) != 1 {
					t.Fatalf("key %q: %d record(s), %d commit(s) of the key; want exactly 1 commit", key, len(recs), len(commits))
				}
				if !bytes.Equal(commits[0].Response, body2) {
					t.Fatalf("commit response %q, client holds %q", commits[0].Response, body2)
				}
				st := wal.Replay(recs)
				ce, cd := composedOf(st.Charges())
				//dplint:ignore floateq bit-exact WAL-vs-accountant agreement is the audited property
				if ce != final.Epsilon || cd != final.Delta {
					t.Fatalf("WAL composes to (%.17g, %.17g), accountant to (%.17g, %.17g)",
						ce, cd, final.Epsilon, final.Delta)
				}

				// A third boot re-runs the full recovery audit (attachWAL
				// fails the boot on any bit mismatch) and must land on the
				// same books.
				s3, _ := newTestService(t, Config{Tenants: walTenant(10), WALDir: dir})
				re := getAlpha(t, s3).Acct.BasicComposition()
				//dplint:ignore floateq bit-exact recovery idempotence is the audited property
				if re.Epsilon != final.Epsilon || re.Delta != final.Delta {
					t.Fatalf("second recovery (%.17g, %.17g) != first (%.17g, %.17g)",
						re.Epsilon, re.Delta, final.Epsilon, final.Delta)
				}
				s3.CloseWALs()
			})
		}
	}
}

// TestWALKillRestartCycles runs a supervisor loop: each cycle serves
// fresh keyed traffic, then a chaos server hard-kills one request at
// that cycle's WAL phase boundary — every boundary twice, in protocol
// order — (plus a torn-tail scribble on the log,
// as a kill mid-write would leave), and the next cycle reboots onto the
// same directory. Across every restart the recovered ε must equal the
// canonical composition of the expected charge multiset bit for bit,
// grow monotonically, stay under budget, and every crashed key must
// settle via retry with exactly one charge.
func TestWALKillRestartCycles(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "alpha.wal")
	data := testData(7, 24, 2)
	const budget = 12.0
	const perFit = 0.5 // LearnerSpec default ε

	// expected accumulates the charge multiset a perfect observer would
	// hold; recovery must recompose exactly this.
	var expected []float64
	var prevRecovered float64
	var crashedKey string
	var crashedCharged bool

	cycles := 2 * len(faults.WALCrashes)
	for cycle := 0; cycle < cycles; cycle++ {
		class := faults.WALCrashes[cycle%len(faults.WALCrashes)]
		// Reboot: recovery must reproduce the expected books bit for bit.
		s, ts := newTestService(t, Config{Tenants: walTenant(budget), WALDir: dir})
		tn := getAlpha(t, s)
		rec := tn.Acct.BasicComposition()
		wantEps, wantDel := obs.ComposeBasic(expected, make([]float64, len(expected)))
		//dplint:ignore floateq bit-exact recovery across kill/restart cycles is the audited property
		if rec.Epsilon != wantEps || rec.Delta != wantDel {
			t.Fatalf("cycle %d: recovered (%.17g, %.17g), expected multiset composes to (%.17g, %.17g)",
				cycle, rec.Epsilon, rec.Delta, wantEps, wantDel)
		}
		if rec.Epsilon < prevRecovered {
			t.Fatalf("cycle %d: recovered ε %.17g shrank below previous %.17g", cycle, rec.Epsilon, prevRecovered)
		}
		if rec.Epsilon > budget {
			t.Fatalf("cycle %d: recovered ε %.17g exceeds budget %g", cycle, rec.Epsilon, budget)
		}
		prevRecovered = rec.Epsilon

		// Settle the previous cycle's crashed key: a post-commit crash
		// replays (already charged), any other crash charges exactly once
		// now.
		if crashedKey != "" {
			resp, body := postKeyed(t, ts.URL+"/v1/fit",
				FitRequest{Tenant: "alpha", Seed: int64(1000 + cycle), Data: data}, crashedKey)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("cycle %d: retry of %q: HTTP %d: %s", cycle, crashedKey, resp.StatusCode, body)
			}
			replayed := resp.Header.Get(replayedHeader) == "true"
			if crashedCharged != replayed {
				t.Fatalf("cycle %d: key %q replayed=%v, want %v", cycle, crashedKey, replayed, crashedCharged)
			}
			if !crashedCharged {
				expected = append(expected, perFit)
			}
		}

		// Fresh traffic.
		for i := 0; i < 2; i++ {
			seed := int64(cycle*100 + i)
			resp, body := postKeyed(t, ts.URL+"/v1/fit",
				FitRequest{Tenant: "alpha", Seed: seed, Data: data}, "c"+string(rune('0'+cycle))+"-"+string(rune('0'+i)))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("cycle %d fit %d: HTTP %d: %s", cycle, i, resp.StatusCode, body)
			}
			expected = append(expected, perFit)
		}
		checkBooks(t, tn)
		ts.Close()
		s.CloseWALs()

		// Kill: a chaos server aborts one keyed request at this cycle's
		// phase boundary and is abandoned without cleanup.
		sk, tsk := newTestService(t, Config{
			Tenants: walTenant(budget), WALDir: dir,
			Faults: faults.NewSchedule(int64(cycle), map[faults.Class]float64{class: 1}),
		})
		crashedKey = "kill-" + string(rune('0'+cycle))
		resp, body := postKeyed(t, tsk.URL+"/v1/fit",
			FitRequest{Tenant: "alpha", Seed: int64(cycle*100 + 50), Data: data}, crashedKey)
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("cycle %d kill: HTTP %d: %s", cycle, resp.StatusCode, body)
		}
		crashedCharged = class == faults.WALCrashPostCommit
		if crashedCharged {
			expected = append(expected, perFit)
		}
		tsk.Close()
		_ = sk // no drain, no CloseWALs: the kill is the point

		// A kill mid-write leaves a torn final line; scribble one so every
		// recovery also exercises tail repair.
		f, err := os.OpenFile(walPath, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatalf("scribble: %v", err)
		}
		if _, err := f.WriteString(`{"op":"commit","lsn":99999,"charges":[{"epsi`); err != nil {
			t.Fatalf("scribble: %v", err)
		}
		f.Close()
	}

	// Final boot: settle the last crashed key and audit everything.
	s, ts := newTestService(t, Config{Tenants: walTenant(budget), WALDir: dir})
	tn := getAlpha(t, s)
	if crashedKey != "" {
		resp, _ := postKeyed(t, ts.URL+"/v1/fit",
			FitRequest{Tenant: "alpha", Seed: 9999, Data: data}, crashedKey)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("final retry: HTTP %d", resp.StatusCode)
		}
		if replayed := resp.Header.Get(replayedHeader) == "true"; replayed != crashedCharged {
			t.Fatalf("final retry replayed=%v, want %v", replayed, crashedCharged)
		}
		if !crashedCharged {
			expected = append(expected, perFit)
		}
	}
	final := tn.Acct.BasicComposition()
	wantEps, wantDel := obs.ComposeBasic(expected, make([]float64, len(expected)))
	//dplint:ignore floateq bit-exact final audit is the property under test
	if final.Epsilon != wantEps || final.Delta != wantDel {
		t.Fatalf("final books (%.17g, %.17g) != expected (%.17g, %.17g)", final.Epsilon, final.Delta, wantEps, wantDel)
	}
	if final.Epsilon > budget {
		t.Fatalf("final ε %.17g exceeds budget %g", final.Epsilon, budget)
	}
	checkBooks(t, tn)
	reports := s.RecoveryReports()
	ts.Close()
	s.CloseWALs()

	// Every kill-cycle key settled with exactly one commit.
	recs := readWALRecords(t, walPath)
	for cycle := 0; cycle < cycles; cycle++ {
		key := "kill-" + string(rune('0'+cycle))
		if got := len(commitsForKey(recs, key)); got != 1 {
			t.Errorf("key %q settled by %d commit(s), want exactly 1", key, got)
		}
	}

	// CHAOS_ARTIFACTS exports the raw evidence (CI uploads it).
	if dst := os.Getenv("CHAOS_ARTIFACTS"); dst != "" {
		if err := os.MkdirAll(dst, 0o755); err != nil {
			t.Fatalf("artifacts: %v", err)
		}
		seg, err := os.ReadFile(walPath)
		if err != nil {
			t.Fatalf("artifacts: %v", err)
		}
		if err := os.WriteFile(filepath.Join(dst, "alpha.wal"), seg, 0o644); err != nil {
			t.Fatalf("artifacts: %v", err)
		}
		rep, err := json.MarshalIndent(reports, "", "  ")
		if err != nil {
			t.Fatalf("artifacts: %v", err)
		}
		if err := os.WriteFile(filepath.Join(dst, "recovery_report.json"), rep, 0o644); err != nil {
			t.Fatalf("artifacts: %v", err)
		}
	}
}

// TestWALAuditUnderLiveTraffic audits a WAL tenant 2000 times while
// spending requests commit: a charge lands on the accountant before its
// commit record lands on the log, so the log never leads and a
// mid-request audit sees at most charges in flight, never a mismatch.
// Once the load stops nothing is in flight, and /v1/crosscheck reports
// the tenant's witness.
func TestWALAuditUnderLiveTraffic(t *testing.T) {
	s, ts := newTestService(t, Config{Tenants: walTenant(1e6), WALDir: t.TempDir()})
	defer s.CloseWALs()
	tn := getAlpha(t, s)
	data := testData(23, 24, 2)
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				b, err := json.Marshal(SummaryRequest{Tenant: "alpha", Seed: int64(1000*w + i), Feature: 0, Lo: -1, Hi: 1,
					Quantiles: []float64{0.5}, Epsilon: 0.01, Data: data})
				if err == nil {
					var resp *http.Response
					if resp, err = http.Post(ts.URL+"/v1/summary", "application/json", bytes.NewReader(b)); err == nil {
						resp.Body.Close()
						if resp.StatusCode != http.StatusOK {
							err = fmt.Errorf("summary: HTTP %d", resp.StatusCode)
						}
					}
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	for tn.Acct.Count() == 0 {
		runtime.Gosched()
	}
	failed, inFlight := 0, 0
	var first error
	for i := 0; i < 2000; i++ {
		_, n, err := tn.CrossCheck(false)
		if err != nil {
			if failed == 0 {
				first = err
			}
			failed++
		}
		if n > 0 {
			inFlight++
		}
		if i%20 == 19 {
			time.Sleep(time.Millisecond) // spread the audits over many commits
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if failed > 0 {
		t.Fatalf("%d of 2000 audits failed under live traffic, first: %v", failed, first)
	}
	t.Logf("%d of 2000 audits saw charges in flight; %d charges committed", inFlight, tn.Acct.Count())
	checkBooks(t, tn)
	if audits := getCrossCheck(t, ts.URL); len(audits) != 1 || audits[0] != (tenantAudit{Tenant: "alpha", Witness: "wal"}) {
		t.Fatalf("crosscheck after the load: %+v, want alpha on the wal witness with nothing in flight", audits)
	}
}

// TestWALOneRecordPerCharge pins the commit log's shape at the server:
// a spending request that answers 2xx appends exactly one record with
// one fsync, and stores no response when it carried no key; a request
// refused with 429, keyed or not, leaves the WAL file and the append
// and fsync counters untouched; and a request on a failed log answers
// 5xx before admission.
func TestWALOneRecordPerCharge(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "alpha.wal")
	s, ts := newTestService(t, Config{Tenants: walTenant(1), WALDir: dir})
	reg := s.obs.Reg()
	appends := reg.Counter("dplearn_wal_appends_total", "write-ahead ledger records appended", "tenant", "alpha")
	fsyncs := reg.Counter("dplearn_wal_fsync_total", "write-ahead ledger fsyncs", "tenant", "alpha")
	data := testData(19, 24, 2)
	summary := func(eps float64) SummaryRequest {
		return SummaryRequest{Tenant: "alpha", Seed: 3, Feature: 0, Lo: -1, Hi: 1,
			Quantiles: []float64{0.5}, Epsilon: eps, Data: data}
	}

	if resp, body := postJSON(t, ts.URL+"/v1/summary", summary(0.4)); resp.StatusCode != http.StatusOK {
		t.Fatalf("summary: HTTP %d: %s", resp.StatusCode, body)
	}
	if a, f := appends.Value(), fsyncs.Value(); a != 1 || f != 1 {
		t.Fatalf("a 2xx moved appends by %d and fsyncs by %d, want 1 and 1", a, f)
	}
	before, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/summary", summary(0.9)); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget summary: HTTP %d: %s, want 429", resp.StatusCode, body)
	}
	if resp, body := postKeyed(t, ts.URL+"/v1/summary", summary(0.9), "refused"); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("keyed over-budget summary: HTTP %d: %s, want 429", resp.StatusCode, body)
	}
	after, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, before) {
		t.Fatalf("429s changed the WAL:\n before %q\n after  %q", before, after)
	}
	if a, f := appends.Value(), fsyncs.Value(); a != 1 || f != 1 {
		t.Fatalf("after two 429s: appends=%d fsyncs=%d, want 1 and 1", a, f)
	}
	// A failed log (Freeze sets the same sticky error a failed write
	// does) refuses before admission: 5xx, no noise drawn, nothing held
	// or charged.
	tn := getAlpha(t, s)
	tn.wal.Freeze()
	if resp, body := postJSON(t, ts.URL+"/v1/summary", summary(0.1)); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("summary on a failed log: HTTP %d: %s, want 500", resp.StatusCode, body)
	}
	if n, held := tn.Acct.Count(), tn.Acct.Reserved(); n != 1 || held != 0 {
		t.Fatalf("a failed log's request left %d spend(s) and %d hold(s), want 1 and 0", n, held)
	}
	checkBooks(t, tn)
	ts.Close()
	s.CloseWALs()

	recs := readWALRecords(t, walPath)
	if len(recs) != 1 {
		t.Fatalf("WAL holds %d records, want the one commit", len(recs))
	}
	c := recs[0]
	if c.Op != wal.OpCommit || c.Endpoint != "summary" || c.Seed != 3 || c.Key != "" || len(c.Charges) == 0 {
		t.Fatalf("commit %+v, want the unkeyed summary's charges", c)
	}
	if c.Response != nil {
		t.Fatalf("unkeyed commit stores a %d-byte response, want none", len(c.Response))
	}
}

// TestIdempotencyReplayAndConflict exercises the in-process idempotency
// protocol without a WAL: a settled key replays its exact bytes without
// a second charge, and a duplicate arriving while the original is still
// in flight is refused with 409 instead of racing a second release.
func TestIdempotencyReplayAndConflict(t *testing.T) {
	s, ts := newTestService(t, Config{Tenants: walTenant(10)})
	tn := getAlpha(t, s)
	data := testData(13, 24, 2)

	resp, body := postKeyed(t, ts.URL+"/v1/fit", FitRequest{Tenant: "alpha", Seed: 1, Data: data}, "dup")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first: HTTP %d: %s", resp.StatusCode, body)
	}
	spent := tn.Acct.BasicComposition()
	resp2, body2 := postKeyed(t, ts.URL+"/v1/fit", FitRequest{Tenant: "alpha", Seed: 1, Data: data}, "dup")
	if resp2.StatusCode != http.StatusOK || resp2.Header.Get(replayedHeader) != "true" {
		t.Fatalf("replay: HTTP %d, %s=%q", resp2.StatusCode, replayedHeader, resp2.Header.Get(replayedHeader))
	}
	if !bytes.Equal(body2, body) {
		t.Fatalf("replayed body differs:\n got %s\nwant %s", body2, body)
	}
	//dplint:ignore floateq a replay must charge exactly nothing
	if got := tn.Acct.BasicComposition(); got.Epsilon != spent.Epsilon {
		t.Fatalf("replay charged ε: %.17g -> %.17g", spent.Epsilon, got.Epsilon)
	}

	// Concurrent duplicate: park the original in flight, then race the
	// same key against it.
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.testHookInFlight = func(string) {
		once.Do(func() {
			close(entered)
			<-release
		})
	}
	firstDone := make(chan int, 1)
	go func() {
		resp, _ := postKeyed(t, ts.URL+"/v1/fit", FitRequest{Tenant: "alpha", Seed: 2, Data: data}, "race")
		firstDone <- resp.StatusCode
	}()
	<-entered
	respDup, bodyDup := postKeyed(t, ts.URL+"/v1/fit", FitRequest{Tenant: "alpha", Seed: 2, Data: data}, "race")
	if respDup.StatusCode != http.StatusConflict {
		t.Fatalf("in-flight duplicate: HTTP %d: %s, want 409", respDup.StatusCode, bodyDup)
	}
	close(release)
	if code := <-firstDone; code != http.StatusOK {
		t.Fatalf("parked original: HTTP %d", code)
	}
	// After the original settles, the same key replays.
	respAfter, _ := postKeyed(t, ts.URL+"/v1/fit", FitRequest{Tenant: "alpha", Seed: 2, Data: data}, "race")
	if respAfter.StatusCode != http.StatusOK || respAfter.Header.Get(replayedHeader) != "true" {
		t.Fatalf("post-settle duplicate: HTTP %d, replayed=%q", respAfter.StatusCode, respAfter.Header.Get(replayedHeader))
	}
	checkBooks(t, tn)
}

// TestReloadTenantsUnderLoad hot-reloads the tenant declaration while
// fit traffic is in flight: a new tenant appears live (with its own WAL
// attached), an existing tenant's budget raise is visible immediately,
// and a lowering attempt is refused without touching the books.
func TestReloadTenantsUnderLoad(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestService(t, Config{
		Tenants: []TenantConfig{{ID: "alpha", Budget: mechanism.Guarantee{Epsilon: 3}}},
		WALDir:  dir,
	})
	data := testData(17, 24, 2)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, body := postJSON(t, ts.URL+"/v1/fit",
					FitRequest{Tenant: "alpha", Seed: int64(g*1000 + i), Data: data})
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
					t.Errorf("load fit: HTTP %d: %s", resp.StatusCode, body)
					return
				}
			}
		}(g)
	}

	added, raised, err := s.ReloadTenants([]TenantConfig{
		{ID: "alpha", Budget: mechanism.Guarantee{Epsilon: 50}},
		{ID: "beta", Budget: mechanism.Guarantee{Epsilon: 5}},
	})
	if err != nil || added != 1 || raised != 1 {
		t.Fatalf("reload: added=%d raised=%d err=%v, want 1/1/nil", added, raised, err)
	}
	if got := getAlpha(t, s).Budget().Epsilon; got != 50 { //dplint:ignore floateq the raised budget is set, not computed
		t.Fatalf("alpha budget %g after raise, want 50", got)
	}
	// The new tenant serves immediately, durably.
	resp, body := postKeyed(t, ts.URL+"/v1/fit", FitRequest{Tenant: "beta", Seed: 7, Data: data}, "beta-1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("beta fit: HTTP %d: %s", resp.StatusCode, body)
	}

	// Lowering is refused and the budget stands.
	if _, _, err := s.ReloadTenants([]TenantConfig{{ID: "alpha", Budget: mechanism.Guarantee{Epsilon: 1}}}); err == nil {
		t.Fatal("lowering alpha's budget must be refused")
	}
	if got := getAlpha(t, s).Budget().Epsilon; got != 50 { //dplint:ignore floateq the refused lowering must leave the set budget untouched
		t.Fatalf("alpha budget %g after refused lowering, want 50", got)
	}

	close(stop)
	wg.Wait()
	for _, tn := range s.Tenants().Tenants() {
		checkBooks(t, tn)
	}
	ts.Close()
	s.CloseWALs()

	// Beta's durable state survives: a reboot recovers it and replays the
	// key.
	s2, ts2 := newTestService(t, Config{
		Tenants: []TenantConfig{
			{ID: "alpha", Budget: mechanism.Guarantee{Epsilon: 50}},
			{ID: "beta", Budget: mechanism.Guarantee{Epsilon: 5}},
		},
		WALDir: dir,
	})
	resp2, body2 := postKeyed(t, ts2.URL+"/v1/fit", FitRequest{Tenant: "beta", Seed: 7, Data: data}, "beta-1")
	if resp2.StatusCode != http.StatusOK || resp2.Header.Get(replayedHeader) != "true" {
		t.Fatalf("beta replay after reboot: HTTP %d, replayed=%q", resp2.StatusCode, resp2.Header.Get(replayedHeader))
	}
	if !bytes.Equal(body2, body) {
		t.Fatalf("beta replayed body differs across reboot")
	}
	s2.CloseWALs()
}
