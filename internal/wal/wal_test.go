package wal

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"syscall"
	"testing"
	"time"

	"repro/internal/mathx"
	"repro/internal/mechanism"
	"repro/internal/obs"
)

func openT(t *testing.T, path string) (*Log, []Record) {
	t.Helper()
	l, recs, err := Open(path)
	if err != nil {
		t.Fatalf("Open(%s): %v", path, err)
	}
	t.Cleanup(func() { l.Close() })
	return l, recs
}

// checkBooks asserts that the log's books hold exactly charges: their
// count, and the bits of their obs.ComposeBasic composition.
func checkBooks(t *testing.T, l *Log, charges []Charge) {
	t.Helper()
	eps := make([]float64, len(charges))
	del := make([]float64, len(charges))
	for i, c := range charges {
		eps[i], del[i] = c.Epsilon, c.Delta
	}
	we, wd := obs.ComposeBasic(eps, del)
	var se, sd mathx.ExactSum
	n, _ := l.Committed(&se, &sd)
	if ge, gd := se.Float64(), sd.Float64(); n != len(charges) || math.Float64bits(ge) != math.Float64bits(we) || math.Float64bits(gd) != math.Float64bits(wd) {
		t.Fatalf("books hold %d charge(s) composing to (%.17g, %.17g), want %d composing to (%.17g, %.17g)",
			n, ge, gd, len(charges), we, wd)
	}
}

// commitT runs one request's transaction to a durable commit charging
// the quoted ε, with a response naming its seed.
func commitT(l *Log, it Intent) error {
	tx, err := l.Begin(it)
	if err != nil {
		return err
	}
	defer tx.Release()
	return tx.Commit(mechanism.SpendMeta{}, Outcome{
		Status:   200,
		Response: []byte(`{"seed":` + strconv.FormatInt(it.Seed, 10) + `}`),
		Charges:  []Charge{{Mechanism: it.Endpoint, Epsilon: it.Epsilon}},
	})
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "alpha.wal")
	l, recs := openT(t, path)
	if len(recs) != 0 {
		t.Fatalf("fresh log has %d records", len(recs))
	}
	body := []byte(`{"theta":[1,2]}` + "\n")
	want := Record{
		Op: OpCommit, Key: "k1", Endpoint: "fit", Seed: 7, Epsilon: 0.5,
		Status: 200, Response: body,
		Charges: []Charge{{Mechanism: "gibbs", Sensitivity: 0.01, Outcomes: 17, Epsilon: 0.5, Delta: 0.05}},
	}
	lsn, err := l.Append(want)
	if err != nil {
		t.Fatalf("append commit: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	_, recs2 := openT(t, path)
	if len(recs2) != 1 {
		t.Fatalf("reopen: got %d records, want 1", len(recs2))
	}
	got := recs2[0]
	if got.Op != OpCommit || got.LSN != lsn || got.Key != "k1" || got.Endpoint != "fit" || got.Seed != 7 ||
		got.Epsilon != 0.5 || got.Status != 200 || len(got.Charges) != 1 || got.Charges[0] != want.Charges[0] {
		t.Fatalf("commit record mangled: %+v", got)
	}
	if !bytes.Equal(got.Response, body) {
		t.Fatalf("response body mangled: %q", got.Response)
	}
}

func TestTornTailRepair(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	l, _ := openT(t, path)
	if _, err := l.Append(Record{Op: OpReserve, Endpoint: "fit", Epsilon: 0.5}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(Record{Op: OpCommit, Ref: 1, Status: 200, Charges: []Charge{{Epsilon: 0.5}}}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	// Simulate a torn write: a half-flushed reserve line with no newline.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"reserve","lsn":3,"endpo`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, recs := openT(t, path)
	if len(recs) != 2 {
		t.Fatalf("torn tail not skipped: got %d records, want 2", len(recs))
	}
	// Appends after repair must land on a fresh line and survive reopen.
	if _, err := l2.Append(Record{Op: OpReserve, Endpoint: "density", Epsilon: 0.1}); err != nil {
		t.Fatalf("append after repair: %v", err)
	}
	l2.Close()
	_, recs3 := openT(t, path)
	if len(recs3) != 3 {
		t.Fatalf("post-repair append lost: got %d records, want 3", len(recs3))
	}
	if recs3[2].Endpoint != "density" {
		t.Fatalf("post-repair record mangled: %+v", recs3[2])
	}
}

func TestFreeze(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f.wal")
	l, _ := openT(t, path)
	if err := commitT(l, Intent{Endpoint: "fit", Seed: 1, Epsilon: 0.5}); err != nil {
		t.Fatal(err)
	}
	tx, err := l.Begin(Intent{Endpoint: "fit", Seed: 2, Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	l.Freeze()
	if err := tx.Commit(mechanism.SpendMeta{}, Outcome{Status: 200, Charges: []Charge{{Epsilon: 0.5}}}); !errors.Is(err, ErrFrozen) {
		t.Fatalf("commit on frozen log: err=%v, want ErrFrozen", err)
	}
	tx.Release()
	if _, err := l.Begin(Intent{Endpoint: "fit", Seed: 3}); !errors.Is(err, ErrFrozen) {
		t.Fatalf("Begin on frozen log: err=%v, want ErrFrozen", err)
	}
	if _, err := l.Append(Record{Op: OpCommit}); !errors.Is(err, ErrFrozen) {
		t.Fatalf("append on frozen log: err=%v, want ErrFrozen", err)
	}
	// The crash left only the commit that landed before it.
	_, recs := openT(t, path)
	st := Replay(recs)
	if len(recs) != 1 || st.Commits != 1 || recs[0].Seed != 1 {
		t.Fatalf("frozen-crash replay: %d record(s), %d commit(s), %+v; want the one commit before the freeze", len(recs), st.Commits, recs)
	}
}

// v1Log is a log in the format written before commits carried their
// intent: a keyed reserve with the commit naming it by Ref, a reserve
// settled by a void, an unkeyed committed reserve, a refused outcome
// committed without charges, a stranded keyed reserve (a crash after
// its reserve), and a reserve whose commit a crash tore mid-write.
const v1Log = `{"op":"reserve","lsn":1,"key":"a","endpoint":"fit","seed":3,"epsilon":0.5}
{"op":"commit","lsn":2,"ref":1,"status":200,"fingerprint":"f1","response":"eyJ4IjoxfQ==","charges":[{"mechanism":"gibbs","sensitivity":0.02,"outcomes":9,"epsilon":0.5,"delta":0.05}]}
{"op":"reserve","lsn":3,"key":"b","endpoint":"select","epsilon":0.2}
{"op":"void","lsn":4,"ref":3}
{"op":"reserve","lsn":5,"endpoint":"density","epsilon":0.3}
{"op":"commit","lsn":6,"ref":5,"status":200,"fingerprint":"f2","response":"eyJ5IjoyfQ==","charges":[{"mechanism":"laplace","epsilon":0.3}]}
{"op":"reserve","lsn":7,"endpoint":"density","epsilon":0.3}
{"op":"commit","lsn":8,"ref":7,"status":429}
{"op":"reserve","lsn":9,"key":"c","endpoint":"summary","epsilon":0.1}
{"op":"reserve","lsn":10,"key":"d","endpoint":"fit","epsilon":0.5}
{"op":"commit","lsn":11,"ref":10,"status":200,"charges":[{"eps`

// TestReplaySettlement replays a log written in the reserve/commit/void
// format and pins the books and keyed outcomes recovery rebuilt from it
// before commits carried their intent: every surviving commit charges,
// a commit's key comes from the reserve its Ref names, and a void, a
// stranded reserve and a torn commit charge nothing and restore no
// outcome. Commits appended in the current format then extend the same
// log: a keyed commit restores its own outcome, an unkeyed one only
// charges.
func TestReplaySettlement(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v1.wal")
	if err := os.WriteFile(path, []byte(v1Log), 0o644); err != nil {
		t.Fatal(err)
	}
	l, recs := openT(t, path)
	st := Replay(recs)
	if st.Commits != 3 {
		t.Fatalf("commits=%d, want 3", st.Commits)
	}
	want := []Charge{{Mechanism: "gibbs", Sensitivity: 0.02, Outcomes: 9, Epsilon: 0.5, Delta: 0.05}, {Mechanism: "laplace", Epsilon: 0.3}}
	ch := st.Charges()
	if len(ch) != len(want) || ch[0] != want[0] || ch[1] != want[1] {
		t.Fatalf("charges=%+v, want %+v", ch, want)
	}
	// The books Open seeds count each surviving commit once: not the
	// reserves its Ref names, nor the void, the chargeless 429 or the
	// torn commit.
	checkBooks(t, l, ch)
	if len(st.Outcomes) != 1 {
		t.Fatalf("outcomes=%+v, want only key a", st.Outcomes)
	}
	if out := st.Outcomes["a"]; out.Status != 200 || string(out.Response) != `{"x":1}` {
		t.Fatalf("outcome for key a mangled: %+v", out)
	}

	// The log keeps growing in the current format after an upgrade.
	if err := commitT(l, Intent{Endpoint: "summary", Key: "e", Seed: 4, Epsilon: 0.1}); err != nil {
		t.Fatal(err)
	}
	if err := commitT(l, Intent{Endpoint: "fit", Seed: 5, Epsilon: 0.5}); err != nil {
		t.Fatal(err)
	}
	checkBooks(t, l, append(ch, Charge{Epsilon: 0.1}, Charge{Epsilon: 0.5}))
	l.Close()
	l, recs = openT(t, path)
	st = Replay(recs)
	if got := len(st.Charges()); st.Commits != 5 || got != 4 {
		t.Fatalf("after upgrade: %d commits carrying %d charges, want 5 and 4", st.Commits, got)
	}
	checkBooks(t, l, st.Charges())
	if len(st.Outcomes) != 2 {
		t.Fatalf("after upgrade: outcomes=%+v, want keys a and e", st.Outcomes)
	}
	if out := st.Outcomes["e"]; out.Status != 200 || string(out.Response) != `{"seed":4}` {
		t.Fatalf("outcome for key e mangled: %+v", out)
	}
}

func TestTxnCommitLogsOutcome(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tx.wal")
	l, _ := openT(t, path)
	it := Intent{Endpoint: "fit", Key: "k", Seed: 3, Epsilon: 0.5}
	tx, err := l.Begin(it)
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	if g := tx.Amount(); g != (mechanism.Guarantee{Epsilon: 0.5}) {
		t.Fatalf("Amount=%+v, want the quoted ε=0.5", g)
	}
	body := []byte(`{"ok":true}`)
	charges := []Charge{{Mechanism: "gibbs", Epsilon: 0.25}, {Mechanism: "laplace", Epsilon: 0.125}}
	if err := tx.Commit(mechanism.SpendMeta{Mechanism: "ignored"}, Outcome{Status: 200, Response: body, Charges: charges}); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	tx.Release() // post-commit Release must be a no-op
	// An unkeyed request's commit carries no response: only keyed
	// outcomes are ever replayed.
	tx, err = l.Begin(Intent{Endpoint: "density", Seed: 4, Epsilon: 0.125})
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	if err := tx.Commit(mechanism.SpendMeta{}, Outcome{Status: 200, Response: body, Charges: charges[1:]}); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	l.Close()
	_, recs := openT(t, path)
	if len(recs) != 2 {
		t.Fatalf("%d records on disk, want one commit per Txn", len(recs))
	}
	c := recs[0]
	if c.Op != OpCommit || c.Ref != 0 || c.Key != it.Key || c.Endpoint != it.Endpoint || c.Seed != it.Seed || c.Epsilon != it.Epsilon {
		t.Fatalf("commit does not carry its intent: %+v", c)
	}
	if !bytes.Equal(c.Response, body) {
		t.Fatalf("keyed commit response %q, want %q", c.Response, body)
	}
	if recs[1].Op != OpCommit || recs[1].Endpoint != "density" || recs[1].Response != nil {
		t.Fatalf("unkeyed commit %+v, want a density commit with no response", recs[1])
	}
	st := Replay(recs)
	// The commits log exactly the charges they were handed, in order.
	if got := st.Charges(); len(got) != 3 || got[0] != charges[0] || got[1] != charges[1] || got[2] != charges[1] {
		t.Fatalf("commit charges %+v, want %+v then %+v", got, charges, charges[1:])
	}
	if o := st.Outcomes["k"]; len(st.Outcomes) != 1 || o.Status != 200 || string(o.Response) != string(body) {
		t.Fatalf("keyed outcome %+v not restorable (outcomes %+v)", o, st.Outcomes)
	}
}

func TestTxnReleaseVoids(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rel.wal")
	l, _ := openT(t, path)
	tx, err := l.Begin(Intent{Endpoint: "fit", Key: "k", Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	tx.Release()
	tx.Release() // idempotent
	l.Close()
	// An abandoned request leaves no trace: recovery has nothing to
	// charge and nothing to replay.
	if fi, err := os.Stat(path); err != nil || fi.Size() != 0 {
		t.Fatalf("log after Begin+Release: size=%v err=%v, want an empty file", fi.Size(), err)
	}
	_, recs := openT(t, path)
	if st := Replay(recs); len(recs) != 0 || st.Commits != 0 || len(st.Outcomes) != 0 {
		t.Fatalf("replay after release: %d records, %d commits, %d outcomes", len(recs), st.Commits, len(st.Outcomes))
	}
}

func TestNilLogNoops(t *testing.T) {
	var l *Log
	if _, err := l.Append(Record{Op: OpReserve}); err != nil {
		t.Fatalf("nil append: %v", err)
	}
	l.Freeze()
	l.SetHooks(nil, nil)
	if err := l.Close(); err != nil {
		t.Fatalf("nil close: %v", err)
	}
	tx, err := l.Begin(Intent{Endpoint: "fit", Epsilon: 0.5})
	if err != nil {
		t.Fatalf("nil-log Begin: %v", err)
	}
	if g := tx.Amount(); g != (mechanism.Guarantee{Epsilon: 0.5}) {
		t.Fatalf("nil-log Amount=%+v, want the quoted ε=0.5", g)
	}
	if err := tx.Commit(mechanism.SpendMeta{}, Outcome{Status: 200}); err != nil {
		t.Fatalf("nil-log Commit: %v", err)
	}
	tx.Release()
	var nilTx *Txn
	nilTx.Release()
	if err := nilTx.Commit(mechanism.SpendMeta{}, Outcome{}); err != nil {
		t.Fatalf("nil Txn Commit: %v", err)
	}
}

func TestHooks(t *testing.T) {
	path := filepath.Join(t.TempDir(), "h.wal")
	l, _ := openT(t, path)
	var appends, syncs int
	l.SetHooks(func(Record) { appends++ }, func(err error) {
		if err != nil {
			t.Errorf("sync hook error: %v", err)
		}
		syncs++
	})
	tx, err := l.Begin(Intent{Endpoint: "fit", Epsilon: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	tx.Release()
	if appends != 0 || syncs != 0 {
		t.Fatalf("hooks after Begin+Release: appends=%d syncs=%d, want 0/0", appends, syncs)
	}
	for i := 0; i < 2; i++ {
		if err := commitT(l, Intent{Endpoint: "fit", Epsilon: 0.1}); err != nil {
			t.Fatal(err)
		}
	}
	if appends != 2 || syncs != 2 {
		t.Fatalf("hooks after two commits: appends=%d syncs=%d, want 2/2", appends, syncs)
	}
}

// FuzzWALRepair feeds arbitrary bytes as a WAL file and demands the
// repair invariants: Open never errors on mangled content, never
// panics, surviving records replay cleanly, and a post-repair append
// round-trips. Recover, on its own copy of the bytes, must fail exactly
// when a surviving record's LSN falls in file order, leaving the bytes
// as they were, and otherwise settle what Replay of Open's records
// settles, with the same books.
func FuzzWALRepair(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte(`{"op":"reserve","lsn":1,"endpoint":"fit","epsilon":0.5}` + "\n"))
	f.Add([]byte(`{"op":"reserve","lsn":1}` + "\n" + `{"op":"commit","lsn":2,"ref":1,"status":200,"charges":[{"epsilon":0.5}]}` + "\n"))
	f.Add([]byte(`{"op":"reserve","lsn":1}` + "\n" + `{"op":"comm`))
	f.Add([]byte("\x00\xff garbage\n{\"op\":\"void\",\"lsn\":9,\"ref\":3}\n"))
	f.Add([]byte(`{"op":"commit","lsn":1,"key":"k","endpoint":"fit","epsilon":0.5,"status":200,"response":"e30K","charges":[{"epsilon":0.5}]}` + "\n"))
	f.Add([]byte(v1Log))
	// A decreasing LSN, which Recover refuses and Open sorts.
	f.Add([]byte(`{"op":"commit","lsn":2,"status":200,"charges":[{"epsilon":0.5}]}` + "\n" + `{"op":"commit","lsn":1,"status":200,"charges":[{"epsilon":0.25}]}` + "\n"))
	// Equal LSNs: a keyed and an unkeyed reserve at one LSN, and two
	// keyed commits at another.
	f.Add([]byte(`{"op":"reserve","lsn":1,"key":"a"}` + "\n" + `{"op":"reserve","lsn":1}` + "\n" +
		`{"op":"commit","lsn":2,"ref":1,"status":200,"response":"e30K","charges":[{"epsilon":0.5}]}` + "\n" +
		`{"op":"commit","lsn":3,"key":"b","status":200,"response":"e30K","charges":[{"epsilon":0.1}]}` + "\n" +
		`{"op":"commit","lsn":3,"key":"b","status":201,"response":"e30K","charges":[{"epsilon":0.2}]}` + "\n"))
	// An old-format keyed reserve named by a later commit's Ref, with an
	// unrelated reserve between them.
	f.Add([]byte(`{"op":"reserve","lsn":1,"key":"k","endpoint":"fit","epsilon":0.5}` + "\n" + `{"op":"reserve","lsn":2,"endpoint":"density","epsilon":0.1}` + "\n" +
		`{"op":"commit","lsn":3,"ref":1,"status":200,"response":"e30K","charges":[{"mechanism":"gibbs","sensitivity":0.02,"outcomes":9,"epsilon":0.5,"delta":0.05}]}` + "\n"))
	// A keyed commit carrying two charges.
	f.Add([]byte(`{"op":"commit","lsn":4,"key":"q","endpoint":"summary","epsilon":0.3,"status":200,"response":"e30K","charges":[{"mechanism":"laplace","epsilon":0.1},{"mechanism":"summary","epsilon":0.2}]}` + "\n"))
	// An unkeyed reserve and the commit that names it.
	f.Add([]byte(`{"op":"reserve","lsn":1,"endpoint":"select","seed":5,"epsilon":0.1}` + "\n" + `{"op":"commit","lsn":2,"ref":1,"status":200,"charges":[{"mechanism":"select","epsilon":0.1}]}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		dir := t.TempDir()
		// Recover reads its own copy of the bytes, before Open repairs
		// the other.
		rpath := filepath.Join(dir, "recover.wal")
		if err := os.WriteFile(rpath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		rl, rst, rerr := Recover(rpath)
		if lsnDecreases(data) {
			if !errors.Is(rerr, ErrOrder) {
				t.Fatalf("Recover of a log whose LSNs decrease: err=%v, want ErrOrder", rerr)
			}
			if b, err := os.ReadFile(rpath); err != nil || !bytes.Equal(b, data) {
				t.Fatalf("Recover wrote to a log it refused (err=%v)", err)
			}
		} else if rerr != nil {
			t.Fatalf("Recover on arbitrary bytes whose LSNs never decrease: %v", rerr)
		} else {
			defer rl.Close()
		}
		path := filepath.Join(dir, "fuzz.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, recs, err := Open(path)
		if err != nil {
			t.Fatalf("Open on arbitrary bytes: %v", err)
		}
		for i := 1; i < len(recs); i++ {
			if recs[i].LSN < recs[i-1].LSN {
				t.Fatalf("records not LSN-ordered: %d after %d", recs[i].LSN, recs[i-1].LSN)
			}
		}
		st := Replay(recs)
		if st.Commits > len(recs) || len(st.Outcomes) > st.Commits {
			t.Fatalf("replay invented records: %d commits and %d outcomes from %d records", st.Commits, len(st.Outcomes), len(recs))
		}
		// Open seeds the books with exactly the charges Replay charges,
		// and the post-repair commit moves them by exactly its own.
		checkBooks(t, l, st.Charges())
		if rerr == nil {
			// The streamed fold settles exactly what the materialized one
			// does, and the two logs keep the same books.
			sameState(t, rst, st)
			checkBooks(t, rl, st.Charges())
		}
		lsn, err := l.Append(Record{Op: OpCommit, Endpoint: "fit", Epsilon: 0.25, Status: 200, Charges: []Charge{{Epsilon: 0.25}}})
		if err != nil {
			t.Fatalf("append after repair: %v", err)
		}
		checkBooks(t, l, append(st.Charges(), Charge{Epsilon: 0.25}))
		l.Close()
		_, recs2, err := Open(path)
		if err != nil {
			t.Fatalf("reopen after repair+append: %v", err)
		}
		var found bool
		for _, r := range recs2 {
			if r.LSN == lsn && r.Op == OpCommit && r.Endpoint == "fit" {
				found = true
			}
		}
		if !found {
			t.Fatalf("post-repair append lost on reopen (lsn=%d, %d records)", lsn, len(recs2))
		}
	})
}

// lsnDecreases reports whether, in file order, a surviving record of a
// log's bytes — a line that decodes to a record with an op and a
// non-zero LSN — carries an LSN below its predecessor's.
func lsnDecreases(data []byte) bool {
	var last uint64
	for _, line := range bytes.Split(data, []byte("\n")) {
		var r Record
		if json.Unmarshal(line, &r) != nil || r.Op == "" || r.LSN == 0 {
			continue
		}
		if r.LSN < last {
			return true
		}
		last = r.LSN
	}
	return false
}

// sameState asserts that two folds settled the same commit count, the
// same charges in the same order, bit for bit, and the same outcomes.
func sameState(t *testing.T, got, want *State) {
	t.Helper()
	if got.Commits != want.Commits {
		t.Fatalf("Recover folded %d commit(s), Replay %d", got.Commits, want.Commits)
	}
	gc, wc := got.Charges(), want.Charges()
	if len(gc) != len(wc) {
		t.Fatalf("Recover holds %d charge(s), Replay %d", len(gc), len(wc))
	}
	for i := range gc {
		g, w := gc[i], wc[i]
		if g.Mechanism != w.Mechanism || g.Outcomes != w.Outcomes ||
			math.Float64bits(g.Sensitivity) != math.Float64bits(w.Sensitivity) ||
			math.Float64bits(g.Epsilon) != math.Float64bits(w.Epsilon) ||
			math.Float64bits(g.Delta) != math.Float64bits(w.Delta) {
			t.Fatalf("charge %d: Recover %+v, Replay %+v", i, g, w)
		}
	}
	if len(got.Outcomes) != len(want.Outcomes) {
		t.Fatalf("Recover restored %d outcome(s), Replay %d", len(got.Outcomes), len(want.Outcomes))
	}
	for k, w := range want.Outcomes {
		if g, ok := got.Outcomes[k]; !ok || g.Status != w.Status || !bytes.Equal(g.Response, w.Response) {
			t.Fatalf("outcome %q: Recover %+v (present %v), Replay %+v", k, g, ok, w)
		}
	}
}

// faultFile passes writes and fsyncs through to the log's file until
// armed: failWrite lands the first half of the next write and fails it
// (ENOSPC part-way through a record), failSync fails the next fsync
// after its write landed (EIO), and held makes the next fsync close held
// and then wait until release is closed (an fsync stuck in the device
// while Append holds the log's lock).
type faultFile struct {
	file
	failWrite, failSync bool
	held, release       chan struct{}
}

func (f *faultFile) Write(p []byte) (int, error) {
	if f.failWrite {
		f.failWrite = false
		n, _ := f.file.Write(p[:len(p)/2])
		return n, syscall.ENOSPC
	}
	return f.file.Write(p)
}

func (f *faultFile) Sync() error {
	if f.held != nil {
		close(f.held)
		f.held = nil
		<-f.release
	}
	if f.failSync {
		f.failSync = false
		return syscall.EIO
	}
	return f.file.Sync()
}

// TestPoisonOnFailedWrite: a write that fails part-way leaves a record
// prefix with no newline. Had the log kept appending, the next commit
// would land on the same line and be skipped as torn on reopen — an
// acknowledged charge lost. The first failure poisons the log instead.
func TestPoisonOnFailedWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "poison.wal")
	l, _ := openT(t, path)
	ff := &faultFile{file: l.f}
	l.f = ff
	if err := commitT(l, Intent{Endpoint: "fit", Seed: 1, Epsilon: 0.5}); err != nil {
		t.Fatalf("commit A: %v", err)
	}
	ff.failWrite = true
	if err := commitT(l, Intent{Endpoint: "fit", Seed: 2, Epsilon: 0.5}); !errors.Is(err, ErrAppend) || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("commit B: err=%v, want ErrAppend wrapping ENOSPC", err)
	}
	if err := commitT(l, Intent{Endpoint: "fit", Seed: 3, Epsilon: 0.5}); !errors.Is(err, ErrAppend) {
		t.Fatalf("commit C after a failed write: err=%v, want ErrAppend", err)
	}
	if _, err := l.Append(Record{Op: OpCommit, Seed: 4}); !errors.Is(err, ErrAppend) {
		t.Fatalf("append after a failed write: err=%v, want ErrAppend", err)
	}
	if _, err := l.Begin(Intent{Endpoint: "fit", Seed: 5}); !errors.Is(err, ErrAppend) {
		t.Fatalf("Begin on a poisoned log: err=%v, want ErrAppend", err)
	}
	l.Close()
	_, recs := openT(t, path)
	if len(recs) != 1 || recs[0].Seed != 1 {
		t.Fatalf("reopen recovered %+v, want exactly commit A", recs)
	}
}

// TestPoisonOnFailedSync: after a failed fsync the kernel may have
// dropped the dirty pages and report success on the next fsync, so the
// log stops writing. The failed commit's line reached the file here, so
// recovery may charge it although its client got a 5xx — over-counting,
// never under-counting.
func TestPoisonOnFailedSync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "poison.wal")
	l, _ := openT(t, path)
	var syncErrs int
	l.SetHooks(nil, func(err error) {
		if err != nil {
			syncErrs++
		}
	})
	ff := &faultFile{file: l.f}
	l.f = ff
	if err := commitT(l, Intent{Endpoint: "fit", Seed: 1, Epsilon: 0.5}); err != nil {
		t.Fatalf("commit A: %v", err)
	}
	ff.failSync = true
	if err := commitT(l, Intent{Endpoint: "fit", Seed: 2, Epsilon: 0.5}); !errors.Is(err, ErrAppend) || !errors.Is(err, syscall.EIO) {
		t.Fatalf("commit B: err=%v, want ErrAppend wrapping EIO", err)
	}
	if err := commitT(l, Intent{Endpoint: "fit", Seed: 3, Epsilon: 0.5}); !errors.Is(err, ErrAppend) {
		t.Fatalf("commit C after a failed fsync: err=%v, want ErrAppend", err)
	}
	if _, err := l.Begin(Intent{Endpoint: "fit", Seed: 4}); !errors.Is(err, ErrAppend) {
		t.Fatalf("Begin on a poisoned log: err=%v, want ErrAppend", err)
	}
	if syncErrs != 1 {
		t.Fatalf("sync hook saw %d failure(s), want 1", syncErrs)
	}
	// Only commit A was durable when its Append returned: the books
	// hold it alone, and report the failure that stopped them.
	checkBooks(t, l, []Charge{{Epsilon: 0.5}})
	var se, sd mathx.ExactSum
	if _, err := l.Committed(&se, &sd); !errors.Is(err, ErrAppend) {
		t.Fatalf("books of a poisoned log report %v, want ErrAppend", err)
	}
	l.Close()
	l, recs := openT(t, path)
	if len(recs) != 2 || recs[0].Seed != 1 || recs[1].Seed != 2 {
		t.Fatalf("reopen recovered %+v, want commits A and B and nothing after", recs)
	}
	checkBooks(t, l, []Charge{{Epsilon: 0.5}, {Epsilon: 0.5}})
}

// TestBeginDoesNotWaitForFsync: Append holds the log's lock across its
// fsync, so a Begin that read the sticky error under that lock would
// wait a whole fsync of another request before admission. Begin must
// return while an append is stuck mid-fsync; the append then succeeds
// once the fsync returns, and a poisoned log still fails Begin.
func TestBeginDoesNotWaitForFsync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "held.wal")
	l, _ := openT(t, path)
	ff := &faultFile{file: l.f, held: make(chan struct{}), release: make(chan struct{})}
	held := ff.held
	l.f = ff
	appended := make(chan error, 1)
	go func() { appended <- commitT(l, Intent{Endpoint: "fit", Seed: 1, Epsilon: 0.5}) }()
	<-held // the append holds the lock inside its fsync
	begun := make(chan error, 1)
	go func() {
		tx, err := l.Begin(Intent{Endpoint: "fit", Seed: 2})
		tx.Release()
		begun <- err
	}()
	var beginErr error
	waited := false
	select {
	case beginErr = <-begun:
	case <-time.After(5 * time.Second):
		waited = true
	}
	close(ff.release) // the stuck fsync returns, so no goroutine outlives the test
	if err := <-appended; err != nil {
		t.Fatalf("append after its fsync returned: %v", err)
	}
	if waited {
		<-begun
		t.Fatal("Begin waited for another request's fsync")
	}
	if beginErr != nil {
		t.Fatalf("Begin on a healthy log: %v", beginErr)
	}
	ff.failSync = true
	if err := commitT(l, Intent{Endpoint: "fit", Seed: 3, Epsilon: 0.5}); !errors.Is(err, ErrAppend) {
		t.Fatalf("commit with a failed fsync: err=%v, want ErrAppend", err)
	}
	if _, err := l.Begin(Intent{Endpoint: "fit", Seed: 4}); !errors.Is(err, ErrAppend) {
		t.Fatalf("Begin on a poisoned log: err=%v, want ErrAppend", err)
	}
}
