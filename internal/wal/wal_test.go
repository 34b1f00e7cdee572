package wal

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/mechanism"
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

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "alpha.wal")
	l, recs := openT(t, path)
	if len(recs) != 0 {
		t.Fatalf("fresh log has %d records", len(recs))
	}
	lsn1, err := l.Append(Record{Op: OpReserve, Endpoint: "fit", Key: "k1", Seed: 7, Epsilon: 0.5})
	if err != nil {
		t.Fatalf("append reserve: %v", err)
	}
	body := []byte(`{"theta":[1,2]}` + "\n")
	if _, err := l.Append(Record{
		Op: OpCommit, Ref: lsn1, Status: 200,
		Fingerprint: Fingerprint(body), Response: body,
		Charges: []Charge{{Mechanism: "gibbs", Epsilon: 0.5, Delta: 0.05}},
	}); err != nil {
		t.Fatalf("append commit: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	_, recs2 := openT(t, path)
	if len(recs2) != 2 {
		t.Fatalf("reopen: got %d records, want 2", len(recs2))
	}
	if recs2[0].Op != OpReserve || recs2[0].Key != "k1" || recs2[0].Seed != 7 {
		t.Fatalf("reserve record mangled: %+v", recs2[0])
	}
	if recs2[1].Op != OpCommit || recs2[1].Ref != lsn1 || recs2[1].Status != 200 {
		t.Fatalf("commit record mangled: %+v", recs2[1])
	}
	if recs2[1].Fingerprint != Fingerprint(body) {
		t.Fatalf("fingerprint mangled")
	}
	if string(recs2[1].Response) != string(body) {
		t.Fatalf("response body mangled: %q", recs2[1].Response)
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
	if _, err := l.Append(Record{Op: OpReserve, Epsilon: 0.5}); err != nil {
		t.Fatal(err)
	}
	l.Freeze()
	if _, err := l.Append(Record{Op: OpVoid, Ref: 1}); !errors.Is(err, ErrFrozen) {
		t.Fatalf("append on frozen log: err=%v, want ErrFrozen", err)
	}
	// The crash left a torn state: reserve without settlement.
	_, recs := openT(t, path)
	st := Replay(recs)
	if len(st.Unsettled) != 1 || len(st.Commits) != 0 {
		t.Fatalf("frozen-crash replay: unsettled=%d commits=%d, want 1/0", len(st.Unsettled), len(st.Commits))
	}
}

func TestReplaySettlement(t *testing.T) {
	recs := []Record{
		{Op: OpReserve, LSN: 1, Key: "a", Endpoint: "fit", Epsilon: 0.5},
		{Op: OpCommit, LSN: 2, Ref: 1, Status: 200, Fingerprint: "f1", Response: []byte(`{"x":1}`), Charges: []Charge{{Epsilon: 0.5, Delta: 0.05}}},
		{Op: OpReserve, LSN: 3, Key: "b", Endpoint: "select", Epsilon: 0.2},
		{Op: OpVoid, LSN: 4, Ref: 3},
		{Op: OpReserve, LSN: 5, Key: "c", Endpoint: "summary", Epsilon: 0.1}, // crashed in flight
		{Op: OpReserve, LSN: 6, Endpoint: "density", Epsilon: 0.3},
		{Op: OpCommit, LSN: 7, Ref: 6, Status: 429}, // refused outcome: no charge, no key
	}
	st := Replay(recs)
	if len(st.Commits) != 2 {
		t.Fatalf("commits=%d, want 2", len(st.Commits))
	}
	if st.Voided != 1 {
		t.Fatalf("voided=%d, want 1", st.Voided)
	}
	if len(st.Unsettled) != 1 || st.Unsettled[0].Key != "c" {
		t.Fatalf("unsettled=%+v, want the crashed summary reserve", st.Unsettled)
	}
	ch := st.Charges()
	if len(ch) != 1 || ch[0].Epsilon != 0.5 || ch[0].Delta != 0.05 {
		t.Fatalf("charges=%+v, want the single committed guarantee", ch)
	}
	out, ok := st.Outcomes["a"]
	if !ok || out.Status != 200 || out.Fingerprint != "f1" || string(out.Response) != `{"x":1}` {
		t.Fatalf("outcome for key a mangled: %+v ok=%v", out, ok)
	}
	if _, ok := st.Outcomes["b"]; ok {
		t.Fatalf("voided request must not pin an outcome")
	}
	if _, ok := st.Outcomes["c"]; ok {
		t.Fatalf("crashed request must not pin an outcome")
	}
}

func TestTxnCommitLogsOutcome(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tx.wal")
	l, _ := openT(t, path)
	tx, err := l.Begin(Intent{Endpoint: "fit", Key: "k", Seed: 3, Epsilon: 0.5})
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
	l.Close()
	_, recs := openT(t, path)
	st := Replay(recs)
	if len(st.Commits) != 1 || len(st.Unsettled) != 0 || st.Voided != 0 {
		t.Fatalf("replay: commits=%d unsettled=%d voided=%d", len(st.Commits), len(st.Unsettled), st.Voided)
	}
	// The commit logs exactly the charges it was handed, in order.
	if got := st.Charges(); len(got) != 2 || got[0] != charges[0] || got[1] != charges[1] {
		t.Fatalf("commit charges %+v, want %+v", got, charges)
	}
	if st.Commits[0].Fingerprint != Fingerprint(body) {
		t.Fatalf("commit fingerprint mangled")
	}
	if o := st.Outcomes["k"]; o.Status != 200 || string(o.Response) != string(body) {
		t.Fatalf("keyed outcome %+v not restorable", o)
	}
}

func TestTxnReleaseVoids(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rel.wal")
	l, _ := openT(t, path)
	tx, err := l.Begin(Intent{Endpoint: "fit", Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	tx.Release()
	tx.Release() // idempotent
	l.Close()
	_, recs := openT(t, path)
	st := Replay(recs)
	if st.Voided != 1 || len(st.Unsettled) != 0 || len(st.Commits) != 0 {
		t.Fatalf("replay after release: voided=%d unsettled=%d commits=%d", st.Voided, len(st.Unsettled), len(st.Commits))
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
	if _, err := l.Append(Record{Op: OpReserve, Epsilon: 0.1}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(Record{Op: OpVoid, Ref: 1}); err != nil {
		t.Fatal(err)
	}
	if appends != 2 || syncs != 2 {
		t.Fatalf("hooks: appends=%d syncs=%d, want 2/2", appends, syncs)
	}
}

// FuzzWALRepair feeds arbitrary bytes as a WAL file and demands the
// repair invariants: Open never errors on mangled content, never
// panics, surviving records replay cleanly, and a post-repair append
// round-trips.
func FuzzWALRepair(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte(`{"op":"reserve","lsn":1,"endpoint":"fit","epsilon":0.5}` + "\n"))
	f.Add([]byte(`{"op":"reserve","lsn":1}` + "\n" + `{"op":"commit","lsn":2,"ref":1,"status":200,"charges":[{"epsilon":0.5}]}` + "\n"))
	f.Add([]byte(`{"op":"reserve","lsn":1}` + "\n" + `{"op":"comm`))
	f.Add([]byte("\x00\xff garbage\n{\"op\":\"void\",\"lsn\":9,\"ref\":3}\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		dir := t.TempDir()
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
		if got := len(st.Commits) + len(st.Unsettled); got > len(recs) {
			t.Fatalf("replay invented records: %d from %d", got, len(recs))
		}
		lsn, err := l.Append(Record{Op: OpReserve, Endpoint: "fit", Epsilon: 0.25})
		if err != nil {
			t.Fatalf("append after repair: %v", err)
		}
		l.Close()
		_, recs2, err := Open(path)
		if err != nil {
			t.Fatalf("reopen after repair+append: %v", err)
		}
		var found bool
		for _, r := range recs2 {
			if r.LSN == lsn && r.Op == OpReserve && r.Endpoint == "fit" {
				found = true
			}
		}
		if !found {
			t.Fatalf("post-repair append lost on reopen (lsn=%d, %d records)", lsn, len(recs2))
		}
	})
}
