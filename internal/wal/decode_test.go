package wal

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/mechanism"
)

// sameRecord asserts that decodeRecord's record equals json.Unmarshal's:
// floats by their bits, and a nil Response or Charges told apart from an
// empty one.
func sameRecord(t *testing.T, line []byte, got, want *Record) {
	t.Helper()
	same := got.Op == want.Op && got.LSN == want.LSN && got.Ref == want.Ref && got.Key == want.Key &&
		got.Endpoint == want.Endpoint && got.Seed == want.Seed && got.Status == want.Status &&
		math.Float64bits(got.Epsilon) == math.Float64bits(want.Epsilon) &&
		(got.Response == nil) == (want.Response == nil) && bytes.Equal(got.Response, want.Response) &&
		(got.Charges == nil) == (want.Charges == nil) && len(got.Charges) == len(want.Charges)
	for i := 0; same && i < len(got.Charges); i++ {
		g, w := got.Charges[i], want.Charges[i]
		same = g.Mechanism == w.Mechanism && g.Outcomes == w.Outcomes &&
			math.Float64bits(g.Sensitivity) == math.Float64bits(w.Sensitivity) &&
			math.Float64bits(g.Epsilon) == math.Float64bits(w.Epsilon) &&
			math.Float64bits(g.Delta) == math.Float64bits(w.Delta)
	}
	if !same {
		t.Fatalf("line %q: decodeRecord gives %#v, json.Unmarshal %#v", line, *got, *want)
	}
}

// canonicalRecords are records in every shape the server and the
// long-history prefill append, between them setting every field of
// Record and Charge that Append does not assign.
var canonicalRecords = []Record{
	{Op: OpReserve, Endpoint: "select", Seed: -4611686018427387904, Epsilon: 0.005},
	{Op: OpCommit, Ref: 1, Status: 200, Charges: []Charge{{Mechanism: "select", Epsilon: 0.005}}},
	{Op: OpCommit, Endpoint: "density", Seed: 9, Epsilon: 0.1, Status: 200, Charges: []Charge{{Mechanism: "laplace", Epsilon: 0.1}}},
	{Op: OpCommit, Key: "retry-7", Endpoint: "fit", Seed: 3, Epsilon: 0.5, Status: 200, Response: []byte(`{"theta":[1,2]}` + "\n"),
		Charges: []Charge{{Mechanism: "gibbs", Sensitivity: 0.02, Outcomes: 17, Epsilon: 0.5, Delta: 1e-6}}},
	{Op: OpCommit, Endpoint: "summary", Seed: 4, Epsilon: 0.3, Status: 200,
		Charges: []Charge{{Mechanism: "laplace", Sensitivity: 1, Epsilon: 0.1}, {Mechanism: "summary", Outcomes: 3, Epsilon: 0.2, Delta: 0.05}}},
}

// FuzzDecodeRecord holds the one-pass decoder to encoding/json: on any
// line, decodeRecord and json.Unmarshal either both refuse it or both
// accept it with the same Record.
func FuzzDecodeRecord(f *testing.F) {
	for i, rec := range canonicalRecords {
		rec.LSN = uint64(i + 1)
		line, err := json.Marshal(rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(line)
	}
	for _, line := range strings.Split(v1Log, "\n") {
		f.Add([]byte(line))
	}
	for _, line := range []string{
		`{}`,
		`{"op":"commit","LSN":3,"status":200}`,
		`{"op":"commit","lsn":1,"lsn":2}`,
		`{"op":"commit","lsn":1,"charges":[{"epsilon":1,"delta":2}],"charges":[{"epsilon":3}]}`,
		`{"op":"commit","lsn":1,"charges":[{"epsilon":0.5,"epsilon":0.25}]}`,
		`{"op":null,"lsn":1}`,
		`{"op":"commit","lsn":1,"charges":null}`,
		`{"op":"commit","lsn":1,"charges":[null]}`,
		`{"op": "commit","lsn":1}`,
		` {"op":"commit","lsn":1}`,
		`{"op":"commit","lsn":1} `,
		`{"op":"commit","lsn":1,"key":"a\"b"}`,
		`{"op":"commit","lsn":1,"key":"\u0041"}`,
		"{\"op\":\"commit\",\"lsn\":1,\"key\":\"\xff\"}",
		"{\"op\":\"commit\",\"lsn\":1,\"key\":\"\x7f\"}",
		`{"op":"commit","lsn":1,"seed":-0,"epsilon":-0,"charges":[{"epsilon":-0,"outcomes":-0}]}`,
		`{"op":"commit","lsn":-0}`,
		`{"op":"commit","lsn":1,"epsilon":1e400}`,
		`{"op":"commit","lsn":1,"epsilon":1e-400,"charges":[{"delta":2.5E-3,"epsilon":1e+2}]}`,
		`{"op":"commit","lsn":1,"status":1.0}`,
		`{"op":"commit","lsn":1,"seed":9223372036854775808}`,
		`{"op":"commit","lsn":-1}`,
		`{"op":"commit","lsn":01}`,
		`{"op":"commit","lsn":1,"epsilon":.5}`,
		`{"op":"commit","lsn":1,"charges":[]}`,
		`{"op":"commit","lsn":1,"response":""}`,
		`{"op":"commit","lsn":1,"response":"e30"}`,
		`{"op":"commit","lsn":1}x`,
		`{"op":"commit","lsn":1}}`,
		`{"op":"commit","lsn":1,}`,
		`[{"op":"commit","lsn":1}]`,
	} {
		f.Add([]byte(line))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var got, want Record
		gerr := decodeRecord(line, &got)
		werr := json.Unmarshal(line, &want)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("line %q: decodeRecord err=%v, json.Unmarshal err=%v", line, gerr, werr)
		}
		if gerr == nil {
			sameRecord(t, line, &got, &want)
		}
	})
}

// TestAppendLinesTakeFastPath: every line Append and Txn.Commit write is
// decoded by the one-pass decoder, not by its encoding/json fallback, so a
// field added to Record or Charge fails here until fastRecord decodes it,
// instead of quietly sending every line through the fallback.
func TestAppendLinesTakeFastPath(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fast.wal")
	l, _ := openT(t, path)
	for _, rec := range canonicalRecords {
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	keyed, multi := canonicalRecords[3], canonicalRecords[4]
	for _, rec := range []Record{keyed, multi} {
		tx, err := l.Begin(Intent{Endpoint: rec.Endpoint, Key: rec.Key, Seed: rec.Seed, Epsilon: rec.Epsilon})
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(mechanism.SpendMeta{}, Outcome{Status: rec.Status, Response: rec.Response, Charges: rec.Charges}); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(b, []byte("\n")), []byte("\n"))
	if len(lines) != len(canonicalRecords)+2 {
		t.Fatalf("%d line(s) on disk, want %d", len(lines), len(canonicalRecords)+2)
	}
	var recs []Record
	var charges []Charge
	for _, line := range lines {
		var got, want Record
		if !fastRecord(line, &got) {
			t.Fatalf("line %q falls back to encoding/json", line)
		}
		if err := json.Unmarshal(line, &want); err != nil {
			t.Fatal(err)
		}
		sameRecord(t, line, &got, &want)
		recs = append(recs, got)
		charges = append(charges, got.Charges...)
	}
	// Between them the lines set every field, so each one crossed the
	// fast path with a value.
	everyFieldSet(t, recs)
	everyFieldSet(t, charges)
}

// everyFieldSet asserts that each field of the element type is non-zero
// in at least one element of vs.
func everyFieldSet[T any](t *testing.T, vs []T) {
	t.Helper()
	typ := reflect.TypeFor[T]()
	for i := 0; i < typ.NumField(); i++ {
		set := false
		for _, v := range vs {
			set = set || !reflect.ValueOf(v).Field(i).IsZero()
		}
		if !set {
			t.Errorf("no line sets %s.%s", typ.Name(), typ.Field(i).Name)
		}
	}
}
