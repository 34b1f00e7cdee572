package experiments

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func quickOpts() Options { return Options{Seed: 42, Quick: true} }

func TestIDsOrdered(t *testing.T) {
	ids := IDs()
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8", "A9", "A10", "A11"}
	if len(ids) != len(want) {
		t.Fatalf("IDs = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("IDs[%d] = %s, want %s", i, ids[i], want[i])
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("E99", quickOpts()); !errors.Is(err, ErrUnknownExperiment) {
		t.Errorf("expected ErrUnknownExperiment, got %v", err)
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{ID: "T", Title: "demo", Columns: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	tab.AddNote("hello %d", 5)
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"T: demo", "a", "bb", "1", "2", "note: hello 5"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
}

// checkVerdict asserts every table note containing a boolean verdict says
// true — the experiment's own pass criterion.
func checkVerdict(t *testing.T, tab *Table) {
	t.Helper()
	if len(tab.Rows) == 0 {
		t.Fatalf("%s produced no rows", tab.ID)
	}
	for _, n := range tab.Notes {
		if strings.Contains(n, ": false") {
			t.Errorf("%s verdict failed: %s", tab.ID, n)
		}
	}
}

func TestE1(t *testing.T) {
	tab, err := E1LaplacePrivacy(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkVerdict(t, tab)
	if len(tab.Rows) != 4 {
		t.Errorf("rows = %d", len(tab.Rows))
	}
}

func TestE2(t *testing.T) {
	tab, err := E2ExpMechPrivacy(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkVerdict(t, tab)
	// Every row's audited epsilon must be within budget ("true" cells).
	for _, row := range tab.Rows {
		if row[len(row)-1] != "true" {
			t.Errorf("E2 row failed: %v", row)
		}
	}
}

func TestE3(t *testing.T) {
	tab, err := E3CatoniBound(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkVerdict(t, tab)
}

func TestE4(t *testing.T) {
	tab, err := E4GibbsOptimality(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkVerdict(t, tab)
	for _, row := range tab.Rows {
		if row[len(row)-1] != "true" {
			t.Errorf("E4 row failed: %v", row)
		}
	}
}

func TestE5(t *testing.T) {
	tab, err := E5GibbsPrivacy(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkVerdict(t, tab)
	for _, row := range tab.Rows {
		if row[len(row)-1] != "true" {
			t.Errorf("E5 row failed: %v", row)
		}
	}
}

func TestE6(t *testing.T) {
	tab, err := E6MIRiskTradeoff(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkVerdict(t, tab)
	if len(tab.Rows) != 5 {
		t.Errorf("rows = %d", len(tab.Rows))
	}
}

func TestE7(t *testing.T) {
	tab, err := E7BaselineComparison(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkVerdict(t, tab)
}

func TestE8(t *testing.T) {
	tab, err := E8LeakageBounds(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkVerdict(t, tab)
	for _, row := range tab.Rows {
		if row[len(row)-1] != "true" {
			t.Errorf("E8 row failed: %v", row)
		}
	}
}

func TestE9(t *testing.T) {
	tab, err := E9PrivateRegression(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkVerdict(t, tab)
}

func TestE10(t *testing.T) {
	tab, err := E10DensityEstimation(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkVerdict(t, tab)
}

func TestRunAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("running every experiment is slow")
	}
	tabs, err := RunMany(IDs(), quickOpts(), 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, tab := range tabs {
		if err := tab.Render(&buf); err != nil {
			t.Fatal(err)
		}
	}
	out := buf.String()
	for _, id := range IDs() {
		if !strings.Contains(out, id+":") {
			t.Errorf("rendered tables missing %s", id)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, err := E2ExpMechPrivacy(Options{Seed: 7, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := E2ExpMechPrivacy(Options{Seed: 7, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	var ba, bb bytes.Buffer
	if err := a.Render(&ba); err != nil {
		t.Fatal(err)
	}
	if err := b.Render(&bb); err != nil {
		t.Fatal(err)
	}
	if ba.String() != bb.String() {
		t.Error("equal seeds must give identical tables")
	}
}

func TestRunManyParallelMatchesSequential(t *testing.T) {
	ids := []string{"E2", "E5", "A5"}
	seq, err := RunMany(ids, quickOpts(), 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunMany(ids, quickOpts(), 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ids {
		var a, b bytes.Buffer
		if err := seq[i].Render(&a); err != nil {
			t.Fatal(err)
		}
		if err := par[i].Render(&b); err != nil {
			t.Fatal(err)
		}
		if a.String() != b.String() {
			t.Errorf("%s: parallel result differs from sequential", ids[i])
		}
	}
}

func TestRunManyErrors(t *testing.T) {
	if _, err := RunMany([]string{"E2", "NOPE"}, quickOpts(), 2); !errors.Is(err, ErrUnknownExperiment) {
		t.Errorf("expected ErrUnknownExperiment, got %v", err)
	}
}
