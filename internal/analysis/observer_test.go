package analysis

import (
	"strings"
	"testing"
)

// observerStub is the minimal structural vocabulary (mechanism +
// accountant) the observer tests build on.
const observerStub = `package p

type Example struct{ X []float64 }

type Dataset struct{ Examples []Example }

type Guarantee struct{ Epsilon float64 }

type RNG struct{ state uint64 }

type Mech struct{ Epsilon float64 }

func (m *Mech) Release(d *Dataset, g *RNG) float64 { return m.Epsilon }

func (m *Mech) Guarantee() Guarantee { return Guarantee{Epsilon: m.Epsilon} }
`

func TestObserverDirectiveRequiresReason(t *testing.T) {
	dir := writeFixtureModule(t, map[string]string{
		"stub.go": observerStub,
		"p.go": `package p

// Harness hides behind a reason-less directive: the directive is
// flagged and the release stays flagged too.
//
//dp:observer
func Harness(d *Dataset, g *RNG) float64 {
	m := &Mech{Epsilon: 1}
	return m.Release(d, g)
}
`,
	})
	diags := run(loadFixtureModule(t, dir), []*Analyzer{AcctLint})
	if len(diags) != 2 {
		t.Fatalf("want malformed-directive + un-accounted findings, got %v", diags)
	}
	var msgs []string
	for _, d := range diags {
		msgs = append(msgs, d.Message)
	}
	joined := strings.Join(msgs, "\n")
	if !strings.Contains(joined, "malformed observer directive") || !strings.Contains(joined, "un-accounted release") {
		t.Fatalf("want malformed + un-accounted, got:\n%s", joined)
	}
}

func TestObserverExemptsDeclAndLiteral(t *testing.T) {
	dir := writeFixtureModule(t, map[string]string{
		"stub.go": observerStub,
		"p.go": `package p

//dp:observer test: resamples the mechanism's output to estimate realized eps
func Harness(d *Dataset, g *RNG) float64 {
	m := &Mech{Epsilon: 1}
	var s float64
	for i := 0; i < 8; i++ {
		s += m.Release(d, g)
	}
	if d.Examples[0].X[0] > 0 { // raw branch after release: observers may steer measurements
		return s
	}
	return s / 8
}

// Driver is checked normally, but its marked sampling closure is not.
func Driver(d *Dataset, g *RNG) float64 {
	m := &Mech{Epsilon: 1}
	//dp:observer test: sampling closure handed to a measurement loop
	sample := func() float64 { return m.Release(d, g) }
	return sample() + sample()
}
`,
	})
	diags := run(loadFixtureModule(t, dir), []*Analyzer{AcctLint, PostProc})
	if len(diags) != 0 {
		t.Fatalf("observer scopes should be exempt, got %v", diags)
	}
}

func TestObserverDoesNotLeakToEnclosingScope(t *testing.T) {
	dir := writeFixtureModule(t, map[string]string{
		"stub.go": observerStub,
		"p.go": `package p

// Driver releases outside the marked closure: that release is still on
// the production path and must be flagged.
func Driver(d *Dataset, g *RNG) float64 {
	m := &Mech{Epsilon: 1}
	//dp:observer test: only the closure is a measurement
	sample := func() float64 { return m.Release(d, g) }
	return sample() + m.Release(d, g)
}
`,
	})
	diags := run(loadFixtureModule(t, dir), []*Analyzer{AcctLint})
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "un-accounted release") {
		t.Fatalf("want exactly the outer un-accounted release, got %v", diags)
	}
}

func TestSpendDetailCountsAsSpend(t *testing.T) {
	dir := writeFixtureModule(t, map[string]string{
		"stub.go": observerStub,
		"p.go": `package p

type Accountant struct{ spent []Guarantee }

func (a *Accountant) Spend(g Guarantee) { a.spent = append(a.spent, g) }

func (a *Accountant) SpendDetail(g Guarantee, mechanism string) {
	a.spent = append(a.spent, g)
	_ = mechanism
}

// Pay accounts through the metadata variant: clean.
func Pay(d *Dataset, acct *Accountant, g *RNG) float64 {
	m := &Mech{Epsilon: 1}
	v := m.Release(d, g)
	acct.SpendDetail(m.Guarantee(), "mech")
	return v
}
`,
	})
	diags := run(loadFixtureModule(t, dir), []*Analyzer{AcctLint})
	if len(diags) != 0 {
		t.Fatalf("SpendDetail should satisfy accounting, got %v", diags)
	}
}
