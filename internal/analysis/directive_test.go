package analysis

import (
	"strings"
	"testing"
)

// diagMessages flattens a diagnostic slice for substring assertions.
func diagMessages(diags []Diagnostic) []string {
	out := make([]string, len(diags))
	for i, d := range diags {
		out[i] = d.Message
	}
	return out
}

func requireOneDiag(t *testing.T, diags []Diagnostic, want string) {
	t.Helper()
	if len(diags) != 1 {
		t.Fatalf("want exactly 1 diagnostic containing %q, got %d: %v",
			want, len(diags), diagMessages(diags))
	}
	if !strings.Contains(diags[0].Message, want) {
		t.Fatalf("diagnostic %q does not contain %q", diags[0].Message, want)
	}
}

// Directive findings are reported at the comment's own position, where a
// // want annotation cannot sit, so directive hygiene is unit-tested here
// instead of in the golden fixtures.

func TestLoopboundMalformedDirective(t *testing.T) {
	dir := writeFixtureModule(t, map[string]string{
		"p.go": `package p

// Sum is charge-free; the directive below is still malformed.
func Sum(xs []float64) float64 {
	var total float64
	//dp:loopbound
	for _, x := range xs {
		total += x
	}
	return total
}
`,
	})
	diags := run(loadFixtureModule(t, dir), []*Analyzer{EpsBound})
	requireOneDiag(t, diags, "malformed //dp:loopbound directive: want //dp:loopbound k=<expr>")
}

func TestLoopboundNonPositiveConstant(t *testing.T) {
	dir := writeFixtureModule(t, map[string]string{
		"p.go": `package p

// Sum declares a zero trip count, which can never bound a charge.
func Sum(xs []float64) float64 {
	var total float64
	//dp:loopbound k=0
	for _, x := range xs {
		total += x
	}
	return total
}
`,
	})
	diags := run(loadFixtureModule(t, dir), []*Analyzer{EpsBound})
	requireOneDiag(t, diags, "loop bound must be a positive finite count")
}

func TestGuardedbyMissingReason(t *testing.T) {
	dir := writeFixtureModule(t, map[string]string{
		"p.go": `package p

import "sync"

type Box struct {
	mu sync.Mutex
	//dp:guardedby mu
	n int
}

func (b *Box) Inc() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.n++
}
`,
	})
	diags := run(loadFixtureModule(t, dir), []*Analyzer{Lockcheck})
	requireOneDiag(t, diags, "malformed //dp:guardedby directive: want //dp:guardedby <mutex|none> <reason>")
}

func TestGuardedbyUnknownMutex(t *testing.T) {
	dir := writeFixtureModule(t, map[string]string{
		"p.go": `package p

import "sync"

type Box struct {
	mu sync.Mutex
	//dp:guardedby lock protected elsewhere
	n int
}

func (b *Box) Inc() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.n++
}
`,
	})
	diags := run(loadFixtureModule(t, dir), []*Analyzer{Lockcheck})
	requireOneDiag(t, diags, `//dp:guardedby names unknown mutex "lock" on Box.n`)
}

func TestGuardedbyUnanchored(t *testing.T) {
	dir := writeFixtureModule(t, map[string]string{
		"p.go": `package p

import "sync"

type Box struct {
	mu sync.Mutex
	n  int
}

//dp:guardedby mu floating directive, two lines below any field
func (b *Box) Inc() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.n++
}
`,
	})
	diags := run(loadFixtureModule(t, dir), []*Analyzer{Lockcheck})
	requireOneDiag(t, diags, "//dp:guardedby directive is not anchored to a field of a mutex-holding struct")
}

func TestGuardedbyNoneExemptsField(t *testing.T) {
	dir := writeFixtureModule(t, map[string]string{
		"p.go": `package p

import "sync"

type Box struct {
	mu sync.Mutex
	n  int
	//dp:guardedby none set once before the Box is shared
	label string
}

func (b *Box) Inc() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.n++
}

// Label reads the exempt field with no lock: no finding.
func (b *Box) Label() string {
	return b.label
}
`,
	})
	if diags := run(loadFixtureModule(t, dir), []*Analyzer{Lockcheck}); len(diags) != 0 {
		t.Fatalf("exempt field produced findings: %v", diagMessages(diags))
	}
}
