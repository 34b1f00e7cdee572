package analysis

import (
	"context"
	"strings"
	"testing"
)

// TestCallGraphReachability pins the reachability semantics the privacy
// checks depend on: exported functions are roots, direct calls and
// function-value references propagate, and dead unexported code is
// unreachable.
func TestCallGraphReachability(t *testing.T) {
	dir := writeFixtureModule(t, map[string]string{
		"p.go": `package p

// Exported is a root.
func Exported() int { return helper() }

func helper() int { return 1 }

// callback is never called directly, only mentioned as a value.
func callback() int { return 2 }

// Registry holds callback as a value: anyone may invoke it.
var Registry = callback

// orphan is referenced by nothing.
func orphan() int { return 3 }
`,
	})
	pkgs := loadFixtureModule(t, dir)
	prog := NewProgram(pkgs)
	reach := prog.Reachable()

	wantReach := map[string]bool{
		"fixture.Exported": true,
		"fixture.helper":   true,
		"fixture.callback": true,
		"fixture.orphan":   false,
	}
	for key, want := range wantReach {
		if reach[key] != want {
			t.Errorf("reachable[%s] = %v, want %v (full set: %v)", key, reach[key], want, keys(reach))
		}
	}

	// Node lookup round-trips through the declaration.
	node := prog.Node("fixture.helper")
	if node == nil || node.Decl == nil || node.Decl.Name.Name != "helper" {
		t.Fatalf("Node(fixture.helper) = %+v", node)
	}
	if got := prog.NodeOf(node.Obj); got != node {
		t.Error("NodeOf does not round-trip")
	}

	// The edge Exported -> helper was resolved.
	var found bool
	for _, cs := range prog.Node("fixture.Exported").Calls {
		if cs.Key == "fixture.helper" {
			found = true
		}
	}
	if !found {
		t.Error("missing call edge Exported -> helper")
	}
}

// TestCallGraphCrossPackage checks that edges and reachability cross
// package boundaries inside one module, with FullName keys unifying the
// loader's duplicate type-checked instances.
func TestCallGraphCrossPackage(t *testing.T) {
	dir := writeFixtureModule(t, map[string]string{
		"a/a.go": `package a

import "fixture/b"

// Run reaches b.Leak through a qualified call.
func Run() int { return b.Leak() }
`,
		"b/b.go": `package b

// Leak is exported, but the point is the cross-package edge.
func Leak() int { return dead() }

func dead() int { return 0 }
`,
	})
	pkgs := loadFixtureModule(t, dir)
	prog := NewProgram(pkgs)

	var edge bool
	for _, cs := range prog.Node("fixture/a.Run").Calls {
		if cs.Key == "fixture/b.Leak" {
			edge = true
		}
	}
	if !edge {
		t.Error("missing cross-package edge a.Run -> b.Leak")
	}
	reach := prog.Reachable()
	if !reach["fixture/b.dead"] {
		t.Error("b.dead should be reachable through b.Leak")
	}
}

func keys(m map[string]bool) []string {
	var out []string
	for k, v := range m {
		if v {
			out = append(out, k)
		}
	}
	return out
}

// TestRunAllMarksSuppressed pins the NDJSON contract: RunAllCtx keeps
// suppressed findings, flagged with the directive's reason, while RunCtx
// drops them.
func TestRunAllMarksSuppressed(t *testing.T) {
	dir := writeFixtureModule(t, map[string]string{
		"p.go": `package p

// Eq exposes one finding and hides another (the directive also covers
// the line below it, so the open finding comes first).
func Eq(a, b float64) bool {
	y := a != b
	x := a == b //dplint:ignore floateq fixture: exact sentinel comparison
	return x || y
}
`,
	})
	pkgs := loadFixtureModule(t, dir)
	all, _ := RunAllCtx(context.Background(), pkgs, []*Analyzer{FloatEq})
	if len(all) != 2 {
		t.Fatalf("RunAllCtx returned %d findings, want 2: %v", len(all), all)
	}
	var suppressed, open int
	for _, d := range all {
		if d.Suppressed {
			suppressed++
			if d.SuppressReason != "fixture: exact sentinel comparison" {
				t.Errorf("suppress reason = %q", d.SuppressReason)
			}
		} else {
			open++
			if d.SuppressReason != "" {
				t.Errorf("open finding carries a reason: %q", d.SuppressReason)
			}
		}
	}
	if suppressed != 1 || open != 1 {
		t.Errorf("suppressed=%d open=%d, want 1 and 1", suppressed, open)
	}
	if got := run(pkgs, []*Analyzer{FloatEq}); len(got) != 1 {
		t.Errorf("RunCtx must drop the suppressed finding, got %v", got)
	}
}

// TestSensAnnMalformed covers the annotation-grammar errors, which the
// golden harness cannot express (the report lands on the comment's own
// line, where no want comment can sit).
func TestSensAnnMalformed(t *testing.T) {
	dir := writeFixtureModule(t, map[string]string{
		"p.go": `package p

//dp:sensitivity q=1
func wrongKey() float64 { return 0 }

//dp:sensitivity Δq=0
func zeroBound() float64 { return 0 }

//dp:sensitivity Δq=1/
func emptyDenominator() float64 { return 0 }

//dp:sensitivity Δq=2/N7
func badDenominator() float64 { return 0 }
`,
	})
	diags := run(loadFixtureModule(t, dir), []*Analyzer{SensAnn})
	if len(diags) != 4 {
		t.Fatalf("want 4 malformed-annotation findings, got %d: %v", len(diags), diags)
	}
	for _, d := range diags {
		if !strings.Contains(d.Message, "malformed sensitivity annotation") {
			t.Errorf("unexpected finding: %s", d)
		}
	}
}
