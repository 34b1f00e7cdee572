package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parseFuncCFG parses src, finds func f, and builds its CFG.
func parseFuncCFG(t *testing.T, src string, opts cfgOptions) (*token.FileSet, *cfg) {
	t.Helper()
	fset := token.NewFileSet()
	// Each src begins with a newline, so "package p"+src puts func f on
	// line 2 and the numbering in the tests counts from there.
	file, err := parser.ParseFile(fset, "cfgtest.go", "package p"+src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "f" {
			return fset, buildCFG(fd.Body, opts)
		}
	}
	t.Fatal("no func f in source")
	return nil, nil
}

// blockAtLine returns the first block evaluating a node that starts on
// the given line of the (package-prefixed) source.
func blockAtLine(fset *token.FileSet, c *cfg, line int) *cfgBlock {
	for _, blk := range c.Blocks {
		for _, n := range blk.Nodes {
			if fset.Position(n.Pos()).Line == line {
				return blk
			}
		}
	}
	return nil
}

func reachable(c *cfg, from, to *cfgBlock) bool {
	return c.witnessPath(from, to, nil) != nil
}

func TestCFGGoto(t *testing.T) {
	// Lines (after the package line): 2 func, 3 if, 4 goto, 6 return 1, 8 return 2.
	fset, c := parseFuncCFG(t, `
func f(skip bool) int {
	if skip {
		goto end
	}
	return 1
end:
	return 2
}`, cfgOptions{})
	first, second := blockAtLine(fset, c, 6), blockAtLine(fset, c, 8)
	if first == nil || second == nil {
		t.Fatalf("return blocks not found: %v / %v", first, second)
	}
	if !reachable(c, c.Entry, second) {
		t.Errorf("goto target unreachable from entry:\n%s", c.dump(fset))
	}
	// The goto path must bypass `return 1`: a path avoiding that block
	// still reaches the label.
	if c.witnessPath(c.Entry, second, func(b *cfgBlock) bool { return b == first }) == nil {
		t.Errorf("goto edge missing — label only reachable through fallthrough:\n%s", c.dump(fset))
	}
	if first.Return == nil || second.Return == nil {
		t.Errorf("return statements did not mark their blocks")
	}
}

func TestCFGLabeledBreak(t *testing.T) {
	// Line 4 is the outer range header, 12 the final return.
	fset, c := parseFuncCFG(t, `
func f(xs [][]int) int {
	total := 0
outer:
	for i := range xs {
		for j := range xs[i] {
			if xs[i][j] < 0 {
				break outer
			}
			total += j
		}
	}
	return total
}`, cfgOptions{})
	outerHeader := blockAtLine(fset, c, 5)
	ret := blockAtLine(fset, c, 13)
	breakBlk := blockAtLine(fset, c, 7) // the if-condition block preceding break
	if outerHeader == nil || ret == nil || breakBlk == nil {
		t.Fatalf("blocks not found:\n%s", c.dump(fset))
	}
	// break outer must reach the return without re-entering the outer
	// loop header (an unlabeled break would land in the outer body and
	// have to iterate through the header again).
	avoid := func(b *cfgBlock) bool { return b == outerHeader }
	if c.witnessPath(breakBlk, ret, avoid) == nil {
		t.Errorf("break outer does not bypass the outer loop header:\n%s", c.dump(fset))
	}
}

func TestCFGSelect(t *testing.T) {
	fset, c := parseFuncCFG(t, `
func f(a, b chan int) int {
	select {
	case v := <-a:
		return v
	case <-b:
		return 0
	}
}`, cfgOptions{})
	recvA, recvB := blockAtLine(fset, c, 4), blockAtLine(fset, c, 6)
	if recvA == nil || recvB == nil {
		t.Fatalf("comm clause heads not found:\n%s", c.dump(fset))
	}
	if recvA == recvB {
		t.Fatalf("comm clauses share a block:\n%s", c.dump(fset))
	}
	for name, blk := range map[string]*cfgBlock{"case A": recvA, "case B": recvB} {
		if !reachable(c, c.Entry, blk) {
			t.Errorf("%s unreachable from entry:\n%s", name, c.dump(fset))
		}
		if !reachable(c, blk, c.Exit) {
			t.Errorf("%s does not reach exit:\n%s", name, c.dump(fset))
		}
	}
}

func TestCFGPanicSourceIsolation(t *testing.T) {
	fset, c := parseFuncCFG(t, `
func f() int {
	x := 1
	mayPanic()
	x = 2
	return x
}`, cfgOptions{PanicSource: func(n ast.Node) bool {
		found := false
		ast.Inspect(n, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "mayPanic" {
					found = true
				}
			}
			return !found
		})
		return found
	}})
	src := blockAtLine(fset, c, 4)
	if src == nil || !src.PanicSource {
		t.Fatalf("panic source not isolated:\n%s", c.dump(fset))
	}
	if len(src.Nodes) != 1 {
		t.Errorf("panic-source block holds %d nodes, want exactly the panicking statement", len(src.Nodes))
	}
	before, after := blockAtLine(fset, c, 3), blockAtLine(fset, c, 5)
	if before == src || after == src {
		t.Errorf("surrounding statements share the panic-source block:\n%s", c.dump(fset))
	}
}

func TestCFGExplicitPanic(t *testing.T) {
	fset, c := parseFuncCFG(t, `
func f(bad bool) int {
	if bad {
		panic("no")
	}
	return 1
}`, cfgOptions{})
	pb := blockAtLine(fset, c, 4)
	if pb == nil {
		t.Fatalf("panic statement block not found:\n%s", c.dump(fset))
	}
	hasEdge := false
	for _, e := range pb.Succs {
		if e.To == c.PanicExit {
			hasEdge = true
		}
		if e.To == c.Exit {
			t.Errorf("panic block reaches the normal exit")
		}
	}
	if !hasEdge {
		t.Errorf("explicit panic does not edge to the panic exit:\n%s", c.dump(fset))
	}
}

func TestCFGFallthrough(t *testing.T) {
	fset, c := parseFuncCFG(t, `
func f(x int) int {
	s := 0
	switch x {
	case 1:
		s++
		fallthrough
	case 2:
		s += 2
	default:
		s = 9
	}
	return s
}`, cfgOptions{})
	caseOne, caseTwo := blockAtLine(fset, c, 6), blockAtLine(fset, c, 9)
	if caseOne == nil || caseTwo == nil {
		t.Fatalf("case bodies not found:\n%s", c.dump(fset))
	}
	hasFall := false
	for _, e := range caseOne.Succs {
		if e.To == caseTwo {
			hasFall = true
		}
	}
	if !hasFall {
		t.Errorf("fallthrough does not chain case 1 into case 2:\n%s", c.dump(fset))
	}
}

func TestCFGBranchEdgesLabeled(t *testing.T) {
	fset, c := parseFuncCFG(t, `
func f(ok bool) int {
	if ok {
		return 1
	}
	return 0
}`, cfgOptions{})
	condBlk := blockAtLine(fset, c, 3)
	if condBlk == nil {
		t.Fatalf("condition block not found:\n%s", c.dump(fset))
	}
	var sawTrue, sawFalse bool
	for _, e := range condBlk.Succs {
		if e.Cond == nil {
			continue
		}
		if e.Neg {
			sawFalse = true
		} else {
			sawTrue = true
		}
	}
	if !sawTrue || !sawFalse {
		t.Errorf("if edges not labeled with the condition (true=%v false=%v):\n%s", sawTrue, sawFalse, c.dump(fset))
	}
}

func TestCFGDump(t *testing.T) {
	fset, c := parseFuncCFG(t, `
func f(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s += i
	}
	return s
}`, cfgOptions{})
	d := c.dump(fset)
	for _, want := range []string{"b0", "(true)", "(false)", "[return]"} {
		if !strings.Contains(d, want) {
			t.Errorf("dump missing %q:\n%s", want, d)
		}
	}
}
