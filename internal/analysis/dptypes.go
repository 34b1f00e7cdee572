package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Structural recognition of the repository's DP vocabulary. The checks
// must work on golden-test fixtures as well as the real tree, so nothing
// here keys on the module path: a "mechanism" is any named type carrying
// both a Release and a Guarantee method, an "accountant spend" is any
// method named Spend taking a single Guarantee-typed argument, and "raw
// data" is any value of a type named Dataset or Example (or a container
// of them).

// hasMethod reports whether t (or its pointer type) has a method with the
// given exported name.
func hasMethod(t types.Type, name string) bool {
	if t == nil {
		return false
	}
	obj, _, _ := types.LookupFieldOrMethod(t, true, nil, name)
	_, ok := obj.(*types.Func)
	return ok
}

// namedName returns the name of the (possibly pointed-to) named type, or
// "".
func namedName(t types.Type) string {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Named:
			return u.Obj().Name()
		default:
			return ""
		}
	}
}

// methodRecv returns the receiver expression and type of a method call,
// or (nil, nil) for ordinary and package-qualified calls.
func methodRecv(pkg *Package, call *ast.CallExpr) (ast.Expr, types.Type) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, nil
	}
	if id, ok := sel.X.(*ast.Ident); ok {
		if _, isPkg := pkg.Info.Uses[id].(*types.PkgName); isPkg {
			return nil, nil
		}
	}
	return sel.X, pkg.Info.TypeOf(sel.X)
}

// isTwoPhaseHold reports whether t follows the two-phase hold protocol
// structurally: Commit and Release protocol methods plus an Amount
// method returning the held Guarantee. mechanism.Reservation is the
// in-memory archetype; wal.Txn — the WAL transaction that must be
// settled by a durable commit or a release — is the durable one. The
// two-phase flow check holds any such type to settle-exactly-once
// without keying on its name or import path. Only a Reservation's Commit charges: a durable
// intent's Commit makes an outcome durable, and the spend it records was
// committed on the accountant.
func isTwoPhaseHold(t types.Type) bool {
	if t == nil || !hasMethod(t, "Commit") || !hasMethod(t, "Release") {
		return false
	}
	obj, _, _ := types.LookupFieldOrMethod(t, true, nil, "Amount")
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Params().Len() == 0 && sig.Results().Len() == 1 &&
		namedName(sig.Results().At(0).Type()) == "Guarantee"
}

// isReleaseCall reports whether call releases DP-protected output: a
// Release method on a Guarantee-bearing type, or a posterior Sample /
// SampleTheta on a Guarantee-bearing type (the Gibbs estimator's
// release operation, Theorem 4.1). A
// Reservation's Release is NOT a DP release: reservations bear no
// Guarantee method, so the receiver test excludes them structurally.
func isReleaseCall(pkg *Package, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	case "Release", "Sample", "SampleTheta":
	default:
		return false
	}
	_, recv := methodRecv(pkg, call)
	return recv != nil && hasMethod(recv, "Guarantee")
}

// isSpendCall reports whether call registers a guarantee with an
// accountant: a method named Spend whose single parameter has a named
// type Guarantee, or a method named SpendDetail whose first parameter
// does (the ledger-metadata variant — same accounting act, extra
// observability payload), or a method named Commit on a Reservation.
// Commit is the second half of the two-phase Reserve/Commit protocol:
// the guarantee was admitted at Reserve time, and Commit is the act that
// turns the hold into a ledger record — so Reserve+Commit jointly
// satisfy the must-spend rule. A durable intent's Commit (wal.Txn) is
// not one: it charges nothing.
func isSpendCall(pkg *Package, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if sel.Sel.Name == "Commit" {
		_, recv := methodRecv(pkg, call)
		return recv != nil && namedName(recv) == "Reservation"
	}
	if sel.Sel.Name != "Spend" && sel.Sel.Name != "SpendDetail" {
		return false
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Params().Len() < 1 {
		return false
	}
	if sel.Sel.Name == "Spend" && sig.Params().Len() != 1 {
		return false
	}
	return namedName(sig.Params().At(0).Type()) == "Guarantee"
}

// isAccessLogger reports whether t is an access-logger type: a named
// type carrying a Record method whose single parameter has a named type
// AccessRecord. An access logger is telemetry plumbing — it transcribes
// already-released, already-accounted request outcomes (trace id, status,
// quoted vs. spent ε) into an NDJSON stream — so its methods are observer
// scopes structurally, the same way a Release+Guarantee method pair makes
// a type a mechanism: no //dp:observer comment required.
func isAccessLogger(t types.Type) bool {
	if t == nil {
		return false
	}
	obj, _, _ := types.LookupFieldOrMethod(t, true, nil, "Record")
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Params().Len() != 1 {
		return false
	}
	return namedName(sig.Params().At(0).Type()) == "AccessRecord"
}

// isAccessLogScope reports whether fd is a method of an access-logger
// type: the structural half of the observer exemption, covering tracing
// plumbing that acctlint/postproc/twophase must never flag.
func isAccessLogScope(p *Pass, fd *ast.FuncDecl) bool {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return false
	}
	return isAccessLogger(p.TypeOf(fd.Recv.List[0].Type))
}

// observerPrefix introduces a function-level observer exemption:
//
//	//dp:observer <reason>
//
// placed on, or on the line above, a function declaration or function
// literal. An observer function inspects a mechanism's releases without
// making them part of a production release path: an audit harness that
// samples the output distribution to estimate realized ε, a trace sink
// replaying ledger records. acctlint and postproc skip observer scopes
// as a unit — the releases they see are measurements, not spends — which
// is a structural statement about the function's role, unlike a
// //dplint:ignore line suppression that merely mutes one finding.
const observerPrefix = "//dp:observer"

// observerDirective is one parsed //dp:observer comment.
type observerDirective struct {
	reason string
	pos    token.Pos
}

// observerIndex maps "<filename>:<line>" of a function's anchor line to
// its directive. Like //dp:sensitivity, a directive on line L anchors a
// function starting on L (trailing comment) or L+1 (comment above).
type observerIndex map[string]*observerDirective

// buildObserverIndex parses every //dp:observer directive in pkg.
// Well-formed ones land in the index; directives that omit the
// mandatory reason are returned for acctlint to report.
func buildObserverIndex(pkg *Package) (observerIndex, []token.Pos) {
	idx := make(observerIndex)
	var bad []token.Pos
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, observerPrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, observerPrefix)
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue // e.g. //dp:observerXYZ is not a directive
				}
				if strings.TrimSpace(rest) == "" {
					bad = append(bad, c.Pos())
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				d := &observerDirective{reason: strings.TrimSpace(rest), pos: c.Pos()}
				for _, l := range []int{pos.Line, pos.Line + 1} {
					idx[fmt.Sprintf("%s:%d", pos.Filename, l)] = d
				}
			}
		}
	}
	return idx, bad
}

// isObserverScope reports whether node — a *ast.FuncDecl or a
// *ast.FuncLit — starts on a line anchored by a //dp:observer directive.
func (idx observerIndex) isObserverScope(pkg *Package, node ast.Node) bool {
	if len(idx) == 0 || node == nil {
		return false
	}
	pos := pkg.Fset.Position(node.Pos())
	return idx[fmt.Sprintf("%s:%d", pos.Filename, pos.Line)] != nil
}

// isObserverFunc reports whether fn is declared under a //dp:observer
// directive in its own package — the cross-package half of observer
// propagation. Per-package indexes are cached on the Program.
func (pr *Program) isObserverFunc(fn *types.Func) bool {
	if pr == nil || fn == nil {
		return false
	}
	node := pr.NodeOf(fn)
	if node == nil {
		return false
	}
	if pr.obsIdx == nil {
		pr.obsIdx = make(map[*Package]observerIndex)
	}
	idx, ok := pr.obsIdx[node.Pkg]
	if !ok {
		idx, _ = buildObserverIndex(node.Pkg)
		pr.obsIdx[node.Pkg] = idx
	}
	return idx.isObserverScope(node.Pkg, node.Decl)
}

// observerArgLits returns the function literals in file passed directly
// as arguments to calls whose statically-resolved callee is an
// observer-annotated function (possibly in another analyzed package).
// Handing a closure to an observer entry point — an audit harness that
// samples it to estimate realized ε — makes the closure part of the
// measurement, so acctlint and postproc treat it as an observer scope
// without a per-call-site directive.
func observerArgLits(pkg *Package, prog *Program, file *ast.File) map[*ast.FuncLit]bool {
	out := make(map[*ast.FuncLit]bool)
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pkg, call)
		if fn == nil || !prog.isObserverFunc(fn) {
			return true
		}
		for _, a := range call.Args {
			if lit, isLit := a.(*ast.FuncLit); isLit {
				out[lit] = true
			}
		}
		return true
	})
	return out
}

// isRawDataType reports whether t holds raw (pre-release) sample data: a
// Dataset or Example type, a pointer or slice of one.
func isRawDataType(t types.Type) bool {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Named:
			n := u.Obj().Name()
			return n == "Dataset" || n == "Example"
		default:
			return false
		}
	}
}
