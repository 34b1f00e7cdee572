package analysis

import (
	"go/ast"
	"go/types"
)

// PostProc enforces post-processing hygiene around releases.
//
// Differential privacy is closed under post-processing: anything computed
// from a released value alone inherits its guarantee. The converse
// mistake — branching on the *raw* data after a release in the same
// function — silently widens the privacy channel: the control flow (and
// everything it selects) becomes a second, unaccounted query.
//
// The check is order-aware: it runs the flow-sensitive taint analysis
// (flow.go) over the function's CFG (cfg.go) and flags an if-condition,
// for-condition, or switch tag only when, at that program point, (1) a DP
// release may already have happened on some path reaching it AND (2) the
// condition may still carry a raw-derived value on that path. Both parts
// matter: a branch that is textually below a release but only reachable
// on release-free paths is clean, and re-assigning a variable to a
// released (or otherwise clean) value kills its taint — `x = out` after
// `out := m.Release(...)` launders x for good. Helper calls consult an
// interprocedural summary through the call graph, so a helper that only
// derives public scalars (d.Len()) from its raw argument stays clean.
// Findings carry a block-path witness from the release to the branch.
//
// Ranging over the raw data again is allowed — feeding it to a second
// mechanism is composition, priced by acctlint, not a violation. Public
// scalars (d.Len(), error values) are clean.
var PostProc = register(&Analyzer{
	Name:     "postproc",
	Doc:      "no branching on raw (pre-release) data after a release on the same path; post-processing may only consume released values",
	Severity: Error,
	Run:      runPostProc,
})

func runPostProc(p *Pass) {
	observers, _ := buildObserverIndex(p.Pkg) // malformed directives are acctlint's to report
	for _, file := range p.Pkg.Files {
		if p.IsTestFile(file.Pos()) {
			continue
		}
		obsLits := observerArgLits(p.Pkg, p.Prog, file)
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if observers.isObserverScope(p.Pkg, fd) || isAccessLogScope(p, fd) {
					continue
				}
				postProcScope(p, fd.Body, observers, obsLits)
			}
		}
	}
}

// postProcScope analyzes one function scope. Nested function literals are
// analyzed as scopes of their own (a closure handed to an audit harness
// or a quality function runs in a different dynamic context than the
// statements around it), and are excluded from the enclosing scope's
// release/branch accounting. Literals marked //dp:observer — directly or
// by being passed to an observer-annotated entry point — are skipped: an
// observer's branches steer a measurement harness, not a release path.
func postProcScope(p *Pass, body *ast.BlockStmt, observers observerIndex, obsLits map[*ast.FuncLit]bool) {
	for _, lit := range directFuncLits(body) {
		if observers.isObserverScope(p.Pkg, lit) || obsLits[lit] {
			continue
		}
		postProcScope(p, lit.Body, observers, obsLits)
	}

	// Fast path: a scope with no release has nothing to post-process.
	hasRelease := false
	inspectScope(body, func(n ast.Node) {
		if call, ok := n.(*ast.CallExpr); ok && isReleaseCall(p.Pkg, call) {
			hasRelease = true
		}
	})
	if !hasRelease {
		return
	}

	// Map branch-condition expressions to the report kind of their
	// statement, so the CFG replay knows which evaluated expressions are
	// control decisions.
	kinds := make(map[ast.Expr]string)
	inspectScope(body, func(n ast.Node) {
		switch st := n.(type) {
		case *ast.IfStmt:
			kinds[st.Cond] = "branch"
		case *ast.ForStmt:
			if st.Cond != nil {
				kinds[st.Cond] = "loop bound"
			}
		case *ast.SwitchStmt:
			if st.Tag != nil {
				kinds[st.Tag] = "switch"
			}
		}
	})
	if len(kinds) == 0 {
		return
	}

	tf := newTaintFlow(p.Pkg, p.Prog,
		func(obj types.Object) bool {
			v, ok := obj.(*types.Var)
			return ok && isRawDataType(v.Type())
		},
		func(call *ast.CallExpr) bool { return isSanitizer(p.Pkg, call) },
		func(call *ast.CallExpr) bool { return isReleaseCall(p.Pkg, call) },
	)
	c := buildCFG(body, cfgOptions{})
	in := solveForward(c, tf)

	// Release blocks anchor witness traces and the "after the release at
	// line N" wording.
	var releases []relSite
	for _, blk := range c.Blocks {
		for _, n := range blk.Nodes {
			ast.Inspect(n, func(m ast.Node) bool {
				if _, ok := m.(*ast.FuncLit); ok {
					return false
				}
				if call, ok := m.(*ast.CallExpr); ok && isReleaseCall(p.Pkg, call) {
					releases = append(releases, relSite{blk: blk, call: call})
				}
				return true
			})
		}
	}

	// Replay the transfer function per block: at each condition node the
	// running fact is exactly the state when the branch decides.
	for _, blk := range c.Blocks {
		fact, _ := in[blk].(*taintFact)
		if fact == nil {
			continue // unreachable
		}
		out := any(fact)
		for _, n := range blk.Nodes {
			if cond, ok := n.(ast.Expr); ok {
				if kind, isBranch := kinds[cond]; isBranch {
					f := out.(*taintFact)
					if f.released && tf.exprTainted(cond, f) {
						reportPostProc(p, c, blk, cond, kind, releases)
					}
				}
			}
			out = tf.Step(n, out)
		}
	}
}

// relSite is one DP release call and the CFG block evaluating it.
type relSite struct {
	blk  *cfgBlock
	call *ast.CallExpr
}

// reportPostProc emits one finding with a witness path from a release
// block that reaches the branch.
func reportPostProc(p *Pass, c *cfg, condBlk *cfgBlock, cond ast.Expr, kind string, releases []relSite) {
	var witness []string
	relLine := 0
	for _, r := range releases {
		if path := c.witnessPath(r.blk, condBlk, nil); path != nil {
			witness = c.trace(p.Fset, path)
			relLine = p.Fset.Position(r.call.Pos()).Line
			break
		}
	}
	if relLine == 0 && len(releases) > 0 {
		// The release reaching this point sits in the same block after a
		// loop back edge or similar; fall back to the first site.
		relLine = p.Fset.Position(releases[0].call.Pos()).Line
		witness = c.trace(p.Fset, []*cfgBlock{releases[0].blk, condBlk})
	}
	p.ReportTrace(cond.Pos(), witness,
		"%s on raw (pre-release) data after the release at line %d: data-dependent control flow is an unaccounted query; branch on released values only",
		kind, relLine)
}

// isSanitizer reports whether call launders raw data into a clean value:
// a DP release, or a public scalar of the data (its size).
func isSanitizer(pkg *Package, call *ast.CallExpr) bool {
	if isReleaseCall(pkg, call) {
		return true
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	return sel.Sel.Name == "Len"
}

// directFuncLits returns the outermost function literals in body.
func directFuncLits(body *ast.BlockStmt) []*ast.FuncLit {
	var out []*ast.FuncLit
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			out = append(out, lit)
			return false
		}
		return true
	})
	return out
}

// inspectScope visits every node of body except the interiors of nested
// function literals.
func inspectScope(body *ast.BlockStmt, f func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			f(n)
		}
		return true
	})
}
