package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// TwoPhase verifies the two-phase budget protocol path-sensitively: every
// Reserve must reach exactly one Commit or Release on every path out of
// the function — including early returns and the panic edges of the DP
// release sandwiched between the two phases.
//
// A Reservation is a hold on budget headroom. A hold that escapes on an
// early return is budget the accountant thinks is spoken for but that no
// release will ever justify — headroom leaks until process exit. A hold
// alive across a release call with no deferred Release leaks the same way
// when the release panics (mechanisms are exercised under fault injection
// precisely because they can). And a double Commit is a runtime panic by
// the Reservation contract. The check runs a forward dataflow over the
// function's CFG with one state machine per reservation variable
// (absent / held / done), refining on the `err != nil` and
// `errors.Is(err, ...)` guards that follow Reserve (on the error edge the
// reservation is nil, so nothing is held), treating `defer res.Release()`
// as covering every later exit (the canonical cleanup — a no-op after
// Commit), and treating a reservation that is returned or otherwise
// escapes as ownership transferred to the caller. Findings carry a
// block-path witness from the Reserve to the leaking exit.
var TwoPhase = register(&Analyzer{
	Name:     "twophase",
	Doc:      "every Reserve must reach exactly one Commit or Release on every path out (early returns and panic edges included)",
	Severity: Error,
	Run:      runTwoPhase,
})

func runTwoPhase(p *Pass) {
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
				twoPhaseScope(p, fd.Body, observers, obsLits)
			}
		}
	}
}

func twoPhaseScope(p *Pass, body *ast.BlockStmt, observers observerIndex, obsLits map[*ast.FuncLit]bool) {
	for _, lit := range directFuncLits(body) {
		if observers.isObserverScope(p.Pkg, lit) || obsLits[lit] {
			continue
		}
		twoPhaseScope(p, lit.Body, observers, obsLits)
	}

	hasSource := false
	inspectScope(body, func(n ast.Node) {
		if call, ok := n.(*ast.CallExpr); ok && returnsReservation(p.Pkg, call) {
			hasSource = true
		}
	})
	if !hasSource {
		return
	}

	rf := &resFlow{pkg: p.Pkg, sites: make(map[types.Object]*ast.CallExpr)}
	c := buildCFG(body, cfgOptions{
		PanicSource: func(n ast.Node) bool { return stmtHasReleaseCall(p.Pkg, n) },
	})
	in := solveForward(c, rf)

	type leak struct {
		res     types.Object
		kind    string // "return" | "panic" | "fallthrough"
		line    int    // line of the leaking exit / panicking release
		blk     *cfgBlock
		witness []string
	}
	leaks := make(map[types.Object]map[string]leak)
	record := func(res types.Object, kind string, line int, blk *cfgBlock) {
		if leaks[res] == nil {
			leaks[res] = make(map[string]leak)
		}
		if _, dup := leaks[res][kind]; dup {
			return
		}
		var witness []string
		if site := rf.sites[res]; site != nil {
			if srcBlk := blockEvaluating(c, site); srcBlk != nil {
				if path := c.witnessPath(srcBlk, blk, nil); path != nil {
					witness = c.trace(p.Fset, path)
				}
			}
		}
		leaks[res][kind] = leak{res: res, kind: kind, line: line, blk: blk, witness: witness}
	}

	for _, blk := range c.Blocks {
		fact, _ := in[blk].(*resFact)
		if fact == nil {
			continue
		}
		// A held, uncovered reservation at the moment a release panics is
		// lost: nothing downstream will ever Commit or Release it.
		if blk.PanicSource {
			for res, st := range fact.st {
				if st.bits&stHeld != 0 && !st.covered {
					record(res, "panic", p.Fset.Position(blk.Nodes[0].Pos()).Line, blk)
				}
			}
		}
		out := any(fact)
		for _, n := range blk.Nodes {
			if ret, ok := n.(*ast.ReturnStmt); ok {
				f := out.(*resFact)
				returned := returnedObjs(p.Pkg, ret)
				for res, st := range f.st {
					if st.bits&stHeld != 0 && !st.covered && !returned[res] {
						record(res, "return", p.Fset.Position(ret.Pos()).Line, blk)
					}
				}
			}
			// Double Commit is a runtime panic by contract; flag it where
			// the second Commit happens.
			if recv, kind := reservationOp(p.Pkg, n); kind == "commit" {
				f := out.(*resFact)
				if obj := identObj(p.Pkg, recv); obj != nil {
					if st, tracked := f.st[obj]; tracked && st.bits&stDone != 0 && st.bits&stHeld == 0 && st.bits&stAbsent == 0 {
						p.Reportf(n.Pos(), "reservation %q is already committed or released on every path reaching this Commit: Reservation.Commit panics on double-commit", obj.Name())
					}
				}
			}
			out = rf.Step(n, out)
		}
		// Fall-off-the-end exit: the implicit return at the closing brace.
		if blk.Return == nil {
			for _, e := range blk.Succs {
				if e.To == c.Exit {
					f := out.(*resFact)
					for res, st := range f.st {
						if st.bits&stHeld != 0 && !st.covered {
							record(res, "return", p.Fset.Position(body.Rbrace).Line, blk)
						}
					}
				}
			}
		}
	}

	// Deterministic order: by reserve-site position, returns before panics.
	var objs []types.Object
	for res := range leaks {
		objs = append(objs, res)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i].Pos() < objs[j].Pos() })
	for _, res := range objs {
		site := rf.sites[res]
		pos := res.Pos()
		if site != nil {
			pos = site.Pos()
		}
		if l, ok := leaks[res]["return"]; ok {
			p.ReportTrace(pos, l.witness,
				"reservation leak: the hold %q can reach the exit at line %d neither committed nor released, leaking budget headroom; commit on every path or add `defer %s.Release()`",
				res.Name(), l.line, res.Name())
		}
		if l, ok := leaks[res]["panic"]; ok {
			p.ReportTrace(pos, l.witness,
				"reservation leak on panic: if the release at line %d panics, the hold %q is neither committed nor released; add `defer %s.Release()` (a no-op after Commit) so the panic path frees it",
				l.line, res.Name(), res.Name())
		}
	}
}

// ---------------------------------------------------------------------------
// Reservation state flow.

const (
	stAbsent uint8 = 1 << iota // reservation is nil / never taken on this path
	stHeld                     // hold outstanding
	stDone                     // committed, released, or ownership transferred
)

// resState is the per-variable protocol state with a coverage flag: covered
// means a `defer res.Release()` registered earlier on this path will free
// the hold on every later exit, normal or panicking.
type resState struct {
	bits    uint8
	covered bool
}

// resFact maps reservation variables to their protocol state and error
// variables to the reservation whose Reserve bound them (so branch edges
// on `err != nil` can refine the state: a failed Reserve holds nothing).
type resFact struct {
	st  map[types.Object]resState
	err map[types.Object]types.Object
}

func (f *resFact) clone() *resFact {
	if f == nil {
		return nil
	}
	c := &resFact{
		st:  make(map[types.Object]resState, len(f.st)),
		err: make(map[types.Object]types.Object, len(f.err)),
	}
	for k, v := range f.st {
		c.st[k] = v
	}
	for k, v := range f.err {
		c.err[k] = v
	}
	return c
}

type resFlow struct {
	pkg *Package
	// sites records the first Reserve (or other reservation-returning)
	// call assigned to each tracked variable, for report anchoring.
	sites map[types.Object]*ast.CallExpr
}

func (rf *resFlow) Bottom() any { return (*resFact)(nil) }
func (rf *resFlow) Entry() any {
	return &resFact{st: map[types.Object]resState{}, err: map[types.Object]types.Object{}}
}

func (rf *resFlow) Merge(a, b any) any {
	fa, fb := a.(*resFact), b.(*resFact)
	if fa == nil {
		return fb
	}
	if fb == nil {
		return fa
	}
	m := &resFact{st: make(map[types.Object]resState), err: make(map[types.Object]types.Object)}
	for res, sa := range fa.st {
		if sb, ok := fb.st[res]; ok {
			m.st[res] = resState{bits: sa.bits | sb.bits, covered: sa.covered && sb.covered}
		} else {
			// Unreserved on the other path: absent there.
			m.st[res] = resState{bits: sa.bits | stAbsent, covered: sa.covered}
		}
	}
	for res, sb := range fb.st {
		if _, ok := fa.st[res]; !ok {
			m.st[res] = resState{bits: sb.bits | stAbsent, covered: sb.covered}
		}
	}
	// Error bindings survive a join only when both paths agree.
	for e, r := range fa.err {
		if fb.err[e] == r {
			m.err[e] = r
		}
	}
	return m
}

func (rf *resFlow) Equal(a, b any) bool {
	fa, fb := a.(*resFact), b.(*resFact)
	if fa == nil || fb == nil {
		return fa == fb
	}
	if len(fa.st) != len(fb.st) || len(fa.err) != len(fb.err) {
		return false
	}
	for k, v := range fa.st {
		if fb.st[k] != v {
			return false
		}
	}
	for k, v := range fa.err {
		if fb.err[k] != v {
			return false
		}
	}
	return true
}

// Refine applies guard knowledge on conditional edges: after
// `res, err := acct.Reserve(g)`, the `err != nil` edge carries res == nil
// (absent), and the `err == nil` edge carries a live hold.
// `errors.Is(err, ...)` refines the true edge only (its false edge says
// nothing about err's nilness).
func (rf *resFlow) Refine(e cfgEdge, f any) any {
	fact := f.(*resFact)
	if fact == nil || len(fact.err) == 0 {
		return f
	}
	errObj, errNonNilWhenTrue, exhaustive := errGuard(rf.pkg, e.Cond)
	if errObj == nil {
		return f
	}
	res, bound := fact.err[errObj]
	if !bound {
		return f
	}
	errNonNil := errNonNilWhenTrue != e.Neg
	out := fact.clone()
	st := out.st[res]
	if errNonNil {
		// Reserve failed: nothing is held on this path.
		st.bits = stAbsent
		out.st[res] = st
	} else if exhaustive {
		// err == nil exactly: the hold is live.
		if st.bits&^stAbsent != 0 {
			st.bits &^= stAbsent
			out.st[res] = st
		}
	}
	return out
}

// errGuard decodes a branch condition over an error variable, returning
// the variable, whether the TRUE outcome implies err != nil, and whether
// the FALSE outcome implies err == nil (exhaustive). Recognized forms:
// err != nil, err == nil (both exhaustive), errors.Is(err, target)
// (true ⟹ err != nil; false says nothing).
func errGuard(pkg *Package, cond ast.Expr) (types.Object, bool, bool) {
	cond = unparen(cond)
	switch c := cond.(type) {
	case *ast.BinaryExpr:
		if c.Op != token.NEQ && c.Op != token.EQL {
			return nil, false, false
		}
		x, y := unparen(c.X), unparen(c.Y)
		if isNilIdent(y) {
			if obj := identObj(pkg, x); obj != nil && isErrorType(obj.Type()) {
				return obj, c.Op == token.NEQ, true
			}
		}
		if isNilIdent(x) {
			if obj := identObj(pkg, y); obj != nil && isErrorType(obj.Type()) {
				return obj, c.Op == token.NEQ, true
			}
		}
	case *ast.CallExpr:
		sel, ok := c.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Is" || len(c.Args) < 1 {
			return nil, false, false
		}
		if obj := identObj(pkg, unparen(c.Args[0])); obj != nil && isErrorType(obj.Type()) {
			return obj, true, false
		}
	}
	return nil, false, false
}

func (rf *resFlow) Step(n ast.Node, f any) any {
	fact := f.(*resFact)
	if fact == nil {
		return fact
	}
	out := fact.clone()
	switch st := n.(type) {
	case *ast.AssignStmt:
		rf.stepAssign(st, out)
		return out
	case *ast.DeferStmt:
		if recv, kind := deferredReservationOp(rf.pkg, st); recv != nil {
			if obj := identObj(rf.pkg, recv); obj != nil {
				if s, tracked := out.st[obj]; tracked {
					// Deferred Release (or Commit) covers every later exit.
					s.covered = true
					out.st[obj] = s
					_ = kind
					return out
				}
			}
		}
		rf.escapeWalk(n, out, nil)
		return out
	case *ast.ReturnStmt:
		// Returning the reservation transfers ownership to the caller.
		returned := returnedObjs(rf.pkg, st)
		for res := range returned {
			if s, tracked := out.st[res]; tracked {
				s.bits = stDone
				out.st[res] = s
			}
		}
		rf.escapeWalk(n, out, returned)
		return out
	}
	if recv, kind := reservationOp(rf.pkg, n); recv != nil {
		if obj := identObj(rf.pkg, recv); obj != nil {
			if s, tracked := out.st[obj]; tracked {
				switch kind {
				case "commit", "release":
					// nil reservations no-op, so absence survives; any held
					// or done state collapses to done.
					s.bits = (s.bits & stAbsent) | stDone
					out.st[obj] = s
				}
				return out
			}
		}
	}
	rf.escapeWalk(n, out, nil)
	return out
}

// stepAssign tracks reservation bindings: an assignment whose RHS call
// returns a reservation starts (or restarts) the protocol for the bound
// variable and binds its error result for guard refinement; overwriting a
// tracked variable from any other source ends tracking.
func (rf *resFlow) stepAssign(st *ast.AssignStmt, fact *resFact) {
	if len(st.Rhs) == 1 {
		if call, ok := unparen(st.Rhs[0]).(*ast.CallExpr); ok && returnsReservation(rf.pkg, call) {
			var resObj, errObj types.Object
			for _, l := range st.Lhs {
				obj := identObj(rf.pkg, l)
				if obj == nil {
					continue
				}
				switch {
				case isReservationType(obj.Type()):
					resObj = obj
				case isErrorType(obj.Type()):
					errObj = obj
				}
			}
			if resObj != nil {
				fact.st[resObj] = resState{bits: stHeld}
				if rf.sites[resObj] == nil {
					rf.sites[resObj] = call
				}
				// Rebind: this err now guards this reservation; any stale
				// binding of the same err is gone.
				for e, r := range fact.err {
					if e == errObj || r == resObj {
						delete(fact.err, e)
					}
				}
				if errObj != nil {
					fact.err[errObj] = resObj
				}
				// Arguments of the source call itself are not escapes.
				return
			}
		}
	}
	// Non-source assignment: overwritten reservation vars stop being
	// tracked (conservative — aliasing is rare in this protocol), and
	// rebound error vars lose their guard meaning.
	for _, l := range st.Lhs {
		if obj := identObj(rf.pkg, l); obj != nil {
			delete(fact.st, obj)
			delete(fact.err, obj)
		}
	}
	rf.escapeWalk(st, fact, nil)
}

// escapeWalk drops tracking for reservation variables that escape through
// n — passed as a call argument, captured by a closure, stored, or
// address-taken. An escaped hold is someone else's obligation; flagging
// it here would double-report ownership transfers like a helper returning
// its reservation to the caller.
func (rf *resFlow) escapeWalk(n ast.Node, fact *resFact, exempt map[types.Object]bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		// Receiver positions of the protocol methods are uses, not escapes.
		if call, ok := m.(*ast.CallExpr); ok {
			if sel, isSel := call.Fun.(*ast.SelectorExpr); isSel {
				switch sel.Sel.Name {
				case "Commit", "Release", "Amount":
					if obj := identObj(rf.pkg, sel.X); obj != nil {
						if _, tracked := fact.st[obj]; tracked {
							// Walk the arguments only.
							for _, a := range call.Args {
								rf.escapeWalk(a, fact, exempt)
							}
							return false
						}
					}
				}
			}
		}
		id, ok := m.(*ast.Ident)
		if !ok {
			return true
		}
		obj := rf.pkg.Info.ObjectOf(id)
		if obj == nil || exempt[obj] {
			return true
		}
		if _, tracked := fact.st[obj]; tracked && isReservationType(obj.Type()) {
			delete(fact.st, obj)
			for e, r := range fact.err {
				if r == obj {
					delete(fact.err, e)
				}
			}
		}
		return true
	})
}

// ---------------------------------------------------------------------------
// Structural recognition.

// isReservationType reports whether t is a two-phase budget hold: a
// (pointer to) named Reservation, or any type following the hold
// protocol structurally (Commit/Release/Amount→Guarantee — see
// isTwoPhaseHold), such as the WAL-logged wal.Txn. A durable hold must
// obey the same reach-exactly-one-settlement discipline as the
// in-memory one: a Txn that escapes uncommitted and unreleased is a
// leaked intent.
func isReservationType(t types.Type) bool {
	return namedName(t) == "Reservation" || isTwoPhaseHold(t)
}

// returnsReservation reports whether call's results include a reservation
// handle: Accountant.Reserve itself, or any helper forwarding one (the
// widen-and-retry pattern returns the replacement hold to its caller).
func returnsReservation(pkg *Package, call *ast.CallExpr) bool {
	tv, ok := pkg.Info.Types[call]
	if !ok || tv.Type == nil {
		return false
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isReservationType(t.At(i).Type()) {
				return true
			}
		}
		return false
	default:
		return isReservationType(t)
	}
}

// reservationOp decodes a direct Commit/Release call on a reservation
// receiver inside statement n, returning the receiver expression and
// "commit" or "release" ("" when none).
func reservationOp(pkg *Package, n ast.Node) (ast.Expr, string) {
	var recv ast.Expr
	kind := ""
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok || kind != "" {
			return kind == ""
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if !isReservationType(pkg.Info.TypeOf(sel.X)) {
			return true
		}
		switch sel.Sel.Name {
		case "Commit":
			recv, kind = sel.X, "commit"
		case "Release":
			recv, kind = sel.X, "release"
		}
		return true
	})
	return recv, kind
}

// deferredReservationOp matches `defer res.Release()` / `defer res.Commit(...)`.
func deferredReservationOp(pkg *Package, st *ast.DeferStmt) (ast.Expr, string) {
	sel, ok := st.Call.Fun.(*ast.SelectorExpr)
	if !ok || !isReservationType(pkg.Info.TypeOf(sel.X)) {
		return nil, ""
	}
	switch sel.Sel.Name {
	case "Release":
		return sel.X, "release"
	case "Commit":
		return sel.X, "commit"
	}
	return nil, ""
}

// stmtHasReleaseCall reports whether n evaluates a DP release (outside
// nested function literals) — the panic sources that matter for holds.
func stmtHasReleaseCall(pkg *Package, n ast.Node) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := m.(*ast.CallExpr); ok && isReleaseCall(pkg, call) {
			found = true
		}
		return !found
	})
	return found
}

// returnedObjs collects the objects returned directly by ret.
func returnedObjs(pkg *Package, ret *ast.ReturnStmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	for _, r := range ret.Results {
		if obj := identObj(pkg, unparen(r)); obj != nil {
			out[obj] = true
		}
	}
	return out
}

// blockEvaluating finds the block whose nodes contain call.
func blockEvaluating(c *cfg, call ast.Expr) *cfgBlock {
	for _, blk := range c.Blocks {
		for _, n := range blk.Nodes {
			found := false
			ast.Inspect(n, func(m ast.Node) bool {
				if m == call {
					found = true
				}
				return !found
			})
			if found {
				return blk
			}
		}
	}
	return nil
}

func identObj(pkg *Package, e ast.Expr) types.Object {
	id, ok := unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	return pkg.Info.ObjectOf(id)
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
