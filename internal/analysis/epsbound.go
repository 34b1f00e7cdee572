package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"math"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// epsbound is the interprocedural symbolic budget-bound analysis: for every
// exported entry point (the repro facade, the core/learn/svt release paths,
// and every serve handler) it folds the quoted (ε, δ) of each accountant
// charge — Spend, SpendDetail, or a two-phase Reserve — through the
// function's control structure and the call graph, producing a worst-case
// symbolic budget bound per entry point. Sequential charges sum, branches
// take the symbolic max, and loops multiply their per-iteration cost by a
// //dp:loopbound k=<expr> annotation; a loop that charges budget without
// such an annotation certifies as ⊤ ("unbounded"), which is a finding.
//
// The bound algebra is deliberately small: constants, opaque symbols
// (source expressions such as cfg.Epsilon), n-ary sums, maxes, and
// products with a constant coefficient. Division folds to a reciprocal
// factor "1/(X)" that cancels multiplicatively against an equal-text
// factor, which is exactly what makes per-quantile splits like
// part/len(cfg.Quantiles) iterated len(cfg.Quantiles) times fold back to
// the advertised total. Per-function summaries carry parameter markers
// ($p<i>, $p<i>.Epsilon, …) that call sites substitute with their argument
// expressions, so a handler quoting req.Epsilon into a shared two-phase
// wrapper certifies as exactly "req.Epsilon".
//
// Function literals passed as call arguments are NOT charged to the
// enclosing function: under the serve layer's quoted-guarantee contract
// the wrapper receiving the closure is the party that quotes (and is
// charged for) the work, and counting both sides would double the bound.
// Immediately-invoked literals (func(){…}(), go func(){…}()) are inlined.
// Calls that cannot be resolved statically (interface methods, function
// values) contribute zero; every release in this tree charges through a
// concrete Accountant method, which is what the analysis keys on.

// BoundEntryPoints documents which functions receive certificates when the
// module under analysis is the repro tree itself; fixture modules certify
// every exported function instead. See entryNodes.

const maxBoundEvents = 48

// ---------------------------------------------------------------------------
// Bound algebra.

type boundKind int

const (
	boundConst boundKind = iota
	boundSym
	boundAdd
	boundMax
	boundMul
	boundTop
)

// bound is one symbolic budget expression. For boundMul, c is the constant
// coefficient and args the non-constant factors; for boundAdd/boundMax,
// args are the terms; boundSym carries the source text of an opaque term.
type bound struct {
	kind boundKind
	c    float64
	sym  string
	args []*bound
}

func constBound(c float64) *bound { return &bound{kind: boundConst, c: c} }
func symBound(s string) *bound    { return &bound{kind: boundSym, sym: s} }

var topBound = &bound{kind: boundTop}

func (b *bound) isTop() bool { return b != nil && b.kind == boundTop }

func (b *bound) constVal() (float64, bool) {
	if b != nil && b.kind == boundConst {
		return b.c, true
	}
	return 0, false
}

func (b *bound) isZero() bool {
	v, ok := b.constVal()
	return ok && v == 0 //dplint:ignore floateq exact sentinel: a zero bound is constructed only as the literal constBound(0)
}

func (b *bound) String() string {
	switch b.kind {
	case boundConst:
		return strconv.FormatFloat(b.c, 'g', -1, 64)
	case boundSym:
		return b.sym
	case boundTop:
		return "unbounded"
	case boundAdd:
		parts := make([]string, 0, len(b.args))
		for _, a := range b.args {
			parts = append(parts, a.String())
		}
		return strings.Join(parts, " + ")
	case boundMax:
		parts := make([]string, 0, len(b.args))
		for _, a := range b.args {
			parts = append(parts, a.String())
		}
		return "max(" + strings.Join(parts, ", ") + ")"
	case boundMul:
		var parts []string
		if b.c != 1 || len(b.args) == 0 { //dplint:ignore floateq exact sentinel: the neutral coefficient is assigned only as the literal 1
			parts = append(parts, strconv.FormatFloat(b.c, 'g', -1, 64))
		}
		for _, a := range b.args {
			s := a.String()
			if a.kind == boundAdd || a.kind == boundMax {
				s = "(" + s + ")"
			}
			parts = append(parts, s)
		}
		return strings.Join(parts, "*")
	}
	return "?"
}

// addBounds sums, flattening nested sums, folding constants, and merging
// like terms by their rendered body (0.5ε + 0.5ε = ε).
func addBounds(bs ...*bound) *bound {
	var flat []*bound
	var walk func(*bound)
	walk = func(b *bound) {
		if b == nil {
			return
		}
		if b.kind == boundAdd {
			for _, a := range b.args {
				walk(a)
			}
			return
		}
		flat = append(flat, b)
	}
	for _, b := range bs {
		walk(b)
	}
	constSum := 0.0
	type likeTerm struct {
		coef float64
		body *bound
	}
	var order []string
	terms := make(map[string]*likeTerm)
	for _, b := range flat {
		if b.isTop() {
			return topBound
		}
		if v, ok := b.constVal(); ok {
			constSum += v
			continue
		}
		coef, body := 1.0, b
		if b.kind == boundMul {
			coef = b.c
			if len(b.args) == 1 {
				body = b.args[0]
			} else {
				body = &bound{kind: boundMul, c: 1, args: b.args}
			}
		}
		key := body.String()
		if t, ok := terms[key]; ok {
			t.coef += coef
		} else {
			terms[key] = &likeTerm{coef: coef, body: body}
			order = append(order, key)
		}
	}
	var out []*bound
	if constSum != 0 { //dplint:ignore floateq exact sentinel: dropping an exact-zero constant term, not comparing measurements
		out = append(out, constBound(constSum))
	}
	for _, key := range order {
		t := terms[key]
		if t.coef == 0 { //dplint:ignore floateq exact sentinel: coefficients that cancel to exactly zero drop; near-zero must render honestly
			continue
		}
		out = append(out, mulBounds(constBound(t.coef), t.body))
	}
	switch len(out) {
	case 0:
		return constBound(0)
	case 1:
		return out[0]
	}
	return &bound{kind: boundAdd, args: out}
}

// maxBounds takes the symbolic maximum. ε costs are nonnegative, so a
// constant 0 alternative is absorbed by any symbolic one.
func maxBounds(bs ...*bound) *bound {
	var flat []*bound
	var walk func(*bound)
	walk = func(b *bound) {
		if b == nil {
			return
		}
		if b.kind == boundMax {
			for _, a := range b.args {
				walk(a)
			}
			return
		}
		flat = append(flat, b)
	}
	for _, b := range bs {
		walk(b)
	}
	haveConst, constMax := false, 0.0
	var out []*bound
	seen := make(map[string]bool)
	for _, b := range flat {
		if b.isTop() {
			return topBound
		}
		if v, ok := b.constVal(); ok {
			if !haveConst || v > constMax {
				constMax = v
			}
			haveConst = true
			continue
		}
		key := b.String()
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, b)
	}
	if haveConst && !(constMax == 0 && len(out) > 0) { //dplint:ignore floateq exact sentinel: max(0, X) absorbs only the exact zero alternative
		out = append([]*bound{constBound(constMax)}, out...)
	}
	switch len(out) {
	case 0:
		return constBound(0)
	case 1:
		return out[0]
	}
	return &bound{kind: boundMax, args: out}
}

// factorsOf decomposes b into (constant coefficient, non-constant factors).
func factorsOf(b *bound) (float64, []*bound) {
	switch b.kind {
	case boundConst:
		return b.c, nil
	case boundMul:
		return b.c, b.args
	}
	return 1, []*bound{b}
}

// mulBounds multiplies, cancelling reciprocal factors: a symbolic factor
// rendered "1/(X)" annihilates a factor rendered exactly "X".
func mulBounds(a, b *bound) *bound {
	if a == nil || b == nil || a.isTop() || b.isTop() {
		return topBound
	}
	ca, fa := factorsOf(a)
	cb, fb := factorsOf(b)
	coef := ca * cb
	factors := cancelFactors(append(append([]*bound{}, fa...), fb...))
	if coef == 0 || len(factors) == 0 { //dplint:ignore floateq exact sentinel: annihilation applies only to the exact zero coefficient
		return constBound(coef)
	}
	if coef == 1 && len(factors) == 1 { //dplint:ignore floateq exact sentinel: unwrapping the exact neutral coefficient is a rendering choice
		return factors[0]
	}
	return &bound{kind: boundMul, c: coef, args: factors}
}

func cancelFactors(fs []*bound) []*bound {
	used := make([]bool, len(fs))
	for i, f := range fs {
		if used[i] || f.kind != boundSym ||
			!strings.HasPrefix(f.sym, "1/(") || !strings.HasSuffix(f.sym, ")") {
			continue
		}
		want := f.sym[3 : len(f.sym)-1]
		for j, g := range fs {
			if j != i && !used[j] && g.String() == want {
				used[i], used[j] = true, true
				break
			}
		}
	}
	var out []*bound
	for i, f := range fs {
		if !used[i] {
			out = append(out, f)
		}
	}
	return out
}

// Parameter markers: summaries refer to the summarized function's own
// parameters as $p<i>[.Field] so call sites can substitute arguments.

func paramSym(i int, field string) string { return fmt.Sprintf("$p%d%s", i, field) }

func parseParamSym(s string) (int, string, bool) {
	if !strings.HasPrefix(s, "$p") {
		return 0, "", false
	}
	rest := s[2:]
	j := 0
	for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
		j++
	}
	if j == 0 {
		return 0, "", false
	}
	n, err := strconv.Atoi(rest[:j])
	if err != nil {
		return 0, "", false
	}
	return n, rest[j:], true
}

// substParamNames rewrites parameter markers into declared parameter names
// for human-readable rendering at an entry point.
func substParamNames(b *bound, names []string) *bound {
	if b == nil {
		return nil
	}
	switch b.kind {
	case boundSym:
		if i, field, ok := parseParamSym(b.sym); ok {
			name := fmt.Sprintf("arg%d", i)
			if i < len(names) && names[i] != "" && names[i] != "_" {
				name = names[i]
			}
			return symBound(name + field)
		}
		return b
	case boundAdd:
		out := make([]*bound, len(b.args))
		for i, a := range b.args {
			out[i] = substParamNames(a, names)
		}
		return addBounds(out...)
	case boundMax:
		out := make([]*bound, len(b.args))
		for i, a := range b.args {
			out[i] = substParamNames(a, names)
		}
		return maxBounds(out...)
	case boundMul:
		res := constBound(b.c)
		for _, a := range b.args {
			res = mulBounds(res, substParamNames(a, names))
		}
		return res
	}
	return b
}

// costBound is a joint (ε, δ) budget bound.
type costBound struct {
	eps   *bound
	delta *bound
}

func zeroCost() costBound { return costBound{eps: constBound(0), delta: constBound(0)} }
func topCost() costBound  { return costBound{eps: topBound, delta: topBound} }

func (c costBound) add(o costBound) costBound {
	return costBound{eps: addBounds(c.eps, o.eps), delta: addBounds(c.delta, o.delta)}
}

func (c costBound) max(o costBound) costBound {
	return costBound{eps: maxBounds(c.eps, o.eps), delta: maxBounds(c.delta, o.delta)}
}

func (c costBound) mul(k *bound) costBound {
	return costBound{eps: mulBounds(k, c.eps), delta: mulBounds(k, c.delta)}
}

func (c costBound) isZero() bool { return c.eps.isZero() && c.delta.isZero() }

// ---------------------------------------------------------------------------
// //dp:loopbound annotations.

// loopBoundPrefix introduces a loop-trip-count declaration:
//
//	//dp:loopbound k=<expr>
//
// placed on, or on the line above, a for/range statement whose body
// charges privacy budget. The expression is either a positive numeric
// literal (folded into the constant bound) or an opaque source expression
// (cfg.Steps, len(cfg.Quantiles)) kept symbolic — and cancelled against a
// matching per-iteration divisor where possible.
const loopBoundPrefix = "//dp:loopbound"

type loopBoundAnn struct {
	expr string
	bad  string
	pos  token.Pos
}

// loopBoundIndex maps "<filename>:<line>" of a loop's anchor line to its
// annotation (L and L+1, like //dp:sensitivity).
type loopBoundIndex map[string]*loopBoundAnn

func buildLoopBoundIndex(pkg *Package) (loopBoundIndex, []*loopBoundAnn) {
	idx := make(loopBoundIndex)
	var all []*loopBoundAnn
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, loopBoundPrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, loopBoundPrefix)
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				ann := &loopBoundAnn{pos: c.Pos()}
				rest = strings.TrimSpace(rest)
				if strings.HasPrefix(rest, "k=") {
					if fields := strings.Fields(strings.TrimPrefix(rest, "k=")); len(fields) > 0 {
						ann.expr = fields[0]
					}
				}
				if ann.expr == "" {
					ann.bad = "want //dp:loopbound k=<expr>"
				} else if v, err := strconv.ParseFloat(ann.expr, 64); err == nil &&
					(v <= 0 || math.IsNaN(v) || math.IsInf(v, 0)) {
					ann.bad = "loop bound must be a positive finite count"
				}
				all = append(all, ann)
				for _, l := range []int{pos.Line, pos.Line + 1} {
					idx[fmt.Sprintf("%s:%d", pos.Filename, l)] = ann
				}
			}
		}
	}
	return idx, all
}

func (idx loopBoundIndex) annFor(pkg *Package, node ast.Node) *loopBoundAnn {
	pos := pkg.Fset.Position(node.Pos())
	return idx[fmt.Sprintf("%s:%d", pos.Filename, pos.Line)]
}

// ---------------------------------------------------------------------------
// Whole-program state: memoized per-function summaries (the summary cache
// lives on the Program so dplearn-lint's sweep and BudgetCertificates
// share one computation).

// epsEvent is one witness line: a charge site or a summarized call,
// indented by call depth.
type epsEvent struct {
	pos   token.Position
	depth int
	desc  string
}

// epsSummary is the budget bound of one function body, in terms of the
// function's own parameters ($p markers), plus the charge events backing it.
type epsSummary struct {
	cost   costBound
	events []epsEvent
}

type epsFinding struct {
	pos   token.Pos
	trace []string
	msg   string
}

type epsBoundState struct {
	prog     *Program
	sums     map[string]*epsSummary
	inflight map[string]bool
	charge   map[string]bool
	loopIdx  map[*Package]loopBoundIndex
	loopAll  map[*Package][]*loopBoundAnn
	findings []epsFinding
	ran      bool
}

func (pr *Program) epsBound() *epsBoundState {
	if pr.epsState == nil {
		pr.epsState = &epsBoundState{
			prog:     pr,
			sums:     make(map[string]*epsSummary),
			inflight: make(map[string]bool),
			loopIdx:  make(map[*Package]loopBoundIndex),
			loopAll:  make(map[*Package][]*loopBoundAnn),
		}
	}
	return pr.epsState
}

func (st *epsBoundState) loopIdxFor(pkg *Package) loopBoundIndex {
	idx, ok := st.loopIdx[pkg]
	if !ok {
		var all []*loopBoundAnn
		idx, all = buildLoopBoundIndex(pkg)
		st.loopIdx[pkg] = idx
		st.loopAll[pkg] = all
	}
	return idx
}

// mayCharge reports whether the function with the given key can reach an
// accountant charge through the call graph — the cheap syntactic predicate
// that decides how recursion summarizes (a numeric helper recursing on
// itself is harmless; a charge inside a recursive cycle has no static
// bound). Computed once for the whole program by backwards fixpoint.
func (st *epsBoundState) mayCharge(key string) bool {
	if st.charge == nil {
		st.charge = make(map[string]bool)
		for _, node := range st.prog.Nodes() {
			direct := false
			ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if _, ok := chargeOp(node.Pkg, call); ok {
						direct = true
					}
				}
				return !direct
			})
			if direct {
				st.charge[node.Key] = true
			}
		}
		for changed := true; changed; {
			changed = false
			for _, node := range st.prog.Nodes() {
				if st.charge[node.Key] {
					continue
				}
				for _, c := range node.Calls {
					if st.charge[c.Key] {
						st.charge[node.Key] = true
						changed = true
						break
					}
				}
			}
		}
	}
	return st.charge[key]
}

// summary computes (and caches) the budget bound of the function with the
// given call-graph key. Unknown callees — interface methods, functions
// outside the analyzed packages — summarize to zero; recursion summarizes
// to ⊤ when a charge is reachable from the cycle (a self-feeding charge
// has no static bound) and to zero otherwise.
func (st *epsBoundState) summary(key string) *epsSummary {
	if s, ok := st.sums[key]; ok {
		return s
	}
	if st.inflight[key] {
		if st.mayCharge(key) {
			return &epsSummary{cost: topCost()}
		}
		return &epsSummary{cost: zeroCost()}
	}
	node := st.prog.Node(key)
	if node == nil {
		return &epsSummary{cost: zeroCost()}
	}
	st.inflight[key] = true
	cx := st.ctxFor(node)
	cost := cx.stmtsCost(node.Decl.Body.List)
	delete(st.inflight, key)
	s := &epsSummary{cost: cost, events: *cx.events}
	st.sums[key] = s
	return s
}

// ---------------------------------------------------------------------------
// Per-function cost context.

// localDef records a single-assignment local: the one RHS expression that
// defines it (idx selects the tuple component for multi-value RHS, -1 for
// a plain one). Multi-assigned locals are not tracked.
type localDef struct {
	rhs ast.Expr
	idx int
}

type costCtx struct {
	st        *epsBoundState
	pkg       *Package
	node      *FuncNode
	params    map[types.Object]int
	names     []string
	locals    map[types.Object]localDef
	resolving map[types.Object]bool
	events    *[]epsEvent
}

func (st *epsBoundState) ctxFor(node *FuncNode) *costCtx {
	return &costCtx{
		st:        st,
		pkg:       node.Pkg,
		node:      node,
		params:    buildParams(node.Pkg, node.Decl),
		names:     paramNames(node.Decl),
		locals:    buildLocals(node.Pkg, node.Decl.Body),
		resolving: make(map[types.Object]bool),
		events:    &[]epsEvent{},
	}
}

func buildParams(pkg *Package, fd *ast.FuncDecl) map[types.Object]int {
	m := make(map[types.Object]int)
	if fd.Type.Params == nil {
		return m
	}
	i := 0
	for _, f := range fd.Type.Params.List {
		if len(f.Names) == 0 {
			i++
			continue
		}
		for _, n := range f.Names {
			if obj := pkg.Info.Defs[n]; obj != nil {
				m[obj] = i
			}
			i++
		}
	}
	return m
}

func paramNames(fd *ast.FuncDecl) []string {
	var out []string
	if fd.Type.Params == nil {
		return out
	}
	for _, f := range fd.Type.Params.List {
		if len(f.Names) == 0 {
			out = append(out, "")
			continue
		}
		for _, n := range f.Names {
			out = append(out, n.Name)
		}
	}
	return out
}

func buildLocals(pkg *Package, body *ast.BlockStmt) map[types.Object]localDef {
	defs := make(map[types.Object]localDef)
	count := make(map[types.Object]int)
	record := func(obj types.Object, rhs ast.Expr, idx int) {
		if obj == nil {
			return
		}
		count[obj]++
		defs[obj] = localDef{rhs: rhs, idx: idx}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if st.Tok != token.ASSIGN && st.Tok != token.DEFINE {
				// Compound assignment reads the previous value: not
				// single-assignment.
				for _, lhs := range st.Lhs {
					if obj := identObj(pkg, lhs); obj != nil {
						count[obj] += 2
					}
				}
				return true
			}
			if len(st.Rhs) == 1 && len(st.Lhs) > 1 {
				for i, lhs := range st.Lhs {
					record(identObj(pkg, lhs), st.Rhs[0], i)
				}
			} else {
				for i, lhs := range st.Lhs {
					if i < len(st.Rhs) {
						record(identObj(pkg, lhs), st.Rhs[i], -1)
					}
				}
			}
		case *ast.ValueSpec:
			if len(st.Values) == 1 && len(st.Names) > 1 {
				for i, name := range st.Names {
					record(pkg.Info.Defs[name], st.Values[0], i)
				}
			} else {
				for i, name := range st.Names {
					if i < len(st.Values) {
						record(pkg.Info.Defs[name], st.Values[i], -1)
					}
				}
			}
		case *ast.IncDecStmt:
			if obj := identObj(pkg, st.X); obj != nil {
				count[obj] += 2
			}
		case *ast.RangeStmt:
			// Loop variables take a fresh value per iteration: never
			// resolvable to one RHS.
			for _, e := range []ast.Expr{st.Key, st.Value} {
				if e == nil {
					continue
				}
				if obj := identObj(pkg, e); obj != nil {
					count[obj] += 2
				}
			}
		}
		return true
	})
	for obj, n := range count {
		if n > 1 {
			delete(defs, obj)
		}
	}
	return defs
}

// ---------------------------------------------------------------------------
// Scalar and Guarantee extraction.

// denomKey renders a division's denominator for reciprocal cancellation,
// stripping float conversions so float64(len(xs)) cancels len(xs).
func denomKey(e ast.Expr) string {
	e = unparen(e)
	if call, ok := e.(*ast.CallExpr); ok && len(call.Args) == 1 {
		if id, ok := unparen(call.Fun).(*ast.Ident); ok &&
			(id.Name == "float64" || id.Name == "float32") {
			return denomKey(call.Args[0])
		}
	}
	return types.ExprString(e)
}

// conversionArg unwraps a type-conversion call T(x), or reports false.
func conversionArg(pkg *Package, call *ast.CallExpr) (ast.Expr, bool) {
	if len(call.Args) != 1 {
		return nil, false
	}
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if _, ok := pkg.Info.Uses[fun].(*types.TypeName); ok {
			return call.Args[0], true
		}
	case *ast.SelectorExpr:
		if _, ok := pkg.Info.Uses[fun.Sel].(*types.TypeName); ok {
			return call.Args[0], true
		}
	}
	return nil, false
}

// scalar folds a numeric expression to a bound: constants fold, parameters
// become $p markers, single-assignment locals chase their definition, + *
// and / distribute, everything else becomes an opaque symbol carrying its
// source text.
func (cx *costCtx) scalar(e ast.Expr) *bound {
	e = unparen(e)
	if v, ok := constFloat(cx.pkg, e); ok {
		return constBound(v)
	}
	switch x := e.(type) {
	case *ast.Ident:
		obj := cx.pkg.Info.ObjectOf(x)
		if obj != nil {
			if i, ok := cx.params[obj]; ok {
				return symBound(paramSym(i, ""))
			}
			if def, ok := cx.locals[obj]; ok && def.rhs != nil && def.idx <= 0 && !cx.resolving[obj] {
				cx.resolving[obj] = true
				b := cx.scalar(def.rhs)
				delete(cx.resolving, obj)
				return b
			}
		}
		return symBound(x.Name)
	case *ast.SelectorExpr:
		if id, ok := unparen(x.X).(*ast.Ident); ok {
			if obj := cx.pkg.Info.ObjectOf(id); obj != nil {
				if i, ok := cx.params[obj]; ok {
					return symBound(paramSym(i, "."+x.Sel.Name))
				}
			}
		}
		return symBound(types.ExprString(e))
	case *ast.BinaryExpr:
		switch x.Op {
		case token.ADD:
			return addBounds(cx.scalar(x.X), cx.scalar(x.Y))
		case token.MUL:
			return mulBounds(cx.scalar(x.X), cx.scalar(x.Y))
		case token.QUO:
			if d, ok := constFloat(cx.pkg, x.Y); ok && d != 0 { //dplint:ignore floateq exact sentinel: guarding the 1/d fold against the literal zero denominator
				return mulBounds(constBound(1/d), cx.scalar(x.X))
			}
			return mulBounds(cx.scalar(x.X), symBound("1/("+denomKey(x.Y)+")"))
		}
		return symBound(types.ExprString(e))
	case *ast.CallExpr:
		if arg, ok := conversionArg(cx.pkg, x); ok {
			return cx.scalar(arg)
		}
		return symBound(types.ExprString(e))
	}
	return symBound(types.ExprString(e))
}

// guaranteeCost extracts the (ε, δ) quoted by a Guarantee-typed expression:
// composite literals by field, parameters as $p<i>.Epsilon/.Delta markers,
// single-assignment locals chased, mech.Guarantee() resolved through the
// mechanism's constructor, and single-return helper functions inlined.
// Anything else stays opaque as "<expr>.Epsilon"/"<expr>.Delta".
func (cx *costCtx) guaranteeCost(e ast.Expr) costBound {
	e = unparen(e)
	switch x := e.(type) {
	case *ast.CompositeLit:
		if namedName(cx.pkg.Info.TypeOf(x)) == "Guarantee" {
			return cx.guaranteeLit(x)
		}
	case *ast.Ident:
		obj := cx.pkg.Info.ObjectOf(x)
		if obj != nil {
			if i, ok := cx.params[obj]; ok {
				return costBound{
					eps:   symBound(paramSym(i, ".Epsilon")),
					delta: symBound(paramSym(i, ".Delta")),
				}
			}
			if def, ok := cx.locals[obj]; ok && def.rhs != nil && def.idx <= 0 && !cx.resolving[obj] {
				cx.resolving[obj] = true
				g := cx.guaranteeCost(def.rhs)
				delete(cx.resolving, obj)
				return g
			}
		}
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return cx.guaranteeCost(x.X)
		}
	case *ast.CallExpr:
		if sel, ok := x.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Guarantee" {
			if g, ok := cx.mechanismGuarantee(sel.X); ok {
				return g
			}
		}
		if fn := calleeFunc(cx.pkg, x); fn != nil {
			if g, ok := cx.inlineGuaranteeHelper(fn, x); ok {
				return g
			}
		}
	}
	txt := types.ExprString(e)
	return costBound{eps: symBound(txt + ".Epsilon"), delta: symBound(txt + ".Delta")}
}

func (cx *costCtx) guaranteeLit(lit *ast.CompositeLit) costBound {
	g := zeroCost()
	var st *types.Struct
	if t := cx.pkg.Info.TypeOf(lit); t != nil {
		st, _ = t.Underlying().(*types.Struct)
	}
	for i, el := range lit.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			name := ""
			if id, ok := kv.Key.(*ast.Ident); ok {
				name = id.Name
			}
			switch name {
			case "Epsilon":
				g.eps = cx.scalar(kv.Value)
			case "Delta":
				g.delta = cx.scalar(kv.Value)
			}
			continue
		}
		if st != nil && i < st.NumFields() {
			switch st.Field(i).Name() {
			case "Epsilon":
				g.eps = cx.scalar(el)
			case "Delta":
				g.delta = cx.scalar(el)
			}
		}
	}
	return g
}

// mechanismGuarantee resolves mech.Guarantee() when mech is a
// single-assignment local constructed by a known mechanism constructor.
func (cx *costCtx) mechanismGuarantee(recv ast.Expr) (costBound, bool) {
	id, ok := unparen(recv).(*ast.Ident)
	if !ok {
		return costBound{}, false
	}
	obj := cx.pkg.Info.ObjectOf(id)
	if obj == nil {
		return costBound{}, false
	}
	def, ok := cx.locals[obj]
	if !ok || def.rhs == nil || def.idx > 0 {
		return costBound{}, false
	}
	call, ok := unparen(def.rhs).(*ast.CallExpr)
	if !ok {
		return costBound{}, false
	}
	fn := calleeFunc(cx.pkg, call)
	if fn == nil {
		return costBound{}, false
	}
	return cx.ctorGuarantee(fn, call)
}

// splitHalfOverSens matches the X/(2*S) idiom that call sites use to make
// an exponential-family mechanism quote exactly X: the mechanism's
// guarantee is 2·ε·Δq, so passing ε = X/(2·Δq) cancels.
func splitHalfOverSens(pkg *Package, epsArg, sensArg ast.Expr) (ast.Expr, bool) {
	b, ok := unparen(epsArg).(*ast.BinaryExpr)
	if !ok || b.Op != token.QUO {
		return nil, false
	}
	m, ok := unparen(b.Y).(*ast.BinaryExpr)
	if !ok || m.Op != token.MUL {
		return nil, false
	}
	if two, ok := constFloat(pkg, m.X); !ok || two != 2 { //dplint:ignore floateq exact sentinel: the X/(2*S) idiom is matched only on the literal 2
		return nil, false
	}
	if types.ExprString(unparen(m.Y)) != types.ExprString(unparen(sensArg)) {
		return nil, false
	}
	return b.X, true
}

// ctorGuarantee maps a mechanism constructor call to the guarantee its
// mechanism will quote at release time. Recognition is by constructor name
// (structural, so fixtures work): the formulas mirror each mechanism's
// Guarantee method.
func (cx *costCtx) ctorGuarantee(fn *types.Func, call *ast.CallExpr) (costBound, bool) {
	arg := func(i int) ast.Expr {
		if i < len(call.Args) {
			return call.Args[i]
		}
		return nil
	}
	sc := func(i int) *bound {
		if e := arg(i); e != nil {
			return cx.scalar(e)
		}
		return topBound
	}
	switch fn.Name() {
	case "NewLaplace":
		return costBound{eps: sc(1), delta: constBound(0)}, true
	case "NewGaussian":
		return costBound{eps: sc(1), delta: sc(2)}, true
	case "NewExponential", "NewReportNoisyMax":
		if e, s := arg(3), arg(2); e != nil && s != nil {
			if x, ok := splitHalfOverSens(cx.pkg, e, s); ok {
				return costBound{eps: cx.scalar(x), delta: constBound(0)}, true
			}
		}
		return costBound{eps: mulBounds(mulBounds(constBound(2), sc(3)), sc(2)), delta: constBound(0)}, true
	case "NewGeometric":
		return costBound{eps: sc(2), delta: constBound(0)}, true
	case "NewRandomizedResponse":
		return costBound{eps: sc(0), delta: constBound(0)}, true
	case "PrivateQuantile":
		return costBound{eps: mulBounds(constBound(2), sc(3)), delta: constBound(0)}, true
	case "PrivateMedian", "PrivateMode":
		return costBound{eps: mulBounds(constBound(2), sc(2)), delta: constBound(0)}, true
	}
	return costBound{}, false
}

// inlineGuaranteeHelper inlines a helper whose entire body is
// `return <Guarantee expression>` (the serve layer's quotedGuarantee),
// substituting the call's arguments into the helper's parameters.
func (cx *costCtx) inlineGuaranteeHelper(fn *types.Func, call *ast.CallExpr) (costBound, bool) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() != 1 || namedName(sig.Results().At(0).Type()) != "Guarantee" {
		return costBound{}, false
	}
	node := cx.st.prog.Node(funcKey(fn))
	if node == nil || node.Decl.Body == nil || len(node.Decl.Body.List) != 1 {
		return costBound{}, false
	}
	ret, ok := node.Decl.Body.List[0].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return costBound{}, false
	}
	callee := cx.st.ctxFor(node)
	g := callee.guaranteeCost(ret.Results[0])
	return costBound{eps: cx.substBound(g.eps, call), delta: cx.substBound(g.delta, call)}, true
}

// substBound replaces a callee summary's $p markers with the call's
// argument expressions, re-normalizing so constants fold through calls.
func (cx *costCtx) substBound(b *bound, call *ast.CallExpr) *bound {
	if b == nil {
		return nil
	}
	switch b.kind {
	case boundConst, boundTop:
		return b
	case boundSym:
		i, field, ok := parseParamSym(b.sym)
		if !ok {
			return b
		}
		if i >= len(call.Args) {
			return symBound(fmt.Sprintf("arg%d%s", i, field))
		}
		a := call.Args[i]
		switch field {
		case "":
			return cx.scalar(a)
		case ".Epsilon":
			return cx.guaranteeCost(a).eps
		case ".Delta":
			return cx.guaranteeCost(a).delta
		default:
			return symBound(types.ExprString(unparen(a)) + field)
		}
	case boundAdd:
		out := make([]*bound, len(b.args))
		for i, a := range b.args {
			out[i] = cx.substBound(a, call)
		}
		return addBounds(out...)
	case boundMax:
		out := make([]*bound, len(b.args))
		for i, a := range b.args {
			out[i] = cx.substBound(a, call)
		}
		return maxBounds(out...)
	case boundMul:
		res := constBound(b.c)
		for _, a := range b.args {
			res = mulBounds(res, cx.substBound(a, call))
		}
		return res
	}
	return b
}

// ---------------------------------------------------------------------------
// Charge recognition.

// chargeOp reports whether call charges budget against an accountant: a
// Spend/SpendDetail, or a two-phase Reserve returning a Reservation,
// whose first parameter — the price — is a Guarantee. Commit is
// deliberately NOT a charge — the guarantee was counted at Reserve time,
// and acctlint separately enforces the Reserve/Commit pairing. A wrapper
// that reserves on an accountant (a write-ahead-logged Reserve, say) is
// priced through its callee summary like any other charging helper.
func chargeOp(pkg *Package, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	name := sel.Sel.Name
	switch name {
	case "Spend", "SpendDetail", "Reserve":
	default:
		return "", false
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Params().Len() < 1 || namedName(sig.Params().At(0).Type()) != "Guarantee" {
		return "", false
	}
	switch name {
	case "Spend":
		if sig.Params().Len() != 1 {
			return "", false
		}
	case "Reserve":
		if sig.Results().Len() < 1 || namedName(sig.Results().At(0).Type()) != "Reservation" {
			return "", false
		}
	}
	return name, true
}

// ---------------------------------------------------------------------------
// Structural cost fold.

func (cx *costCtx) stmtsCost(list []ast.Stmt) costBound {
	total := zeroCost()
	for _, s := range list {
		total = total.add(cx.stmtCost(s))
	}
	return total
}

func (cx *costCtx) stmtCost(s ast.Stmt) costBound {
	switch st := s.(type) {
	case nil:
		return zeroCost()
	case *ast.BlockStmt:
		return cx.stmtsCost(st.List)
	case *ast.LabeledStmt:
		return cx.stmtCost(st.Stmt)
	case *ast.IfStmt:
		c := zeroCost()
		if st.Init != nil {
			c = c.add(cx.stmtCost(st.Init))
		}
		c = c.add(cx.nodeCost(st.Cond))
		thenC := cx.stmtsCost(st.Body.List)
		elseC := zeroCost()
		if st.Else != nil {
			elseC = cx.stmtCost(st.Else)
		}
		return c.add(thenC.max(elseC))
	case *ast.ForStmt:
		c := zeroCost()
		if st.Init != nil {
			c = c.add(cx.stmtCost(st.Init))
		}
		iter := zeroCost()
		if st.Cond != nil {
			iter = iter.add(cx.nodeCost(st.Cond))
		}
		iter = iter.add(cx.stmtsCost(st.Body.List))
		if st.Post != nil {
			iter = iter.add(cx.stmtCost(st.Post))
		}
		return c.add(cx.loopCost(st, iter))
	case *ast.RangeStmt:
		c := cx.nodeCost(st.X)
		iter := cx.stmtsCost(st.Body.List)
		return c.add(cx.loopCost(st, iter))
	case *ast.SwitchStmt:
		c := zeroCost()
		if st.Init != nil {
			c = c.add(cx.stmtCost(st.Init))
		}
		if st.Tag != nil {
			c = c.add(cx.nodeCost(st.Tag))
		}
		return c.add(cx.clausesCost(st.Body.List))
	case *ast.TypeSwitchStmt:
		c := zeroCost()
		if st.Init != nil {
			c = c.add(cx.stmtCost(st.Init))
		}
		c = c.add(cx.stmtCost(st.Assign))
		return c.add(cx.clausesCost(st.Body.List))
	case *ast.SelectStmt:
		alt := zeroCost()
		for i, cl := range st.Body.List {
			comm, ok := cl.(*ast.CommClause)
			if !ok {
				continue
			}
			one := zeroCost()
			if comm.Comm != nil {
				one = one.add(cx.stmtCost(comm.Comm))
			}
			one = one.add(cx.stmtsCost(comm.Body))
			if i == 0 {
				alt = one
			} else {
				alt = alt.max(one)
			}
		}
		return alt
	default:
		return cx.nodeCost(s)
	}
}

// clausesCost folds switch/type-switch clauses: alternatives take the max,
// fallthrough chains sum into the preceding clause, and a missing default
// adds a zero-cost alternative.
func (cx *costCtx) clausesCost(clauses []ast.Stmt) costBound {
	hasDefault := false
	type clauseCost struct {
		cost costBound
		ft   bool
	}
	var alts []clauseCost
	for _, cl := range clauses {
		cc, ok := cl.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		one := zeroCost()
		for _, e := range cc.List {
			one = one.add(cx.nodeCost(e))
		}
		one = one.add(cx.stmtsCost(cc.Body))
		alts = append(alts, clauseCost{cost: one, ft: endsInFallthrough(cc.Body)})
	}
	for i := len(alts) - 2; i >= 0; i-- {
		if alts[i].ft {
			alts[i].cost = alts[i].cost.add(alts[i+1].cost)
		}
	}
	out := zeroCost()
	for i, a := range alts {
		if i == 0 {
			out = a.cost
		} else {
			out = out.max(a.cost)
		}
	}
	if !hasDefault {
		out = out.max(zeroCost())
	}
	return out
}

// loopCost multiplies the per-iteration cost by the loop's declared trip
// count; a charging loop without a valid //dp:loopbound is ⊤ and a finding
// (the malformed-directive case is reported once, globally).
func (cx *costCtx) loopCost(loop ast.Stmt, iter costBound) costBound {
	if iter.isZero() {
		return iter
	}
	if iter.eps.isTop() && iter.delta.isTop() {
		return iter
	}
	ann := cx.st.loopIdxFor(cx.pkg).annFor(cx.pkg, loop)
	if ann == nil {
		cx.st.recordLoopFinding(cx, loop,
			"loop charges privacy budget per iteration but has no //dp:loopbound k=<expr> annotation; budget bound is unbounded")
		return topCost()
	}
	if ann.bad != "" {
		return topCost()
	}
	if v, err := strconv.ParseFloat(ann.expr, 64); err == nil {
		return iter.mul(constBound(v))
	}
	return iter.mul(symBound(ann.expr))
}

// recordLoopFinding anchors an unbounded-loop finding on the loop with a
// CFG witness path from the function entry to the loop header.
func (st *epsBoundState) recordLoopFinding(cx *costCtx, loop ast.Stmt, msg string) {
	f := epsFinding{pos: loop.Pos(), msg: msg}
	if cx.node != nil && cx.node.Decl.Body != nil {
		c := buildCFG(cx.node.Decl.Body, cfgOptions{})
		if blk := blockContainingNode(c, loop); blk != nil {
			if path := c.witnessPath(c.Entry, blk, nil); path != nil {
				f.trace = c.trace(cx.pkg.Fset, path)
			}
		}
	}
	st.findings = append(st.findings, f)
}

// blockContainingNode finds the first block evaluating any part of target.
func blockContainingNode(c *cfg, target ast.Node) *cfgBlock {
	for _, blk := range c.Blocks {
		for _, n := range blk.Nodes {
			found := false
			ast.Inspect(n, func(m ast.Node) bool {
				if m == target {
					found = true
				}
				return !found
			})
			if n == target {
				found = true
			}
			if found {
				return blk
			}
		}
	}
	// Loop headers hold only the condition/range node; fall back to any
	// block evaluating a node positioned inside the target's span.
	for _, blk := range c.Blocks {
		for _, n := range blk.Nodes {
			if n.Pos() >= target.Pos() && n.End() <= target.End() {
				return blk
			}
		}
	}
	return nil
}

// nodeCost walks an expression or opaque statement, charging each call in
// evaluation order. Function literals are skipped unless immediately
// invoked: a closure handed to someone else runs on that party's quoted
// budget (the serve layer's quoted-guarantee contract).
func (cx *costCtx) nodeCost(n ast.Node) costBound {
	total := zeroCost()
	if n == nil {
		return total
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			total = total.add(cx.callCost(x))
			for _, a := range x.Args {
				total = total.add(cx.nodeCost(a))
			}
			return false
		}
		return true
	})
	return total
}

// callCost charges one call: a direct charge op quotes its Guarantee
// argument; a resolved callee contributes its substituted summary; an
// immediately-invoked literal is inlined. A call whose callee adds no
// charge of its own but receives function-literal arguments is an
// envelope — the serve layer's durable() wrapper reserves, runs the
// closure it was handed, and commits — so the literals are inlined at
// the call site: their charges are the call's charges, priced in the
// caller's own symbol space. When the callee itself charges (the
// spendQuoted accountant-wrapper pattern), its literal arguments are
// already priced by the wrapper's reservation and stay skipped.
func (cx *costCtx) callCost(call *ast.CallExpr) costBound {
	if lit, ok := unparen(call.Fun).(*ast.FuncLit); ok {
		return cx.stmtsCost(lit.Body.List)
	}
	if op, ok := chargeOp(cx.pkg, call); ok && len(call.Args) > 0 {
		g := cx.guaranteeCost(call.Args[0])
		cx.event(call.Pos(), 0, fmt.Sprintf("%s ε=%s δ=%s", op, cx.render(g.eps), cx.render(g.delta)))
		return g
	}
	fn := calleeFunc(cx.pkg, call)
	if fn != nil && cx.st.mayCharge(funcKey(fn)) {
		sum := cx.st.summary(funcKey(fn))
		if !sum.cost.isZero() {
			out := costBound{
				eps:   cx.substBound(sum.cost.eps, call),
				delta: cx.substBound(sum.cost.delta, call),
			}
			cx.event(call.Pos(), 0, fmt.Sprintf("call %s ⇒ ε=%s", calleeLabel(fn), cx.render(out.eps)))
			for _, ev := range sum.events {
				cx.eventAt(ev.pos, ev.depth+1, ev.desc)
			}
			return out
		}
	}
	if fn != nil && cx.st.prog.isObserverFunc(fn) {
		return zeroCost() // measurement harness; its closures observe, not release
	}
	total := zeroCost()
	for _, a := range call.Args {
		if lit, ok := unparen(a).(*ast.FuncLit); ok {
			total = total.add(cx.stmtsCost(lit.Body.List))
		}
	}
	return total
}

func calleeLabel(fn *types.Func) string {
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}

func (cx *costCtx) render(b *bound) string {
	return substParamNames(b, cx.names).String()
}

func (cx *costCtx) event(pos token.Pos, depth int, desc string) {
	cx.eventAt(cx.pkg.Fset.Position(pos), depth, desc)
}

func (cx *costCtx) eventAt(pos token.Position, depth int, desc string) {
	evs := cx.events
	if len(*evs) >= maxBoundEvents {
		if len(*evs) == maxBoundEvents {
			*evs = append(*evs, epsEvent{pos: pos, depth: depth, desc: "… (witness truncated)"})
		}
		return
	}
	*evs = append(*evs, epsEvent{pos: pos, depth: depth, desc: desc})
}

// ---------------------------------------------------------------------------
// Entry points.

// entryNodes selects the functions that receive budget certificates. On
// the repro tree this is the curated entry surface — the root facade, the
// core/learn exported API, svt, and every serve handler; on any other
// module (golden fixtures) it is every exported function. Summaries are
// computed on demand starting only from these roots, so helper loops in
// unreachable tooling never generate findings.
func (st *epsBoundState) entryNodes() []*FuncNode {
	repro := false
	for _, pkg := range st.prog.Pkgs {
		if pkg.Path == "repro" || strings.HasPrefix(pkg.Path, "repro/") {
			repro = true
			break
		}
	}
	var entries []*FuncNode
	for _, node := range st.prog.Nodes() {
		if isTestFilename(node.Pkg.Fset.Position(node.Decl.Pos()).Filename) {
			continue
		}
		if repro {
			if !reproEntry(node) {
				continue
			}
		} else {
			if strings.HasSuffix(node.Pkg.Path, "_test") || !node.Decl.Name.IsExported() {
				continue
			}
		}
		entries = append(entries, node)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Key < entries[j].Key })
	return entries
}

func reproEntry(node *FuncNode) bool {
	name := node.Decl.Name
	switch node.Pkg.Path {
	case "repro", "repro/internal/core", "repro/internal/learn":
		return name.IsExported() && recvExported(node)
	case "repro/internal/mechanism":
		// The sparse-vector entry points live in svt.go; the rest of the
		// package is mechanism plumbing certified through its callers.
		return name.IsExported() && recvExported(node) &&
			filepath.Base(node.Pkg.Fset.Position(node.Decl.Pos()).Filename) == "svt.go"
	case "repro/internal/serve":
		if !strings.HasPrefix(name.Name, "handle") {
			return false
		}
		return recvName(node) == "Server"
	}
	return false
}

// recvName is the named type of node's receiver ("" for a function).
func recvName(node *FuncNode) string {
	if node.Decl.Recv == nil || len(node.Decl.Recv.List) == 0 {
		return ""
	}
	return namedName(node.Pkg.Info.TypeOf(node.Decl.Recv.List[0].Type))
}

// recvExported reports whether node is a function or a method whose
// receiver type an importer can name: an exported method of an
// unexported type (an interface adapter, say) is no entry point.
func recvExported(node *FuncNode) bool {
	return node.Decl.Recv == nil || token.IsExported(recvName(node))
}

// ---------------------------------------------------------------------------
// The analyzer.

// EpsBound is the registered check: it summarizes every entry point once
// per Run (the cache lives on the Program) and reports unbounded loops and
// malformed //dp:loopbound directives.
var EpsBound = register(&Analyzer{
	Name: "epsbound",
	Doc: "interprocedural symbolic ε-budget bounds: every exported entry " +
		"point's worst-case (ε, δ) spend is folded bottom-up through the " +
		"call graph — sequential charges sum, branches take the max, loops " +
		"multiply by a //dp:loopbound k=<expr> annotation. A loop that " +
		"charges budget without one certifies as unbounded, which is a " +
		"finding; dplearn-lint -certify emits the bounds as NDJSON budget " +
		"certificates.",
	Severity: Error,
	Run:      runEpsBound,
})

func runEpsBound(p *Pass) {
	st := p.Prog.epsBound()
	if st.ran {
		return
	}
	st.ran = true
	for _, node := range st.entryNodes() {
		st.summary(node.Key)
	}
	for _, pkg := range st.prog.Pkgs {
		st.loopIdxFor(pkg)
	}
	for _, pkg := range st.prog.Pkgs {
		for _, ann := range st.loopAll[pkg] {
			if ann.bad != "" && !isTestFilename(pkg.Fset.Position(ann.pos).Filename) {
				p.Reportf(ann.pos, "malformed //dp:loopbound directive: %s", ann.bad)
			}
		}
	}
	for _, f := range st.findings {
		if isTestFilename(p.Fset.Position(f.pos).Filename) {
			continue
		}
		p.ReportTrace(f.pos, f.trace, "%s", f.msg)
	}
}

// ---------------------------------------------------------------------------
// Budget certificates.

// Certificate is one entry point's machine-readable budget bound, emitted
// as NDJSON by dplearn-lint -certify and golden-pinned in
// results/budget_certificates.ndjson.
type Certificate struct {
	// Entry is the call-graph key (types.Func.FullName) of the entry point.
	Entry string `json:"entry"`
	// Package is the import path declaring the entry point.
	Package string `json:"package"`
	// File/Line locate the declaration (File is module-root-relative with
	// forward slashes, so certificates are byte-stable across machines).
	File string `json:"file"`
	Line int    `json:"line"`
	// Eps and Delta are the symbolic worst-case bounds rendered in terms
	// of the entry point's own parameters ("unbounded" for ⊤).
	Eps   string `json:"eps"`
	Delta string `json:"delta"`
	// EpsConst/DeltaConst carry the resolved constant when the bound folds.
	EpsConst   *float64 `json:"eps_const,omitempty"`
	DeltaConst *float64 `json:"delta_const,omitempty"`
	// Unbounded marks entry points whose bound is ⊤ on either coordinate.
	Unbounded bool `json:"unbounded,omitempty"`
	// Witness lists the charge sites backing the bound, one
	// "<file>:<line> <desc>" per line, indented two spaces per call depth.
	Witness []string `json:"witness,omitempty"`
}

// BudgetCertificates computes the budget certificate of every entry point
// in pkgs. File paths are relativized against moduleRoot ("" keeps them
// absolute). Zero-spend entry points are included: a certificate saying
// "this endpoint spends nothing" is as load-bearing as a bound.
func BudgetCertificates(pkgs []*Package, moduleRoot string) []Certificate {
	prog := NewProgram(pkgs)
	st := prog.epsBound()
	var out []Certificate
	for _, node := range st.entryNodes() {
		sum := st.summary(node.Key)
		names := paramNames(node.Decl)
		eps := substParamNames(sum.cost.eps, names)
		delta := substParamNames(sum.cost.delta, names)
		pos := node.Pkg.Fset.Position(node.Decl.Pos())
		cert := Certificate{
			Entry:     node.Key,
			Package:   node.Pkg.Path,
			File:      relModulePath(moduleRoot, pos.Filename),
			Line:      pos.Line,
			Eps:       eps.String(),
			Delta:     delta.String(),
			Unbounded: eps.isTop() || delta.isTop(),
		}
		if v, ok := eps.constVal(); ok {
			cert.EpsConst = &v
		}
		if v, ok := delta.constVal(); ok {
			cert.DeltaConst = &v
		}
		for _, ev := range sum.events {
			cert.Witness = append(cert.Witness, fmt.Sprintf("%s%s:%d %s",
				strings.Repeat("  ", ev.depth), relModulePath(moduleRoot, ev.pos.Filename), ev.pos.Line, ev.desc))
		}
		out = append(out, cert)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Entry < out[j].Entry })
	return out
}

// relModulePath renders file relative to root with forward slashes, or
// unchanged when file is outside root.
func relModulePath(root, file string) string {
	if root != "" {
		if r, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(r, "..") {
			return filepath.ToSlash(r)
		}
	}
	return filepath.ToSlash(file)
}
