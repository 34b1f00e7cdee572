package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"sort"
	"strings"
)

// This file is the control-flow half of the dataflow framework: an
// intra-procedural CFG over one function body, built from go/ast with no
// dependency outside the standard library. Blocks carry the statements
// (and condition expressions) they evaluate, in order; edges carry the
// branch condition that selects them, so a solver can refine facts on the
// true/false outcomes of a guard (the `if err != nil` idiom is what makes
// the two-phase reservation check precise enough for real code).
//
// Structured control flow — if/else chains, for and range loops,
// switch/type-switch (including fallthrough), select, labeled break and
// continue, goto — is translated faithfully. Return statements edge-split
// to a distinguished exit block. Statements the client declares panic
// sources (a DP release may panic mid-protocol; an explicit panic call
// always does) are isolated into their own block whose IN fact flows to a
// distinguished panic-exit block: the fact holding *before* the statement
// is exactly the state a deferred cleanup would observe.

// cfgEdge is one directed edge. When Cond is non-nil the edge is taken
// exactly when Cond evaluates to true (Neg false) or false (Neg true);
// solvers may use it to refine facts per branch outcome.
type cfgEdge struct {
	To   *cfgBlock
	Cond ast.Expr
	Neg  bool
}

// cfgBlock is one straight-line run of evaluations. Nodes holds the
// statements and branch-condition expressions evaluated in order; a
// condition appears as its bare ast.Expr so replaying a transfer function
// over Nodes observes the fact state at the moment the branch decides.
type cfgBlock struct {
	Index int
	Nodes []ast.Node
	Succs []cfgEdge

	// Return is the terminating return statement when this block ends the
	// function normally via `return` (nil for the implicit fall-off exit).
	Return *ast.ReturnStmt
	// PanicSource marks a block isolated around a possibly-panicking
	// statement: its IN fact (not OUT) also flows to the panic exit.
	PanicSource bool
}

// cfg is the graph for one function body.
type cfg struct {
	Entry *cfgBlock
	// Exit collects every normal termination (returns and fall-off).
	Exit *cfgBlock
	// PanicExit collects the IN facts of every panic-source block.
	PanicExit *cfgBlock
	Blocks    []*cfgBlock
}

// cfgOptions configures construction.
type cfgOptions struct {
	// PanicSource reports whether stmt may panic mid-execution in a way
	// the analysis cares about. Nil means no panic edges besides explicit
	// panic(...) calls.
	PanicSource func(ast.Node) bool
}

type loopFrame struct {
	label    string
	breakTo  *cfgBlock
	contTo   *cfgBlock // nil for switch/select frames (break only)
	isSwitch bool
}

type cfgBuilder struct {
	c    *cfg
	opts cfgOptions

	frames []loopFrame
	labels map[string]*cfgBlock // goto targets
	gotos  map[string][]*cfgBlock
}

// buildCFG constructs the CFG of body.
func buildCFG(body *ast.BlockStmt, opts cfgOptions) *cfg {
	b := &cfgBuilder{
		c:      &cfg{},
		opts:   opts,
		labels: make(map[string]*cfgBlock),
		gotos:  make(map[string][]*cfgBlock),
	}
	b.c.Entry = b.newBlock()
	b.c.Exit = b.newBlock()
	b.c.PanicExit = b.newBlock()
	last := b.stmtList(b.c.Entry, body.List)
	b.edge(last, b.c.Exit, nil, false)
	// Resolve forward gotos: every pending jump now has its label block.
	for name, sources := range b.gotos {
		target := b.labels[name]
		if target == nil {
			continue // label outside body (malformed source); drop the edge
		}
		for _, src := range sources {
			b.edge(src, target, nil, false)
		}
	}
	return b.c
}

func (b *cfgBuilder) newBlock() *cfgBlock {
	blk := &cfgBlock{Index: len(b.c.Blocks)}
	b.c.Blocks = append(b.c.Blocks, blk)
	return blk
}

// edge appends cur→to unless cur is nil (dead code after a terminator).
func (b *cfgBuilder) edge(cur, to *cfgBlock, cond ast.Expr, neg bool) {
	if cur == nil || to == nil {
		return
	}
	cur.Succs = append(cur.Succs, cfgEdge{To: to, Cond: cond, Neg: neg})
}

// stmtList threads the statements through cur, returning the live tail
// block (nil when every path terminated).
func (b *cfgBuilder) stmtList(cur *cfgBlock, list []ast.Stmt) *cfgBlock {
	for _, s := range list {
		cur = b.stmt(cur, s)
	}
	return cur
}

// stmt translates one statement starting at cur, returning the block that
// control falls out of (nil when s always transfers away).
func (b *cfgBuilder) stmt(cur *cfgBlock, s ast.Stmt) *cfgBlock {
	if cur == nil {
		// Dead code after return/goto/panic: still build the subgraph so
		// facts exist (the solver leaves it at bottom), anchored on a
		// fresh unreachable block.
		cur = b.newBlock()
	}
	switch st := s.(type) {
	case *ast.ReturnStmt:
		cur = b.append(cur, st)
		cur.Return = st
		b.edge(cur, b.c.Exit, nil, false)
		return nil

	case *ast.BranchStmt:
		return b.branchStmt(cur, st)

	case *ast.LabeledStmt:
		// The label block is both the goto target and the head of the
		// labeled statement; break/continue with this label resolve inside.
		lbl := b.newBlock()
		b.edge(cur, lbl, nil, false)
		b.labels[st.Label.Name] = lbl
		switch inner := st.Stmt.(type) {
		case *ast.ForStmt:
			return b.forStmt(lbl, inner, st.Label.Name)
		case *ast.RangeStmt:
			return b.rangeStmt(lbl, inner, st.Label.Name)
		case *ast.SwitchStmt:
			return b.switchStmt(lbl, inner, st.Label.Name)
		case *ast.TypeSwitchStmt:
			return b.typeSwitchStmt(lbl, inner, st.Label.Name)
		case *ast.SelectStmt:
			return b.selectStmt(lbl, inner, st.Label.Name)
		default:
			return b.stmt(lbl, st.Stmt)
		}

	case *ast.IfStmt:
		return b.ifStmt(cur, st)
	case *ast.ForStmt:
		return b.forStmt(cur, st, "")
	case *ast.RangeStmt:
		return b.rangeStmt(cur, st, "")
	case *ast.SwitchStmt:
		return b.switchStmt(cur, st, "")
	case *ast.TypeSwitchStmt:
		return b.typeSwitchStmt(cur, st, "")
	case *ast.SelectStmt:
		return b.selectStmt(cur, st, "")
	case *ast.BlockStmt:
		return b.stmtList(cur, st.List)

	case *ast.ExprStmt:
		if isPanicCall(st.X) {
			cur = b.append(cur, st)
			b.edge(cur, b.c.PanicExit, nil, false)
			return nil
		}
		return b.append(cur, st)

	default:
		return b.append(cur, s)
	}
}

// append places s in its own panic-source block when the client says it
// may panic, otherwise into cur.
func (b *cfgBuilder) append(cur *cfgBlock, s ast.Node) *cfgBlock {
	if b.opts.PanicSource != nil && b.opts.PanicSource(s) {
		pb := b.newBlock()
		b.edge(cur, pb, nil, false)
		pb.Nodes = append(pb.Nodes, s)
		pb.PanicSource = true
		after := b.newBlock()
		b.edge(pb, after, nil, false)
		return after
	}
	cur.Nodes = append(cur.Nodes, s)
	return cur
}

func (b *cfgBuilder) branchStmt(cur *cfgBlock, st *ast.BranchStmt) *cfgBlock {
	label := ""
	if st.Label != nil {
		label = st.Label.Name
	}
	switch st.Tok {
	case token.GOTO:
		b.gotos[label] = append(b.gotos[label], cur)
		return nil
	case token.BREAK:
		for i := len(b.frames) - 1; i >= 0; i-- {
			fr := b.frames[i]
			if label == "" || fr.label == label {
				b.edge(cur, fr.breakTo, nil, false)
				return nil
			}
		}
		return nil
	case token.CONTINUE:
		for i := len(b.frames) - 1; i >= 0; i-- {
			fr := b.frames[i]
			if fr.isSwitch {
				continue // continue skips switch/select frames
			}
			if label == "" || fr.label == label {
				b.edge(cur, fr.contTo, nil, false)
				return nil
			}
		}
		return nil
	case token.FALLTHROUGH:
		// Handled by switchStmt wiring case bodies; as a statement it just
		// ends the block (the fallthrough edge is added by the caller).
		return cur
	}
	return cur
}

func (b *cfgBuilder) ifStmt(cur *cfgBlock, st *ast.IfStmt) *cfgBlock {
	if st.Init != nil {
		cur = b.append(cur, st.Init)
	}
	cur.Nodes = append(cur.Nodes, st.Cond)
	after := b.newBlock()

	thenB := b.newBlock()
	b.edge(cur, thenB, st.Cond, false)
	thenEnd := b.stmtList(thenB, st.Body.List)
	b.edge(thenEnd, after, nil, false)

	if st.Else != nil {
		elseB := b.newBlock()
		b.edge(cur, elseB, st.Cond, true)
		elseEnd := b.stmt(elseB, st.Else)
		b.edge(elseEnd, after, nil, false)
	} else {
		b.edge(cur, after, st.Cond, true)
	}
	return after
}

func (b *cfgBuilder) forStmt(cur *cfgBlock, st *ast.ForStmt, label string) *cfgBlock {
	if st.Init != nil {
		cur = b.append(cur, st.Init)
	}
	header := b.newBlock()
	b.edge(cur, header, nil, false)
	after := b.newBlock()
	post := b.newBlock()
	if st.Post != nil {
		post.Nodes = append(post.Nodes, st.Post)
	}
	b.edge(post, header, nil, false)

	body := b.newBlock()
	if st.Cond != nil {
		header.Nodes = append(header.Nodes, st.Cond)
		b.edge(header, body, st.Cond, false)
		b.edge(header, after, st.Cond, true)
	} else {
		b.edge(header, body, nil, false) // for {}: exits only via break
	}

	b.frames = append(b.frames, loopFrame{label: label, breakTo: after, contTo: post})
	bodyEnd := b.stmtList(body, st.Body.List)
	b.frames = b.frames[:len(b.frames)-1]
	b.edge(bodyEnd, post, nil, false)
	return after
}

func (b *cfgBuilder) rangeStmt(cur *cfgBlock, st *ast.RangeStmt, label string) *cfgBlock {
	header := b.newBlock()
	b.edge(cur, header, nil, false)
	// The RangeStmt node itself stands for the per-iteration key/value
	// binding (and the one-time evaluation of X).
	header.Nodes = append(header.Nodes, st)
	after := b.newBlock()
	body := b.newBlock()
	b.edge(header, body, nil, false)
	b.edge(header, after, nil, false)

	b.frames = append(b.frames, loopFrame{label: label, breakTo: after, contTo: header})
	bodyEnd := b.stmtList(body, st.Body.List)
	b.frames = b.frames[:len(b.frames)-1]
	b.edge(bodyEnd, header, nil, false)
	return after
}

func (b *cfgBuilder) switchStmt(cur *cfgBlock, st *ast.SwitchStmt, label string) *cfgBlock {
	if st.Init != nil {
		cur = b.append(cur, st.Init)
	}
	if st.Tag != nil {
		cur.Nodes = append(cur.Nodes, st.Tag)
	}
	return b.caseClauses(cur, st.Body.List, label, true)
}

func (b *cfgBuilder) typeSwitchStmt(cur *cfgBlock, st *ast.TypeSwitchStmt, label string) *cfgBlock {
	if st.Init != nil {
		cur = b.append(cur, st.Init)
	}
	cur = b.append(cur, st.Assign)
	return b.caseClauses(cur, st.Body.List, label, false)
}

// caseClauses wires switch/type-switch bodies: every clause is entered
// from the dispatch block, fallthrough chains clause bodies, and a
// missing default adds a skip edge.
func (b *cfgBuilder) caseClauses(dispatch *cfgBlock, clauses []ast.Stmt, label string, allowFallthrough bool) *cfgBlock {
	after := b.newBlock()
	b.frames = append(b.frames, loopFrame{label: label, breakTo: after, isSwitch: true})

	hasDefault := false
	heads := make([]*cfgBlock, len(clauses))
	for i, cl := range clauses {
		cc, ok := cl.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		heads[i] = b.newBlock()
		// Case expressions are evaluated by the dispatch block.
		for _, e := range cc.List {
			dispatch.Nodes = append(dispatch.Nodes, e)
		}
		b.edge(dispatch, heads[i], nil, false)
	}
	for i, cl := range clauses {
		cc, ok := cl.(*ast.CaseClause)
		if !ok || heads[i] == nil {
			continue
		}
		end := b.stmtList(heads[i], cc.Body)
		if allowFallthrough && endsInFallthrough(cc.Body) && i+1 < len(clauses) && heads[i+1] != nil {
			b.edge(end, heads[i+1], nil, false)
		} else {
			b.edge(end, after, nil, false)
		}
	}
	if !hasDefault {
		b.edge(dispatch, after, nil, false)
	}
	b.frames = b.frames[:len(b.frames)-1]
	return after
}

func endsInFallthrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	br, ok := body[len(body)-1].(*ast.BranchStmt)
	return ok && br.Tok == token.FALLTHROUGH
}

func (b *cfgBuilder) selectStmt(cur *cfgBlock, st *ast.SelectStmt, label string) *cfgBlock {
	after := b.newBlock()
	b.frames = append(b.frames, loopFrame{label: label, breakTo: after, isSwitch: true})
	for _, cl := range st.Body.List {
		cc, ok := cl.(*ast.CommClause)
		if !ok {
			continue
		}
		head := b.newBlock()
		b.edge(cur, head, nil, false)
		if cc.Comm != nil {
			head.Nodes = append(head.Nodes, cc.Comm)
		}
		end := b.stmtList(head, cc.Body)
		b.edge(end, after, nil, false)
	}
	if len(st.Body.List) == 0 {
		b.edge(cur, after, nil, false)
	}
	b.frames = b.frames[:len(b.frames)-1]
	return after
}

// isPanicCall reports whether e is a direct call to the builtin panic.
func isPanicCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

// witnessPath returns a shortest block path from→to (inclusive), skipping
// blocks rejected by avoid, or nil when unreachable. It is the evidence
// trail attached to path-sensitive findings.
func (c *cfg) witnessPath(from, to *cfgBlock, avoid func(*cfgBlock) bool) []*cfgBlock {
	if from == nil || to == nil {
		return nil
	}
	prev := map[*cfgBlock]*cfgBlock{from: from}
	queue := []*cfgBlock{from}
	for len(queue) > 0 {
		blk := queue[0]
		queue = queue[1:]
		if blk == to {
			var path []*cfgBlock
			for at := to; ; at = prev[at] {
				path = append([]*cfgBlock{at}, path...)
				if at == from {
					return path
				}
			}
		}
		next := make([]*cfgBlock, 0, len(blk.Succs)+1)
		for _, e := range blk.Succs {
			next = append(next, e.To)
		}
		if blk.PanicSource {
			next = append(next, c.PanicExit)
		}
		for _, n := range next {
			if _, seen := prev[n]; seen || (avoid != nil && n != to && avoid(n)) {
				continue
			}
			prev[n] = blk
			queue = append(queue, n)
		}
	}
	return nil
}

// blockLabel renders one block for witness traces and the -flow dump:
// its index plus the source line span of its evaluations.
func blockLabel(fset *token.FileSet, c *cfg, blk *cfgBlock) string {
	switch blk {
	case c.Entry:
		if len(blk.Nodes) == 0 {
			return "b0:entry"
		}
	case c.Exit:
		return fmt.Sprintf("b%d:exit", blk.Index)
	case c.PanicExit:
		return fmt.Sprintf("b%d:panic", blk.Index)
	}
	if len(blk.Nodes) == 0 {
		return fmt.Sprintf("b%d", blk.Index)
	}
	first := fset.Position(blk.Nodes[0].Pos()).Line
	last := fset.Position(blk.Nodes[len(blk.Nodes)-1].Pos()).Line
	if first == last {
		return fmt.Sprintf("b%d:L%d", blk.Index, first)
	}
	return fmt.Sprintf("b%d:L%d-%d", blk.Index, first, last)
}

// trace renders a witness path as block labels.
func (c *cfg) trace(fset *token.FileSet, path []*cfgBlock) []string {
	out := make([]string, 0, len(path))
	for _, blk := range path {
		out = append(out, blockLabel(fset, c, blk))
	}
	return out
}

// dump renders the whole graph for the driver's -flow debug mode.
func (c *cfg) dump(fset *token.FileSet) string {
	var sb strings.Builder
	blocks := append([]*cfgBlock(nil), c.Blocks...)
	sort.Slice(blocks, func(i, j int) bool { return blocks[i].Index < blocks[j].Index })
	for _, blk := range blocks {
		fmt.Fprintf(&sb, "  %s", blockLabel(fset, c, blk))
		if blk.PanicSource {
			sb.WriteString(" [panic-source]")
		}
		if blk.Return != nil {
			sb.WriteString(" [return]")
		}
		if len(blk.Succs) > 0 {
			sb.WriteString(" ->")
			for _, e := range blk.Succs {
				tag := ""
				if e.Cond != nil {
					if e.Neg {
						tag = "(false)"
					} else {
						tag = "(true)"
					}
				}
				fmt.Fprintf(&sb, " b%d%s", e.To.Index, tag)
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// DumpCFGs renders the control-flow graph of every function whose
// qualified name matches, one dump per function — the backing of the
// driver's -flow debug view. Methods qualify as pkg.(Recv).Name; plain
// functions as pkg.Name.
func DumpCFGs(w io.Writer, pkgs []*Package, match func(string) bool) error {
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				name := pkg.Path + "."
				if fd.Recv != nil && len(fd.Recv.List) > 0 {
					name += "(" + types.ExprString(fd.Recv.List[0].Type) + ")."
				}
				name += fd.Name.Name
				if !match(name) {
					continue
				}
				c := buildCFG(fd.Body, cfgOptions{})
				if _, err := fmt.Fprintf(w, "%s  %s\n%s\n", name, pkg.Fset.Position(fd.Pos()), c.dump(pkg.Fset)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
