// Package analysis is a self-contained static-analysis framework for the
// privacy-correctness invariants this repository depends on. The paper's
// guarantees (Theorems 2.1/2.2: ε-DP of the Laplace and exponential
// mechanisms) hold only if the implementation respects properties the Go
// type system cannot see: validated ε and sensitivity parameters, seeded
// randomness routed through internal/rng, log-domain arithmetic on
// exponential-mechanism weights, and no floating-point equality on
// probability mass. Each registered Analyzer enforces one such invariant;
// cmd/dplearn-lint is the command-line driver.
//
// The framework is deliberately modelled on golang.org/x/tools/go/analysis
// but is built only on the standard library (go/ast, go/parser, go/types,
// go/build), so the module keeps zero external dependencies.
//
// Findings can be silenced per line with a suppression comment:
//
//	//dplint:ignore <check>[,<check>...] <reason>
//
// placed on the offending line or the line directly above it. The reason
// is mandatory; a directive without one is itself reported (check id
// "dplint") so that suppressions stay auditable.
package analysis

import (
	"context"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Severity classifies how a finding affects the exit status of the driver:
// Error findings fail the build, Warn findings are reported but do not.
type Severity int

const (
	// Warn marks advisory findings.
	Warn Severity = iota
	// Error marks findings that must be fixed or explicitly suppressed.
	Error
)

// String renders the severity in lower case ("warn", "error").
func (s Severity) String() string {
	if s == Error {
		return "error"
	}
	return "warn"
}

// Diagnostic is one finding produced by an Analyzer, located at a concrete
// file position.
type Diagnostic struct {
	Check    string         `json:"check"`
	Severity Severity       `json:"-"`
	Pos      token.Position `json:"-"`
	Message  string         `json:"message"`

	// Suppressed marks findings silenced by a //dplint:ignore directive;
	// RunCtx drops them, RunAllCtx keeps them flagged (so tooling such as the
	// -json driver mode can audit what was waived and why).
	Suppressed bool `json:"suppressed"`
	// SuppressReason is the directive's mandatory reason when Suppressed.
	SuppressReason string `json:"suppress_reason,omitempty"`

	// Trace is the per-path witness of a flow-sensitive finding: the CFG
	// block sequence (entry label per block, "b<idx>:L<lines>") along one
	// concrete execution path exhibiting the violation. Empty for
	// findings from flow-insensitive checks.
	Trace []string `json:"trace,omitempty"`
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s [%s]",
		d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Severity, d.Message, d.Check)
}

// Analyzer is one registered check. Run inspects a single type-checked
// package via its Pass and reports findings through Pass.Reportf.
type Analyzer struct {
	// Name is the check id used in output, suppression directives, and
	// the driver's -checks flag.
	Name string
	// Doc is a one-paragraph description of the invariant enforced and
	// why it matters for the DP guarantees.
	Doc string
	// Severity is the default severity of the check's findings.
	Severity Severity
	// Run inspects one package.
	Run func(*Pass)
}

// Pass carries one type-checked package through one Analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *Package
	// Prog is the whole-run view (call graph, cross-package lookup)
	// shared by every pass of one Run.
	Prog *Program

	diags *[]Diagnostic
}

// Reportf records a finding at pos with the pass's default severity.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.ReportTrace(pos, nil, format, args...)
}

// ReportTrace is Reportf with a block-path witness attached: the CFG
// block sequence of one concrete execution exhibiting the violation,
// surfaced through the driver's NDJSON output for audit tooling.
func (p *Pass) ReportTrace(pos token.Pos, trace []string, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Check:    p.Analyzer.Name,
		Severity: p.Analyzer.Severity,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
		Trace:    trace,
	})
}

// TypeOf returns the type of e in the package under analysis, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.Info.TypeOf(e) }

// ObjectOf returns the object denoted by id, consulting both Defs and Uses.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object { return p.Pkg.Info.ObjectOf(id) }

// IsTestFile reports whether the file containing pos is a _test.go file.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	return isTestFilename(p.Fset.Position(pos).Filename)
}

// registry holds every known Analyzer, keyed by name at registration time.
var registry []*Analyzer

func register(a *Analyzer) *Analyzer {
	for _, old := range registry {
		if old.Name == a.Name {
			panic("analysis: duplicate analyzer " + a.Name)
		}
	}
	registry = append(registry, a)
	return a
}

// Analyzers returns every registered check, sorted by name.
func Analyzers() []*Analyzer {
	out := make([]*Analyzer, len(registry))
	copy(out, registry)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ByName resolves a check id, returning nil if unknown.
func ByName(name string) *Analyzer {
	for _, a := range registry {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// RunCtx applies the given analyzers to the given packages, filters the
// findings through //dplint:ignore directives, and returns the surviving
// diagnostics sorted by position. Malformed or reason-less directives are
// reported under the meta check id "dplint". Cancellation follows
// RunAllCtx.
func RunCtx(ctx context.Context, pkgs []*Package, checks []*Analyzer) ([]Diagnostic, error) {
	all, err := RunAllCtx(ctx, pkgs, checks)
	if err != nil {
		return nil, err
	}
	var out []Diagnostic
	for _, d := range all {
		if !d.Suppressed {
			out = append(out, d)
		}
	}
	return out, nil
}

// RunAllCtx is RunCtx without the suppression filter: findings silenced
// by a //dplint:ignore directive are returned with Suppressed set and the
// directive's reason attached, instead of being dropped. ctx is checked
// once per (package, analyzer) pair, so a ^C'd or timed-out lint run
// stops between passes instead of mid-walk. On cancellation the
// diagnostics gathered so far are discarded (a partial report would read
// as a clean bill for the unvisited packages) and the wrapped ctx error
// is returned.
func RunAllCtx(ctx context.Context, pkgs []*Package, checks []*Analyzer) ([]Diagnostic, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	prog := NewProgram(pkgs)
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range checks {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("analysis: canceled before %s on %s: %w", a.Name, pkg.Path, err)
			}
			pass := &Pass{Analyzer: a, Fset: pkg.Fset, Pkg: pkg, Prog: prog, diags: &diags}
			a.Run(pass)
		}
	}
	sup := newSuppressionIndex()
	var out []Diagnostic
	for _, pkg := range pkgs {
		out = append(out, sup.addPackage(pkg)...)
	}
	for _, d := range diags {
		if dir, ok := sup.directiveFor(d.Pos.Filename, d.Check, d.Pos.Line); ok {
			d.Suppressed = true
			d.SuppressReason = dir.reason
		}
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	return out, nil
}
