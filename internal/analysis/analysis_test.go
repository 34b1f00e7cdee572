package analysis

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestRegistry pins the public check surface: the nine DP checks must all
// be registered and default to error severity.
func TestRegistry(t *testing.T) {
	want := []string{"acctlint", "epsbound", "epscheck", "errdrop", "expdomain", "floateq", "lockcheck", "maprange", "postproc", "rawrand", "sensann", "twophase"}
	got := Analyzers()
	if len(got) != len(want) {
		t.Fatalf("registered %d checks, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("check %d = %q, want %q", i, a.Name, want[i])
		}
		if a.Severity != Error {
			t.Errorf("check %q defaults to %v, want error", a.Name, a.Severity)
		}
		if a.Doc == "" {
			t.Errorf("check %q has no Doc", a.Name)
		}
		if ByName(a.Name) != a {
			t.Errorf("ByName(%q) does not round-trip", a.Name)
		}
	}
	if ByName("nope") != nil {
		t.Error("ByName of unknown check should be nil")
	}
}

// golden drives one check over its fixture tree under testdata/src/<check>
// and compares the diagnostics against // want "regex" annotations.
func golden(t *testing.T, check string) {
	t.Helper()
	a := ByName(check)
	if a == nil {
		t.Fatalf("unknown check %q", check)
	}
	root := filepath.Join("testdata", "src", check)
	if _, err := os.Stat(root); err != nil {
		t.Fatalf("fixture tree missing: %v", err)
	}
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := ExpandPatterns(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*Package
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			t.Fatal(err)
		}
		importPath := check
		if rel != "." {
			importPath = check + "/" + filepath.ToSlash(rel)
		}
		loaded, err := loader.LoadDir(dir, importPath, true)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", dir, err)
		}
		pkgs = append(pkgs, loaded...)
	}
	if len(pkgs) == 0 {
		t.Fatal("fixture tree loaded no packages")
	}
	diags := run(pkgs, []*Analyzer{a})
	wants := collectWants(t, pkgs)

	matched := make([]bool, len(wants))
	for _, d := range diags {
		ok := false
		for i, w := range wants {
			if matched[i] || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				matched[i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

type wantAnnotation struct {
	file string
	line int
	re   *regexp.Regexp
}

// collectWants parses // want "regex" (or backquoted) comments from every
// fixture file.
func collectWants(t *testing.T, pkgs []*Package) []wantAnnotation {
	t.Helper()
	var wants []wantAnnotation
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, "// want ")
					if !ok {
						continue
					}
					lit := strings.TrimSpace(rest)
					pattern, err := strconv.Unquote(lit)
					if err != nil {
						t.Fatalf("%s: bad want literal %s: %v", pkg.Fset.Position(c.Pos()), lit, err)
					}
					re, err := regexp.Compile(pattern)
					if err != nil {
						t.Fatalf("%s: bad want regexp: %v", pkg.Fset.Position(c.Pos()), err)
					}
					pos := pkg.Fset.Position(c.Pos())
					wants = append(wants, wantAnnotation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

func TestRawRandGolden(t *testing.T)   { golden(t, "rawrand") }
func TestEpsCheckGolden(t *testing.T)  { golden(t, "epscheck") }
func TestFloatEqGolden(t *testing.T)   { golden(t, "floateq") }
func TestExpDomainGolden(t *testing.T) { golden(t, "expdomain") }
func TestMapRangeGolden(t *testing.T)  { golden(t, "maprange") }
func TestErrDropGolden(t *testing.T)   { golden(t, "errdrop") }
func TestSensAnnGolden(t *testing.T)   { golden(t, "sensann") }
func TestAcctLintGolden(t *testing.T)  { golden(t, "acctlint") }
func TestPostProcGolden(t *testing.T)  { golden(t, "postproc") }
func TestTwoPhaseGolden(t *testing.T)  { golden(t, "twophase") }
func TestEpsBoundGolden(t *testing.T)  { golden(t, "epsbound") }
func TestLockcheckGolden(t *testing.T) { golden(t, "lockcheck") }

// writeFixtureModule lays out a throwaway module so suppression handling
// can be tested against exact line arithmetic.
func writeFixtureModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module fixture\n\ngo 1.22\n"
	for name, content := range files {
		full := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func loadFixtureModule(t *testing.T, dir string) []*Package {
	t.Helper()
	loader, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadPatterns([]string{"./..."}, true)
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

func TestSuppressionSameLineAndAbove(t *testing.T) {
	dir := writeFixtureModule(t, map[string]string{
		"p.go": `package p

// Eq compares exactly, twice, with both suppression placements.
func Eq(a, b float64) bool {
	sameLine := a == b //dplint:ignore floateq fixture: same-line suppression
	//dplint:ignore floateq fixture: line-above suppression
	above := a != b
	return sameLine || above
}
`,
	})
	diags := run(loadFixtureModule(t, dir), []*Analyzer{FloatEq})
	if len(diags) != 0 {
		t.Fatalf("suppressed findings leaked: %v", diags)
	}
}

func TestSuppressionWrongCheckDoesNotApply(t *testing.T) {
	dir := writeFixtureModule(t, map[string]string{
		"p.go": `package p

// Eq is covered by a directive for a different check only.
func Eq(a, b float64) bool {
	return a == b //dplint:ignore rawrand fixture: wrong check id
}
`,
	})
	diags := run(loadFixtureModule(t, dir), []*Analyzer{FloatEq})
	if len(diags) != 1 || diags[0].Check != "floateq" {
		t.Fatalf("want 1 floateq finding, got %v", diags)
	}
}

func TestSuppressionRequiresReason(t *testing.T) {
	dir := writeFixtureModule(t, map[string]string{
		"p.go": `package p

// Eq hides behind a reason-less directive, which must itself be flagged
// and must not suppress the underlying finding.
func Eq(a, b float64) bool {
	return a == b //dplint:ignore floateq
}
`,
	})
	diags := run(loadFixtureModule(t, dir), []*Analyzer{FloatEq})
	if len(diags) != 2 {
		t.Fatalf("want malformed-directive + floateq findings, got %v", diags)
	}
	var checks []string
	for _, d := range diags {
		checks = append(checks, d.Check)
	}
	joined := strings.Join(checks, ",")
	if !strings.Contains(joined, "dplint") || !strings.Contains(joined, "floateq") {
		t.Fatalf("want dplint and floateq, got %s", joined)
	}
}

func TestSuppressionCommaListAndWildcard(t *testing.T) {
	dir := writeFixtureModule(t, map[string]string{
		"p.go": `package p

// Eq and Neq are covered by a comma list and a wildcard respectively.
func Eq(a, b float64) bool {
	return a == b //dplint:ignore rawrand,floateq fixture: comma list
}

// Neq is suppressed for every check on its line.
func Neq(a, b float64) bool {
	return a != b //dplint:ignore * fixture: wildcard
}
`,
	})
	diags := run(loadFixtureModule(t, dir), []*Analyzer{FloatEq})
	if len(diags) != 0 {
		t.Fatalf("comma-list/wildcard suppression failed: %v", diags)
	}
}

func TestSeverityString(t *testing.T) {
	if Warn.String() != "warn" || Error.String() != "error" {
		t.Fatalf("severity strings wrong: %q %q", Warn, Error)
	}
	d := Diagnostic{Check: "floateq", Severity: Error, Message: "m"}
	d.Pos.Filename, d.Pos.Line, d.Pos.Column = "f.go", 3, 7
	if got := d.String(); got != "f.go:3:7: error: m [floateq]" {
		t.Fatalf("Diagnostic.String = %q", got)
	}
}

func TestExpandPatternsSkipsTestdata(t *testing.T) {
	dir := writeFixtureModule(t, map[string]string{
		"a/a.go":                "package a\n",
		"a/testdata/x/x.go":     "package x\n",
		"b/b.go":                "package b\n",
		"b/.hidden/h.go":        "package h\n",
		"c/nodir.txt":           "not go\n",
		"root.go":               "package root\n",
		"a/inner/vendor/v/v.go": "package v\n",
		"a/inner/i.go":          "package i\n",
	})
	dirs, err := ExpandPatterns(dir, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	var rels []string
	for _, d := range dirs {
		rel, _ := filepath.Rel(dir, d)
		rels = append(rels, filepath.ToSlash(rel))
	}
	want := fmt.Sprintf("%v", []string{".", "a", "a/inner", "b"})
	if got := fmt.Sprintf("%v", rels); got != want {
		t.Fatalf("ExpandPatterns = %v, want %v", got, want)
	}
}

// TestRepoIsLintClean is the enforcement test: the entire module must stay
// lint-clean (fix findings or suppress them with a reason). It is also a
// smoke test that the loader can type-check every package from source.
func TestRepoIsLintClean(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadPatterns([]string{"./..."}, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 15 {
		t.Fatalf("loaded only %d packages from the module; loader is missing code", len(pkgs))
	}
	diags := run(pkgs, Analyzers())
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Errorf("%d finding(s); fix them or add //dplint:ignore <check> <reason>", len(diags))
	}
}

// TestRunCtxCancellation pins the driver's interruption contract: a
// canceled context aborts between passes with a wrapped ctx error and no
// partial diagnostics (a truncated list would read as lint-clean for
// the unvisited packages), while an open context matches RunAllCtx.
func TestRunCtxCancellation(t *testing.T) {
	dir := writeFixtureModule(t, map[string]string{
		"p.go": `package p

// Eq compares exactly so the fixture has one deterministic finding.
func Eq(a, b float64) bool { return a == b }
`,
	})
	pkgs := loadFixtureModule(t, dir)

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	diags, err := RunAllCtx(canceled, pkgs, []*Analyzer{FloatEq})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if diags != nil {
		t.Fatalf("canceled run must discard diagnostics, got %v", diags)
	}
	if diags, err := RunCtx(canceled, pkgs, []*Analyzer{FloatEq}); !errors.Is(err, context.Canceled) || diags != nil {
		t.Fatalf("RunCtx: want (nil, context.Canceled), got (%v, %v)", diags, err)
	}

	got, err := RunCtx(context.Background(), pkgs, []*Analyzer{FloatEq})
	if err != nil {
		t.Fatal(err)
	}
	all, err := RunAllCtx(context.Background(), pkgs, []*Analyzer{FloatEq})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || len(all) != 1 || got[0].String() != all[0].String() {
		t.Fatalf("completed RunCtx diverged from RunAllCtx: got %v, want %v", got, all)
	}
}

// run is RunCtx under a background context, for tests that never cancel.
func run(pkgs []*Package, checks []*Analyzer) []Diagnostic {
	diags, _ := RunCtx(context.Background(), pkgs, checks)
	return diags
}
