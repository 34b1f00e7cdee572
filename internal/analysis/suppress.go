package analysis

import "strings"

// ignorePrefix introduces a suppression directive:
//
//	//dplint:ignore <check>[,<check>...] <reason>
//
// The directive silences matching findings reported on its own line or on
// the line immediately below it, which covers both trailing comments and
// comments placed above the offending statement.
const ignorePrefix = "//dplint:ignore"

// directive is one parsed //dplint:ignore comment.
type directive struct {
	checks []string
	reason string
	line   int
}

func (d directive) covers(check string, line int) bool {
	if line != d.line && line != d.line+1 {
		return false
	}
	for _, c := range d.checks {
		if c == check || c == "*" {
			return true
		}
	}
	return false
}

// suppressionIndex accumulates directives per file across packages.
type suppressionIndex struct {
	byFile map[string][]directive
}

func newSuppressionIndex() *suppressionIndex {
	return &suppressionIndex{byFile: make(map[string][]directive)}
}

// addPackage parses every //dplint:ignore directive in pkg, recording
// well-formed ones and returning Error diagnostics (check id "dplint") for
// directives that omit the mandatory reason.
func (s *suppressionIndex) addPackage(pkg *Package) []Diagnostic {
	var bad []Diagnostic
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				rest := strings.TrimPrefix(c.Text, ignorePrefix)
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue // e.g. //dplint:ignoreXYZ is not a directive
				}
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					bad = append(bad, Diagnostic{
						Check:    "dplint",
						Severity: Error,
						Pos:      pos,
						Message:  "malformed suppression: want //dplint:ignore <check>[,<check>...] <reason>",
					})
					continue
				}
				s.byFile[pos.Filename] = append(s.byFile[pos.Filename], directive{
					checks: strings.Split(fields[0], ","),
					reason: strings.Join(fields[1:], " "),
					line:   pos.Line,
				})
			}
		}
	}
	return bad
}

// directiveFor returns the first directive in file that covers the given
// check and line, for tests and tooling that want the recorded reason.
func (s *suppressionIndex) directiveFor(file, check string, line int) (directive, bool) {
	for _, dir := range s.byFile[file] {
		if dir.covers(check, line) {
			return dir, true
		}
	}
	return directive{}, false
}

func isTestFilename(name string) bool {
	return strings.HasSuffix(name, "_test.go")
}
