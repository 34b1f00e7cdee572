package analysis

import (
	"bytes"
	"encoding/json"
	"go/token"
	"os"
	"strings"
	"testing"
)

// repoCertificates recomputes the module's budget certificates exactly the
// way `dplearn-lint -certify` does: test files excluded, paths relative to
// the module root.
func repoCertificates(t *testing.T) []Certificate {
	t.Helper()
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadPatterns([]string{"./..."}, false)
	if err != nil {
		t.Fatal(err)
	}
	return BudgetCertificates(pkgs, loader.ModuleRoot())
}

// TestBudgetCertificatesCoverEntrySurface pins the analysis-level
// acceptance criteria: every /v1 handler and every facade release function
// gets a certificate, the request-scoped handlers certify at exactly the
// quoted request epsilon, and nothing in the module is unbounded.
func TestBudgetCertificatesCoverEntrySurface(t *testing.T) {
	certs := repoCertificates(t)
	byEntry := make(map[string]Certificate, len(certs))
	for _, c := range certs {
		byEntry[c.Entry] = c
	}

	handlers := []string{
		"handleHealthz", "handleTenants", "handleBudget", "handleCertify",
		"handleCrossCheck", "handleDensity", "handleSummary", "handleSelect",
		"handleFit",
	}
	for _, h := range handlers {
		entry := "(*repro/internal/serve.Server)." + h
		if _, ok := byEntry[entry]; !ok {
			t.Errorf("no certificate for serve handler %s", entry)
		}
	}
	// Handlers that quote the request's epsilon directly must certify at
	// exactly that symbol: the service can compare quote and bound.
	for _, h := range []string{"handleDensity", "handleSummary", "handleSelect"} {
		entry := "(*repro/internal/serve.Server)." + h
		if c, ok := byEntry[entry]; ok && c.Eps != "req.Epsilon" {
			t.Errorf("%s certifies eps=%q, want req.Epsilon", entry, c.Eps)
		}
	}

	facade := map[string]string{
		"repro.PrivateHistogramDensity": "epsilon",
		"repro.GibbsHistogramDensity":   "epsilon",
		"repro.ReleaseSummary":          "cfg.Epsilon",
	}
	for entry, wantEps := range facade {
		c, ok := byEntry[entry]
		if !ok {
			t.Errorf("no certificate for facade entry %s", entry)
			continue
		}
		if c.Eps != wantEps {
			t.Errorf("%s certifies eps=%q, want %q", entry, c.Eps, wantEps)
		}
	}

	// A method is an entry only when an importer can name its receiver:
	// no certificate goes to a method of an unexported type.
	for _, c := range certs {
		if recv, _, ok := strings.Cut(c.Entry, ")."); ok && strings.HasPrefix(recv, "(") {
			if typ := recv[strings.LastIndex(recv, ".")+1:]; !token.IsExported(typ) {
				t.Errorf("%s is certified, but its receiver type %s is unexported", c.Entry, typ)
			}
		}
	}

	for _, c := range certs {
		if c.Unbounded {
			t.Errorf("%s is unbounded (eps=%s, delta=%s); annotate the loop or fix the charge",
				c.Entry, c.Eps, c.Delta)
		}
	}

	// Charging entries must carry a witness path; a bound with no backing
	// charge sites is unauditable.
	for _, c := range certs {
		if c.Eps != "0" && len(c.Witness) == 0 {
			t.Errorf("%s has nonzero bound %s but no witness", c.Entry, c.Eps)
		}
	}
}

// TestBudgetCertificatesMatchCommitted byte-compares a fresh certificate
// run against results/budget_certificates.ndjson, so any bound change
// must land in the same commit as the code that caused it (regenerate
// with `make certify`).
func TestBudgetCertificatesMatchCommitted(t *testing.T) {
	committed, err := os.ReadFile("../../results/budget_certificates.ndjson")
	if err != nil {
		t.Fatalf("read committed certificates (regenerate with `make certify`): %v", err)
	}

	var fresh bytes.Buffer
	enc := json.NewEncoder(&fresh)
	for _, c := range repoCertificates(t) {
		if err := enc.Encode(c); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(committed, fresh.Bytes()) {
		t.Fatalf("results/budget_certificates.ndjson is stale; run `make certify` and commit the diff\n--- committed ---\n%s\n--- fresh ---\n%s",
			firstDiffLines(string(committed), fresh.String()), firstDiffLines(fresh.String(), string(committed)))
	}
}

// firstDiffLines returns the first few lines of a that differ from b, to
// keep the staleness failure readable.
func firstDiffLines(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	var out []string
	for i := range la {
		if i >= len(lb) || la[i] != lb[i] {
			for j := i; j < len(la) && j < i+3; j++ {
				out = append(out, la[j])
			}
			break
		}
	}
	if len(out) == 0 {
		return "(suffix differs)"
	}
	return strings.Join(out, "\n")
}
