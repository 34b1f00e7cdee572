// Command dplearn-bench runs the repository's benchmark suites and
// writes machine-readable BENCH_<name>.json artifacts (parsed from the
// standard `go test -bench` text by internal/obs.ParseBench). CI uploads
// the artifacts so the perf trajectory of the deterministic parallel
// engine, the mechanism family, the risk grid and WAL recovery (whole
// logs, and the per-line decode) is diffable across commits.
//
// Usage:
//
//	dplearn-bench [-out .] [-benchtime 1x] [-suite parallel,mechanism]
//
// Each suite maps to one package and one artifact:
//
//	parallel  → ./internal/parallel  → BENCH_parallel.json
//	mechanism → ./internal/mechanism → BENCH_mechanism.json
//	lint      → ./internal/analysis  → BENCH_lint.json
//	learn     → ./internal/learn     → BENCH_learn.json
//	wal       → ./internal/wal       → BENCH_wal.json
//
// -timeout bounds the whole run; ^C or the deadline kills the in-flight
// `go test` child, no partial artifact is written for the interrupted
// suite, and the process exits non-zero.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"repro/internal/obs"
	"repro/internal/obsglue"
)

// suites maps -suite names to the package each one benchmarks.
var suites = map[string]string{
	"parallel":  "./internal/parallel",
	"mechanism": "./internal/mechanism",
	"lint":      "./internal/analysis",
	"learn":     "./internal/learn",
	"wal":       "./internal/wal",
}

// suiteOrder fixes the run order (map iteration is randomized).
var suiteOrder = []string{"parallel", "mechanism", "lint", "learn", "wal"}

func main() {
	outDir := flag.String("out", ".", "directory for the BENCH_<suite>.json artifacts")
	benchtime := flag.String("benchtime", "1x", "go test -benchtime value (1x = one iteration, a smoke run; make bench-json passes 200ms)")
	suiteList := flag.String("suite", strings.Join(suiteOrder, ","), "comma-separated suites to run")
	goBin := flag.String("go", "go", "go tool to invoke")
	timeout := flag.Duration("timeout", 0, "abort the run after this duration (0 = no limit)")
	flag.Parse()

	ctx, stop := obsglue.RunContext(*timeout)
	defer stop()

	for _, name := range strings.Split(*suiteList, ",") {
		name = strings.TrimSpace(name)
		pkg, ok := suites[name]
		if !ok {
			fatal(fmt.Errorf("unknown suite %q (have: %s)", name, strings.Join(suiteOrder, ", ")))
		}
		if err := runSuite(ctx, *goBin, name, pkg, *benchtime, *outDir); err != nil {
			fatal(err)
		}
	}
}

// runSuite runs one package's benchmarks and writes its JSON artifact.
// The child inherits ctx, so cancellation kills it and the suite's
// artifact is never written from a truncated benchmark log.
func runSuite(ctx context.Context, goBin, name, pkg, benchtime, outDir string) error {
	cmd := exec.CommandContext(ctx, goBin, "test", "-run", "^$", "-bench", ".", "-benchmem", "-benchtime", benchtime, pkg)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return fmt.Errorf("%s: %w", name, cerr)
		}
		return fmt.Errorf("%s: %w", name, err)
	}
	rep, err := obs.ParseBench(strings.NewReader(string(out)))
	if err != nil {
		return fmt.Errorf("parse %s: %w", name, err)
	}
	if len(rep.Results) == 0 {
		return fmt.Errorf("%s produced no benchmark lines", name)
	}
	path := filepath.Join(outDir, "BENCH_"+name+".json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.WriteBenchJSON(f); err != nil {
		f.Close() //dplint:ignore errdrop the write error already aborts the artifact
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("dplearn-bench: wrote %s (%d result(s))\n", path, len(rep.Results))
	return nil
}

// fatal prints the error and exits non-zero; a canceled run gets a
// distinct interruption message so scripts can tell ^C from failure.
func fatal(err error) {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "dplearn-bench: interrupted: %v\n", err)
	} else {
		fmt.Fprintf(os.Stderr, "dplearn-bench: %v\n", err)
	}
	os.Exit(1)
}
