package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"strconv"
	"strings"
)

// BenchResult is one parsed line of `go test -bench -benchmem` output —
// the unit of the repository's machine-readable perf trajectory
// (BENCH_*.json artifacts written by cmd/dplearn-bench).
type BenchResult struct {
	// Name is the benchmark name with the -cpu suffix stripped
	// (BenchmarkSum/workers=4-8 → Sum/workers=4).
	Name string `json:"name"`
	// Workers is the worker fan-out parsed from a "workers=N" sub-bench
	// component, or 0 when the benchmark does not sweep workers.
	Workers int `json:"workers,omitempty"`
	// Procs is the GOMAXPROCS suffix of the bench line (the -N tail).
	Procs int `json:"procs,omitempty"`
	// Iterations is the b.N the framework settled on.
	Iterations int64 `json:"iterations"`
	// NsPerOp, BytesPerOp, AllocsPerOp are the reported per-op costs;
	// Bytes/Allocs are present only under -benchmem.
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
}

// BenchReport is the JSON artifact shape: the environment header lines
// (goos/goarch/pkg/cpu) plus the parsed results.
type BenchReport struct {
	Package string        `json:"package,omitempty"`
	Goos    string        `json:"goos,omitempty"`
	Goarch  string        `json:"goarch,omitempty"`
	CPU     string        `json:"cpu,omitempty"`
	Results []BenchResult `json:"results"`
}

// ParseBench parses the text output of `go test -bench . -benchmem`:
// header lines (goos:, goarch:, pkg:, cpu:) fill the report envelope,
// Benchmark lines become results, and everything else (PASS, ok, test
// log noise) is skipped.
func ParseBench(r io.Reader) (*BenchReport, error) {
	rep := &BenchReport{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			rep.Package = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			res, ok := parseBenchLine(line)
			if ok {
				rep.Results = append(rep.Results, res)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return rep, nil
}

// parseBenchLine parses one "BenchmarkName-8  b.N  ns/op [B/op allocs/op]"
// line.
func parseBenchLine(line string) (BenchResult, bool) {
	fields := strings.Fields(line)
	if len(fields) < 3 {
		return BenchResult{}, false
	}
	name := strings.TrimPrefix(fields[0], "Benchmark")
	procs := 0
	if i := strings.LastIndex(name, "-"); i > 0 {
		if p, err := strconv.Atoi(name[i+1:]); err == nil {
			procs = p
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return BenchResult{}, false
	}
	res := BenchResult{Name: name, Procs: procs, Iterations: iters, Workers: parseWorkers(name)}
	// The remaining fields come in (value, unit) pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "ns/op":
			res.NsPerOp = v
		case "B/op":
			res.BytesPerOp = v
		case "allocs/op":
			res.AllocsPerOp = v
		}
	}
	return res, true
}

// parseWorkers extracts N from a "workers=N" component of a sub-bench
// name, defaulting to 0.
func parseWorkers(name string) int {
	for _, part := range strings.Split(name, "/") {
		if rest, ok := strings.CutPrefix(part, "workers="); ok {
			if n, err := strconv.Atoi(rest); err == nil {
				return n
			}
		}
	}
	return 0
}

// WriteBenchJSON writes the report as indented JSON (a stable, diffable
// artifact).
func (rep *BenchReport) WriteBenchJSON(w io.Writer) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if _, err := w.Write(append(b, '\n')); err != nil {
		return err
	}
	return nil
}
