// Package experiments contains the reproduction harness: one function per
// experiment in DESIGN.md's per-experiment index (E1–E12 plus the
// A-series ablations), each
// regenerating a table that validates one of the paper's theorems or
// figures. Each experiment is deterministic given Options.Seed; the
// Quick flag shrinks workloads for use inside benchmarks.
//
// The tables are the paper-shaped output: since the paper itself reports
// no numbers (it is a theory paper), EXPERIMENTS.md records the expected
// *shape* of every table and whether the run confirms it.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/checkpoint"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// Options configures an experiment run.
type Options struct {
	// Seed makes the run reproducible.
	Seed int64
	// Quick shrinks the workload (fewer Monte-Carlo samples, smaller
	// sweeps) so benchmarks finish promptly.
	Quick bool
	// Workers caps the worker fan-out of sweep-based experiments (0 =
	// all CPUs, 1 = serial). Every setting produces identical tables;
	// see SweepGrid.
	Workers int
	// Obs optionally instruments the sweeps (per-cell spans, worker
	// utilization metrics). Instrumentation only observes — tables are
	// bit-identical with it on or off. Nil disables observability.
	Obs *obs.Observer
	// Ctx, when non-nil, lets deadlines and SIGINT cancel sweep-based
	// experiments between cells (claimed cells always complete, so a
	// checkpoint log never records torn results). Nil means no
	// cancellation.
	Ctx context.Context
	// Checkpoint, when non-nil, persists each completed sweep cell and
	// resumes past cells already recorded — see SweepGridCtx. Tables are
	// bit-identical with it on, off, or interrupted and resumed.
	Checkpoint *checkpoint.Log
}

// parallel returns the fan-out options for sweep-based experiments.
func (o Options) parallel() parallel.Options {
	return parallel.Options{Workers: o.Workers, Obs: o.Obs}
}

// ctx returns the run context, defaulting to context.Background().
func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// sweep returns the SweepGridCtx configuration for this run.
func (o Options) sweep() SweepConfig {
	return SweepConfig{Parallel: o.parallel(), Checkpoint: o.Checkpoint}
}

// Table is an experiment result in the shape of a paper table.
type Table struct {
	// ID is the experiment identifier (e.g. "E1").
	ID string
	// Title describes what the table shows and the claim it validates.
	Title string
	// Columns are the header labels.
	Columns []string
	// Rows hold the formatted cells.
	Rows [][]string
	// Notes carry pass/fail verdicts and caveats.
	Notes []string
}

// AddRow appends a row of formatted cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddNote appends a note line.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%s: %s\n", t.ID, t.Title); err != nil {
		return err
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) string {
		var b strings.Builder
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if pad := widths[i] - len(cell); pad > 0 && i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", pad))
			}
		}
		return b.String()
	}
	if _, err := fmt.Fprintln(w, line(t.Columns)); err != nil {
		return err
	}
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", total)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// Runner is an experiment entry point.
type Runner func(Options) (*Table, error)

// ErrUnknownExperiment is returned by Run for an unregistered ID.
var ErrUnknownExperiment = errors.New("experiments: unknown experiment id")

// registry maps experiment IDs to runners.
var registry = map[string]Runner{
	"E1":  E1LaplacePrivacy,
	"E2":  E2ExpMechPrivacy,
	"E3":  E3CatoniBound,
	"E4":  E4GibbsOptimality,
	"E5":  E5GibbsPrivacy,
	"E6":  E6MIRiskTradeoff,
	"E7":  E7BaselineComparison,
	"E8":  E8LeakageBounds,
	"E9":  E9PrivateRegression,
	"E10": E10DensityEstimation,
	"E11": E11ExpectationBound,
	"E12": E12Reconstruction,
	"A1":  A1PriorAblation,
	"A2":  A2LambdaSelection,
	"A3":  A3MCMCvsExact,
	"A4":  A4BoundComparison,
	"A5":  A5LeakageMeasures,
	"A6":  A6PermuteAndFlip,
	"A7":  A7MWEM,
	"A8":  A8NoisyGD,
	"A9":  A9LocalVsCentral,
	"A10": A10PrivatePCA,
	"A11": A11SparseVector,
}

// IDs returns the registered experiment IDs in order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	// Order: main experiments E1..E10 first, then ablations A1..A5,
	// each numerically.
	rank := func(id string) (group, num int) {
		var n int
		if _, err := fmt.Sscanf(id, "E%d", &n); err == nil {
			return 0, n
		}
		if _, err := fmt.Sscanf(id, "A%d", &n); err == nil {
			return 1, n
		}
		return 2, 0
	}
	sort.Slice(out, func(i, j int) bool {
		gi, ni := rank(out[i])
		gj, nj := rank(out[j])
		if gi != gj {
			return gi < gj
		}
		return ni < nj
	})
	return out
}

// Run executes one experiment by ID.
func Run(id string, opts Options) (*Table, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownExperiment, id)
	}
	return r(opts)
}

// RunMany executes the given experiments concurrently (bounded by
// workers) and returns the tables in the requested order. Each
// experiment is internally deterministic given opts.Seed, so concurrent
// execution changes wall-clock time only, never results.
func RunMany(ids []string, opts Options, workers int) ([]*Table, error) {
	if workers <= 0 {
		workers = 1
	}
	type result struct {
		idx int
		t   *Table
		err error
	}
	jobs := make(chan int)
	results := make(chan result, len(ids))
	for w := 0; w < workers; w++ {
		go func() {
			for idx := range jobs {
				t, err := Run(ids[idx], opts)
				results <- result{idx: idx, t: t, err: err}
			}
		}()
	}
	go func() {
		for i := range ids {
			jobs <- i
		}
		close(jobs)
	}()
	out := make([]*Table, len(ids))
	var firstErr error
	for range ids {
		r := <-results
		if r.err != nil && firstErr == nil {
			firstErr = fmt.Errorf("experiments: %s failed: %w", ids[r.idx], r.err)
		}
		out[r.idx] = r.t
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// f formats a float compactly for table cells.
func f(v float64) string { return fmt.Sprintf("%.4g", v) }
