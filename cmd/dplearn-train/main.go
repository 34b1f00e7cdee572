// Command dplearn-train trains a differentially-private linear classifier
// on a CSV file with the Gibbs estimator and prints the predictor with
// its privacy and PAC-Bayes certificates.
//
// The CSV must contain numeric feature columns and a label column with
// values ±1 (or use -labelmap "pos=1,neg=-1"). Example:
//
//	dplearn-train -csv data.csv -label 3 -eps 1.0 -grid 9 -box 2
//
// Observability (all opt-in): -trace out.ndjson writes a structured
// trace whose ledger lines account every ε-spending release; the
// summary printed on exit recomposes them, the run's offline witness of
// what the accountant charged (compare it with the budget line).
// -metrics-addr serves /metrics (Prometheus text) and /debug/vars, and
// -pprof adds /debug/pprof on the same endpoint.
//
// Robustness: -timeout bounds the run and ^C drains gracefully (claimed
// work finishes, the ledger flushes, the process exits non-zero).
// -budget caps the total ε the accountant may spend across -fits
// repeated fits; -degrade picks what happens when the cap cannot admit
// another release (refuse the fit, re-release the cached predictor for
// free, or widen the posterior to the remaining budget).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	dplearn "repro"
	"repro/internal/dataset"
	"repro/internal/learn"
	"repro/internal/mechanism"
	"repro/internal/obsglue"
	"repro/internal/parallel"
)

func main() {
	csvPath := flag.String("csv", "", "path to the CSV file (required)")
	labelCol := flag.Int("label", -1, "label column index (required)")
	labelMap := flag.String("labelmap", "", "optional label mapping, e.g. \"spam=1,ham=-1\"")
	hasHeader := flag.Bool("header", true, "CSV has a header row")
	eps := flag.Float64("eps", 1.0, "privacy budget")
	delta := flag.Float64("delta", 0.05, "PAC-Bayes confidence parameter")
	gridPts := flag.Int("grid", 9, "grid points per dimension")
	box := flag.Float64("box", 2, "coefficient box half-width")
	seed := flag.Int64("seed", 1, "random seed")
	timeout := flag.Duration("timeout", 0, "abort the run after this duration (0 = no limit)")
	budget := flag.Float64("budget", 0, "total ε the accountant may spend across all fits (0 = unlimited)")
	degrade := flag.String("degrade", "refuse", "what to do when -budget cannot admit a fit: refuse, fallback, or widen")
	fits := flag.Int("fits", 1, "number of repeated fits (each spends ε against -budget)")
	var obsFlags obsglue.Flags
	obsFlags.Register(flag.CommandLine)
	flag.Parse()

	rt, err := obsglue.Start(obsFlags)
	if err != nil {
		fatal(nil, err)
	}
	if rt.Addr != "" {
		fmt.Fprintf(os.Stderr, "dplearn-train: metrics on http://%s/metrics\n", rt.Addr)
	}

	if *csvPath == "" || *labelCol < 0 {
		fmt.Fprintln(os.Stderr, "dplearn-train: -csv and -label are required")
		flag.Usage()
		os.Exit(2)
	}
	var lm map[string]float64
	if *labelMap != "" {
		lm = map[string]float64{}
		for _, pair := range strings.Split(*labelMap, ",") {
			kv := strings.SplitN(strings.TrimSpace(pair), "=", 2)
			if len(kv) != 2 {
				fatal(rt, fmt.Errorf("bad -labelmap entry %q", pair))
			}
			v, err := strconv.ParseFloat(kv[1], 64)
			if err != nil {
				fatal(rt, err)
			}
			lm[kv[0]] = v
		}
	}
	f, err := os.Open(*csvPath)
	if err != nil {
		fatal(rt, err)
	}
	defer f.Close() //dplint:ignore errdrop read-only file: a close error after successful reads cannot lose data
	d, err := dataset.FromCSV(f, dataset.CSVOptions{
		LabelColumn: *labelCol,
		HasHeader:   *hasHeader,
		LabelMap:    lm,
	})
	if err != nil {
		fatal(rt, err)
	}
	d.NormalizeRows()

	policy, err := dplearn.ParseDegradePolicy(*degrade)
	if err != nil {
		fatal(rt, err)
	}
	ctx, stop := obsglue.RunContext(*timeout)
	defer stop()

	var acct dplearn.Accountant
	acct.SetObserver(func(r mechanism.SpendRecord) { obsglue.RecordSpend(rt.Ledger, r) })
	if *budget > 0 {
		if err := acct.SetBudget(dplearn.Guarantee{Epsilon: *budget}); err != nil {
			fatal(rt, err)
		}
	}
	grid := learn.NewGrid(-*box, *box, d.Dim(), *gridPts)
	learner, err := dplearn.NewLearner(dplearn.Config{
		Loss:     learn.ZeroOneLoss{},
		Thetas:   grid.Thetas(),
		Epsilon:  *eps,
		Delta:    *delta,
		Acct:     &acct,
		Degrade:  policy,
		Parallel: parallel.Options{Obs: rt.Obs},
	})
	if err != nil {
		fatal(rt, err)
	}
	g := dplearn.NewRNG(*seed)

	fmt.Printf("loaded %d examples with %d features from %s\n", d.Len(), d.Dim(), *csvPath)
	for i := 0; i < *fits; i++ {
		fit, err := learner.FitCtx(ctx, d, g)
		switch {
		case err == nil:
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			// Graceful drain: the books are balanced; flush them and leave
			// with a non-zero status so scripts see the interruption.
			fmt.Fprintf(os.Stderr, "dplearn-train: fit %d/%d interrupted: %v\n", i+1, *fits, err)
			if cerr := rt.Close(os.Stderr); cerr != nil {
				fmt.Fprintf(os.Stderr, "dplearn-train: %v\n", cerr)
			}
			os.Exit(1)
		case errors.Is(err, dplearn.ErrBudgetExhausted):
			fatal(rt, fmt.Errorf("fit %d/%d refused: %w (retry with -degrade fallback|widen or a larger -budget)", i+1, *fits, err))
		default:
			fatal(rt, err)
		}
		if *fits > 1 {
			fmt.Printf("--- fit %d/%d ---\n", i+1, *fits)
		}
		if fit.Degraded {
			fmt.Printf("degraded: budget could not admit eps=%g; applied policy %s\n", *eps, fit.Policy)
		}
		fmt.Printf("predictor: %v\n", fit.Theta)
		fmt.Printf("training 0-1 error: %.4f\n", learn.ClassificationError(fit.Theta, d))
		c := fit.Certificate
		fmt.Printf("privacy certificate (Theorem 4.1): %s at lambda=%.4g\n", c.Privacy, c.Lambda)
		fmt.Printf("risk certificate (Theorem 3.1): true risk <= %.4f w.p. %.0f%%\n", c.RiskBound, 100*(1-c.Delta))
		fmt.Printf("posterior stats: E[emp risk]=%.4f, KL=%.4f nats\n", c.ExpEmpRisk, c.KL)
	}
	if *budget > 0 {
		spent := acct.BasicComposition()
		fmt.Printf("budget: spent eps=%.4g of %.4g across %d accounted release(s)\n", spent.Epsilon, *budget, acct.Count())
	}
	if err := rt.Close(os.Stderr); err != nil {
		fatal(nil, err)
	}
}

// fatal flushes the ledger (best effort) before exiting non-zero, so
// even a failed run leaves auditable books.
func fatal(rt *obsglue.Runtime, err error) {
	fmt.Fprintf(os.Stderr, "dplearn-train: %v\n", err)
	if cerr := rt.Close(os.Stderr); cerr != nil {
		fmt.Fprintf(os.Stderr, "dplearn-train: %v\n", cerr)
	}
	os.Exit(1)
}
