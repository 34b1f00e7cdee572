// Command dplearn-serve runs the multi-tenant DP release service: the
// facade (fit / certify / select / density / summary) as JSON endpoints,
// one dedicated budget-enforcing accountant per tenant.
//
//	dplearn-serve -addr localhost:8080 -tenants "alpha=4,beta=1.5"
//
// Each tenant's declared value is its hard ε budget; every spending
// request rides the accountant's two-phase Reserve/Commit protocol, a
// request the budget cannot admit answers 429 (or degrades per its
// refuse/fallback/widen policy), and /metrics exposes per-tenant spend
// gauges next to the service counters. A 429 is final when the
// committed spends alone refuse the request: it carries the code
// "budget_exhausted" and no Retry-After, since spends never fall. A
// 429 that an outstanding hold could still clear carries -retry-after,
// as a 503 does.
//
// On SIGINT/SIGTERM or -timeout the server drains gracefully: new /v1
// requests get 503, in-flight requests finish (commit or release —
// never half-spend), and each tenant's accountant is audited bit for
// bit against its write-ahead log before exit; a failed audit exits
// non-zero. Without -wal-dir the drain line names no in-process
// witness, and the offline one is dplearn-trace -check over -trace.
// Each tenant's drain line gives its own spend; the exit prints no ε
// composed across tenants, which would add separate budgets into a
// number that bounds no one's loss.
//
// -addr-file writes the bound address (useful with -addr :0) so
// scripts can wait for readiness.
//
// -wal-dir makes budgets crash-safe: every spending request that
// answers 2xx writes and fsyncs one commit record — carrying the exact
// charges, and the response bytes when the request is keyed — before
// any response byte escapes; a refused, failed or crashed request
// writes nothing. On boot the WAL is replayed: committed charges are
// rebuilt bit-for-bit (audited against the log's own books; a mismatch
// refuses to serve), and Idempotency-Key outcomes are restored
// so client retries replay the original response instead of buying a
// second release. A per-tenant recovery report prints at boot.
//
// -tenants-file names a declaration file (same id=eps syntax as
// -tenants, entries separated by commas or newlines, # comments).
// SIGHUP re-reads it live: new tenants are added (WAL attached when
// -wal-dir is set) and existing budgets may be raised; lowering below
// the current cap is refused, because admissions already made against
// the old budget must stay sound.
//
// Observability rides the shared obsglue flag surface: -trace writes
// the NDJSON trace stream (request spans, release child spans, and
// trace-stamped ledger lines — the input of dplearn-trace),
// -metrics-addr serves /metrics on a separate endpoint, and -pprof
// mounts /debug/pprof on the service mux (and on -metrics-addr when
// set). -access-log writes one NDJSON "access" line per /v1 request:
// trace id, tenant, endpoint, status, quoted vs. spent ε, reservation
// outcome, duration in logical ticks, and the request span's id when
// the request carried a traceparent.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obsglue"
	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", "localhost:8080", "listen address (use :0 for a free port with -addr-file)")
	addrFile := flag.String("addr-file", "", "write the bound address to this file once listening")
	tenants := flag.String("tenants", "", "tenant declaration id=eps[,id=eps...] (required unless -tenants-file is set)")
	tenantsFile := flag.String("tenants-file", "", "tenant declaration file (same syntax, newlines allowed); SIGHUP re-reads it live")
	walDir := flag.String("wal-dir", "", "write-ahead privacy ledger directory: crash-safe budgets, idempotent retries, recovery on boot")
	degrade := flag.String("degrade", "refuse", "default degrade policy when a budget cannot admit a fit: refuse, fallback, or widen")
	dim := flag.Int("dim", 2, "feature dimension of the predictor space")
	gridPts := flag.Int("grid", 5, "grid points per dimension")
	box := flag.Float64("box", 2, "coefficient box half-width")
	eps := flag.Float64("eps", 0.5, "ε spent by one non-degraded fit")
	delta := flag.Float64("delta", 0.05, "PAC-Bayes confidence parameter")
	workers := flag.Int("workers", 0, "parallel worker cap for learner hot paths (0 = all CPUs)")
	timeout := flag.Duration("timeout", 0, "drain and exit after this duration (0 = run until SIGINT)")
	grace := flag.Duration("drain-grace", 10*time.Second, "how long drain waits for in-flight requests")
	retryAfter := flag.Int("retry-after", 1, "Retry-After seconds on 503 responses and on 429s an outstanding hold could still clear (a final 429 carries none)")
	accessLog := flag.String("access-log", "", "write one NDJSON access line per /v1 request to this file")
	var obsFlags obsglue.Flags
	obsFlags.Register(flag.CommandLine)
	flag.Parse()

	if *tenants == "" && *tenantsFile == "" {
		fmt.Fprintln(os.Stderr, "dplearn-serve: -tenants or -tenants-file is required")
		flag.Usage()
		os.Exit(2)
	}
	policy, err := core.ParseDegradePolicy(*degrade)
	if err != nil {
		fatal(err)
	}
	decl := *tenants
	if *tenantsFile != "" {
		decl, err = readTenantsFile(*tenantsFile)
		if err != nil {
			fatal(err)
		}
		if *tenants != "" {
			fmt.Fprintln(os.Stderr, "dplearn-serve: both -tenants and -tenants-file given; the file wins (it is the SIGHUP reload source)")
		}
	}
	cfgs, err := serve.ParseTenantBudgets(decl, policy)
	if err != nil {
		fatal(err)
	}

	// The service clock is logical (obsglue always injects a
	// LogicalClock): tick-based durations make the ledger and the
	// dplearn_serve_ metric families deterministic functions of the
	// request history (see the obs determinism contract). When -pprof is
	// given without -metrics-addr it mounts on the service mux alone, so
	// only forward it to obsglue alongside an address.
	glueFlags := obsFlags
	if glueFlags.MetricsAddr == "" {
		glueFlags.Pprof = false
	}
	rt, err := obsglue.Start(glueFlags)
	if err != nil {
		fatal(err)
	}
	o := rt.Obs

	var alog *obs.AccessLog
	var alogFile *os.File
	if *accessLog != "" {
		alogFile, err = os.Create(*accessLog)
		if err != nil {
			fatal(fmt.Errorf("access log: %w", err))
		}
		alog = obs.NewAccessLog(alogFile)
	}

	s, err := serve.New(serve.Config{
		Tenants: cfgs,
		Learner: serve.LearnerSpec{
			Dim:        *dim,
			GridPoints: *gridPts,
			Box:        *box,
			Epsilon:    *eps,
			Delta:      *delta,
		},
		Observer:          o,
		Workers:           *workers,
		RetryAfterSeconds: *retryAfter,
		Pprof:             obsFlags.Pprof,
		AccessLog:         alog,
		WALDir:            *walDir,
	})
	if err != nil {
		fatal(err)
	}
	for _, rep := range s.RecoveryReports() {
		fmt.Fprintf(os.Stderr,
			"dplearn-serve: tenant %s recovered: %d commit(s) carrying %d charge(s) (eps=%.4g), %d idempotency key(s) restored\n",
			rep.Tenant, rep.Commits, rep.Charges, rep.Epsilon, rep.RestoredKeys)
	}

	if *tenantsFile != "" {
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			for range hup {
				decl, err := readTenantsFile(*tenantsFile)
				if err != nil {
					fmt.Fprintf(os.Stderr, "dplearn-serve: reload: %v\n", err)
					continue
				}
				cfgs, err := serve.ParseTenantBudgets(decl, policy)
				if err != nil {
					fmt.Fprintf(os.Stderr, "dplearn-serve: reload: %v\n", err)
					continue
				}
				added, raised, err := s.ReloadTenants(cfgs)
				if err != nil {
					fmt.Fprintf(os.Stderr, "dplearn-serve: reload (partially applied): %v\n", err)
				}
				fmt.Fprintf(os.Stderr, "dplearn-serve: reload: %d tenant(s) added, %d budget(s) raised\n", added, raised)
			}
		}()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	bound := ln.Addr().String()
	fmt.Fprintf(os.Stderr, "dplearn-serve: %d tenant(s) on http://%s (metrics at /metrics)\n", len(cfgs), bound)
	if *addrFile != "" {
		if err := writeAddrFile(*addrFile, bound); err != nil {
			fatal(err)
		}
	}

	srv := &http.Server{Handler: s.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	ctx, stop := obsglue.RunContext(*timeout)
	defer stop()
	select {
	case <-ctx.Done():
	case err := <-serveErr:
		fatal(fmt.Errorf("listener failed: %w", err))
	}

	// Drain: refuse new work, let in-flight requests commit or release,
	// then audit every tenant's accountant against its witness.
	fmt.Fprintln(os.Stderr, "dplearn-serve: draining")
	s.BeginDrain()
	gctx, cancel := obsglue.RunContext(*grace)
	err = srv.Shutdown(gctx)
	cancel()
	if err != nil {
		fmt.Fprintf(os.Stderr, "dplearn-serve: drain grace expired, closing: %v\n", err)
		_ = srv.Close() //dplint:ignore errdrop the hard close after a missed grace deadline is already the error path
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}

	for _, t := range s.Tenants().Tenants() {
		witness, _, err := t.CrossCheck(true)
		if err != nil {
			fatal(err)
		}
		spent := t.Acct.BasicComposition()
		fmt.Fprintf(os.Stderr, "dplearn-serve: tenant %s spent eps=%.4g of %.4g across %d release(s); witness %s\n",
			t.ID, spent.Epsilon, t.Budget().Epsilon, t.Acct.Count(), witness)
	}
	fmt.Fprintln(os.Stderr, "dplearn-serve: drain audit passed")

	if alogFile != nil {
		if err := alog.Err(); err != nil {
			fatal(fmt.Errorf("access log: %w", err))
		}
		if err := alogFile.Close(); err != nil {
			fatal(fmt.Errorf("access log: %w", err))
		}
	}
	if err := rt.Close(nil); err != nil {
		fatal(err)
	}
}

// readTenantsFile reads a tenant declaration file: id=eps entries
// separated by commas or newlines, blank lines and # comments ignored.
// The normalized declaration feeds serve.ParseTenantBudgets.
func readTenantsFile(path string) (string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return "", fmt.Errorf("tenants file: %w", err)
	}
	var entries []string
	for _, line := range strings.Split(string(b), "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		for _, part := range strings.Split(line, ",") {
			if part = strings.TrimSpace(part); part != "" {
				entries = append(entries, part)
			}
		}
	}
	if len(entries) == 0 {
		return "", fmt.Errorf("tenants file %s declares no tenants", path)
	}
	return strings.Join(entries, ","), nil
}

// writeAddrFile publishes the bound address atomically (write + rename)
// so a watcher never reads a half-written file.
func writeAddrFile(path, addr string) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(addr+"\n"), 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Clean(path)); err != nil {
		return err
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "dplearn-serve: %v\n", err)
	os.Exit(1)
}
