// Command servebench is the dplearn-serve benchmark. Each run boots the
// real dplearn-serve binary on loopback with write-ahead logging on,
// drives it from one process with a closed loop of two workers that
// send every request exactly once, checks every answer and the books,
// and prints the run's metrics as one JSON object on its last line.
//
//	servebench -serve-bin <dplearn-serve> -workload durable-mix -seed 1 -seconds 10 -trace 0
//
// With -trace 0 it reports the end-to-end metrics. With -trace 1 it
// runs the traced per-layer run instead: a shorter closed loop against
// the binary (for its /metrics counters and the HTTP latency), then the
// same request stream replayed in-process through each layer's public
// functions under the benchmark's own spans, and through the server's
// handler. README.md explains the workloads and the metrics; run.sh
// builds both binaries from the checkout and runs this one.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// An end-to-end run splits its window over rounds, each a fresh boot
// serving the same stream, and reports every metric as the median over
// the rounds: a burst of noise from the host, or a garbage collection
// landing at the peak of the heap, then moves one round and not the
// result. Boots that serve nothing follow until there are minBoots, and
// more (up to maxBoots) while all boots took under bootBudget: setup_s
// is the median over every boot, so a boot of milliseconds is sampled
// as steadily as one of a second.
const (
	rounds     = 5
	minBoots   = 5
	maxBoots   = 25
	bootBudget = 2 * time.Second
)

// roundResult is one boot of the server and the load it served.
type roundResult struct {
	setup time.Duration
	st    *loadStats
	rss   float64
	// samples is the /metrics scrape after the load, when asked for.
	samples map[string]float64
	// walBytes is how much the WAL directory grew during the load.
	walBytes int64
	problems []string
	ok       bool
}

// runRound boots the server on a fresh copy of the prefill, drives it,
// audits its books and drains it.
func runRound(serveBin string, w *workload, seed int64, walDir, prefillDir string, warmup, window time.Duration, scrapeMetrics bool) (*roundResult, error) {
	if err := freshWALDir(walDir, prefillDir); err != nil {
		return nil, err
	}
	srv, err := boot(serveBin, w, walDir)
	if err != nil {
		return nil, err
	}
	defer srv.kill()
	c := newClient()
	defer c.CloseIdleConnections()
	before, err := dirBytes(walDir)
	if err != nil {
		return nil, err
	}
	rr := &roundResult{setup: srv.setup}
	if rr.st, err = runLoad(c, srv, w, seed, warmup, window); err != nil {
		return nil, err
	}
	if scrapeMetrics {
		if rr.samples, err = scrape(c, srv.base()); err != nil {
			return nil, err
		}
	}
	auditProblems := audit(c, srv.base(), w, rr.st.spends)
	after, err := dirBytes(walDir)
	if err != nil {
		return nil, err
	}
	rr.walBytes = after - before
	if rr.rss, err = srv.peakRSSMB(); err != nil {
		return nil, err
	}
	stopErr := srv.stop()
	rr.problems = append(rr.st.problems, auditProblems...)
	if stopErr != nil {
		rr.problems = append(rr.problems, stopErr.Error())
	}
	rr.ok = rr.st.failed == 0 && rr.st.badChecks == 0 && len(auditProblems) == 0 && stopErr == nil
	return rr, nil
}

// extraBoots boots and kills the server until rep holds enough set-up
// samples. The servers are killed rather than drained: they served
// nothing, and a SIGINT this early can land before the server installs
// its handler.
func extraBoots(rep *report, serveBin string, w *workload, walDir, prefillDir string) error {
	booted := 0.0
	for _, s := range rep.SetupSeconds {
		booted += s
	}
	for n := len(rep.SetupSeconds); n < maxBoots && (n < minBoots || booted < bootBudget.Seconds()); n++ {
		if err := freshWALDir(walDir, prefillDir); err != nil {
			return err
		}
		s, err := boot(serveBin, w, walDir)
		if err != nil {
			return err
		}
		s.kill()
		rep.SetupSeconds = append(rep.SetupSeconds, s.setup.Seconds())
		booted += s.setup.Seconds()
	}
	return nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark's caller reads.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is everything a run records; it is written with the host
// record beside every result.
type report struct {
	Workload     string       `json:"workload"`
	Seed         int64        `json:"seed"`
	Seconds      int          `json:"seconds"`
	Traced       bool         `json:"traced"`
	Workers      int          `json:"workers"`
	Host         host         `json:"host"`
	Prefill      *prefillInfo `json:"prefill,omitempty"`
	SetupSeconds []float64    `json:"setup_seconds"`
	RoundSamples []int        `json:"round_samples"`
	// LatencyP50 and LatencyP99 pool the samples of every round.
	LatencyP50  quantile `json:"latency_p50"`
	LatencyP99  quantile `json:"latency_p99"`
	FailedShare float64  `json:"failed_share"`
	Dominant    string   `json:"dominant_layer,omitempty"`
	Predicted   string   `json:"predicted_layer,omitempty"`
	SpanFile    string   `json:"span_file,omitempty"`
	Problems    []string `json:"problems,omitempty"`
	Result      result   `json:"result"`
}

// host describes the machine a result was measured on. Results from
// different hosts are never compared; fsync cost is a property of the
// disk under the WAL directory.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	WALFS      string `json:"wal_filesystem"`
}

func main() {
	name := flag.String("workload", "", "workload: durable-mix, grid-session or long-history")
	seed := flag.Int64("seed", 1, "seed of the request stream and of the prefilled history")
	seconds := flag.Int("seconds", 10, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	serveBin := flag.String("serve-bin", "", "dplearn-serve binary under test (required)")
	out := flag.String("out", ".bench_build/servebench", "directory for prefills, WAL copies, spans and result files")
	flag.Parse()
	if *serveBin == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
		os.Exit(2)
	}
	rep, err := run(w, *seed, *seconds, *trace == 1, *serveBin, *out)
	if err == nil {
		err = rep.save(*out)
	}
	var line []byte
	if err == nil {
		line, err = json.Marshal(rep.Result)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
		os.Exit(1)
	}
	rep.print(os.Stdout)
	fmt.Println(string(line))
	if !rep.Result.Correct {
		os.Exit(1)
	}
}

func run(w *workload, seed int64, seconds int, traced bool, serveBin, out string) (*report, error) {
	rep := &report{Workload: w.name, Seed: seed, Seconds: seconds, Traced: traced, Workers: workers}
	runDir := filepath.Join(out, "run", fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	defer os.RemoveAll(runDir) // scratch space; a leftover is harmless
	walDir := filepath.Join(runDir, "wal")
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		return nil, err
	}
	rep.Host = hostRecord(walDir)
	var prefillDir string
	if w.history > 0 {
		dir, info, err := ensurePrefill(out, seed, w)
		if err != nil {
			return nil, fmt.Errorf("prefill: %w", err)
		}
		prefillDir, rep.Prefill = dir, &info
	}

	nRounds, window := rounds, time.Duration(seconds)*time.Second/rounds
	if traced {
		nRounds, window = 1, time.Duration(seconds)*time.Second/2
	}
	var rs []*roundResult
	all := &loadStats{spends: make(map[string]int)}
	var goodput, p50, p99, cpu, rss []float64
	for r := 0; r < nRounds; r++ {
		rr, err := runRound(serveBin, w, seed, walDir, prefillDir, min(time.Second/2, window/4), window, traced)
		if err != nil {
			return nil, err
		}
		if len(rr.st.latencies) == 0 {
			return nil, errors.New("no request completed inside the measured window")
		}
		rs = append(rs, rr)
		rep.SetupSeconds = append(rep.SetupSeconds, rr.setup.Seconds())
		rep.RoundSamples = append(rep.RoundSamples, len(rr.st.latencies))
		rep.Problems = append(rep.Problems, rr.problems...)
		all.merge(rr.st)
		goodput = append(goodput, float64(rr.st.fresh)/window.Seconds())
		p50 = append(p50, percentile(rr.st.latencies, 50).Value)
		p99 = append(p99, percentile(rr.st.latencies, 99).Value)
		cpu = append(cpu, float64(rr.st.cpuTicks)*1000/userHZ/float64(rr.st.inWindow))
		rss = append(rss, rr.rss)
	}
	rep.LatencyP50 = percentile(all.latencies, 50)
	rep.LatencyP99 = percentile(all.latencies, 99)
	rep.FailedShare = float64(all.failed) / float64(all.attempted)
	rep.Result = result{Correct: true, Attempted: all.attempted, Failed: all.failed}
	for _, rr := range rs {
		rep.Result.Correct = rep.Result.Correct && rr.ok
	}
	if !traced {
		if err := extraBoots(rep, serveBin, w, walDir, prefillDir); err != nil {
			return nil, err
		}
		rep.Result.Metrics = map[string]metric{
			"goodput_rps":           {median(goodput), "1/s"},
			"latency_p50_ms":        {median(p50), "ms"},
			"latency_p99_ms":        {median(p99), "ms"},
			"setup_s":               {median(rep.SetupSeconds), "s"},
			"server_cpu_ms_per_req": {median(cpu), "ms"},
			"server_rss_mb":         {median(rss), "MB"},
		}
		return rep, nil
	}
	st, samples := rs[0].st, rs[0].samples

	// The traced run: the same stream again, through each layer called
	// directly and through the handler in-process.
	replayDir := filepath.Join(runDir, "replay-wal")
	for _, dir := range []string{walDir, replayDir} {
		if err := freshWALDir(dir, prefillDir); err != nil {
			return nil, err
		}
	}
	lr, err := newLayerRun(w, walDir, replayDir)
	if err != nil {
		return nil, err
	}
	ts, err := runTraced(lr, seed, window)
	if err := errors.Join(err, lr.close()); err != nil {
		return nil, err
	}
	rep.SpanFile = filepath.Join(out, "traces", fmt.Sprintf("%s-seed%d.spans.ndjson", w.name, seed))
	if err := os.MkdirAll(filepath.Dir(rep.SpanFile), 0o755); err != nil {
		return nil, err
	}
	if err := writeSpans(rep.SpanFile, ts.spans); err != nil {
		return nil, err
	}
	self := selfTimes(ts.spans)
	rep.Dominant, rep.Predicted = dominantLayer(self), w.predicted
	pct := func(name string, p float64) metric {
		return metric{percentile(spanMicros(ts.spans, name), p).Value, "us"}
	}
	requests := float64(max(ts.tracedReqs, 1))
	// The handler is timed per unit, like the end-to-end latency it is
	// subtracted from.
	handler := unitMicros(ts.spans, "serve.handler")
	handlerP50 := metric{percentile(handler, 50).Value, "us"}
	m := map[string]metric{
		"wal.reserve_p50_us":             pct("wal.reserve", 50),
		"wal.reserve_p99_us":             pct("wal.reserve", 99),
		"wal.commit_p50_us":              pct("wal.commit", 50),
		"wal.commit_p99_us":              pct("wal.commit", 99),
		"wal.fsyncs_per_req":             {sumFamily(samples, "dplearn_wal_fsync_total") / float64(st.attempted), "count"},
		"wal.bytes_per_req":              {float64(rs[0].walBytes) / float64(st.attempted), "B"},
		"wal.recovery_s":                 {lr.recovery.Seconds(), "s"},
		"mechanism.admit_p50_us":         pct("mechanism.admit", 50),
		"mechanism.admit_p99_us":         pct("mechanism.admit", 99),
		"mechanism.commit_p50_us":        pct("mechanism.commit", 50),
		"mechanism.read_p50_us":          pct("mechanism.read", 50),
		"mechanism.history_len":          {lr.historyLen(), "count"},
		"core.fit_p50_us":                pct("core.fit", 50),
		"core.certify_p50_us":            pct("core.certify", 50),
		"learn.select_p50_us":            pct("learn.select", 50),
		"core.density_p50_us":            pct("core.density", 50),
		"core.summary_p50_us":            pct("core.summary", 50),
		"gibbs.risk_cache_hit_share":     {share(sumFamily(samples, "dplearn_risk_cache_hits_total"), sumFamily(samples, "dplearn_risk_cache_misses_total")), "share"},
		"parallel.serial_run_share":      {share(samples[`dplearn_parallel_runs_total{mode="serial"}`], samples[`dplearn_parallel_runs_total{mode="parallel"}`]), "share"},
		"serve.decode_p50_us":            pct("serve.decode", 50),
		"serve.encode_p50_us":            pct("serve.encode", 50),
		"serve.handler_p50_us":           handlerP50,
		"serve.handler_p99_us":           {percentile(handler, 99).Value, "us"},
		"http.overhead_p50_us":           {rep.LatencyP50.Value*1000 - handlerP50.Value, "us"},
		"trace.dominant_is_predicted":    {boolValue(rep.Dominant == w.predicted), "count"},
		"trace.wall_us_per_req":          {float64(ts.tracedNS) / 1e3 / requests, "us"},
		"trace.untraced_wall_us_per_req": {float64(ts.untracedNS) / 1e3 / float64(max(ts.untracedReqs, 1)), "us"},
		"e2e.wall_us_per_req":            {sum(st.latencies) * 1000 / float64(st.inWindow), "us"},
	}
	for _, l := range programLayers {
		m["self."+l+"_us_per_req"] = metric{float64(self[l]) / 1e3 / requests, "us"}
	}
	rep.Result.Metrics = m
	return rep, nil
}

func share(part, rest float64) float64 {
	if part+rest == 0 {
		return 0
	}
	return part / (part + rest)
}

func boolValue(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// save writes the full report, host record included, under out/results.
func (rep *report) save(out string) error {
	dir := filepath.Join(out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	trace := 0
	if rep.Traced {
		trace = 1
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", rep.Workload, rep.Seed, trace)), append(b, '\n'), 0o644)
}

// print writes the human-readable summary: every metric by name with its
// unit, and the sample counts behind the latency percentiles.
func (rep *report) print(w io.Writer) {
	h := rep.Host
	fmt.Fprintf(w, "workload %s, seed %d, %ds, traced=%v, %d closed-loop workers, WAL on\n",
		rep.Workload, rep.Seed, rep.Seconds, rep.Traced, rep.Workers)
	fmt.Fprintf(w, "host: nproc=%d GOMAXPROCS=%d %s, cpu %q, WAL on %s\n", h.NProc, h.GOMAXPROCS, h.GoVersion, h.CPUModel, h.WALFS)
	if p := rep.Prefill; p != nil {
		fmt.Fprintf(w, "prefill: %d reserve/commit pairs per tenant, ε sums %v (written in %.1fs)\n", p.History, p.EpsilonSum, p.Seconds)
	}
	fmt.Fprintf(w, "requests: %d attempted, %d failed (failed_share %g)\n", rep.Result.Attempted, rep.Result.Failed, rep.FailedShare)
	fmt.Fprintf(w, "latency samples: %v per round; pooled %d (%d beyond p50, %d beyond p99: p50 %.4f ms, p99 %.4f ms)\n",
		rep.RoundSamples, rep.LatencyP50.N, rep.LatencyP50.Beyond, rep.LatencyP99.Beyond, rep.LatencyP50.Value, rep.LatencyP99.Value)
	names := make([]string, 0, len(rep.Result.Metrics))
	for name := range rep.Result.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rep.Result.Metrics[name]
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", name, m.Value, m.Unit)
	}
	if rep.Traced {
		verdict := "confirmed"
		if rep.Dominant != rep.Predicted {
			verdict = "MISMATCH"
		}
		fmt.Fprintf(w, "largest self time: %s (predicted %s): %s; spans in %s\n", rep.Dominant, rep.Predicted, verdict, rep.SpanFile)
	}
	for _, p := range rep.Problems {
		fmt.Fprintf(w, "problem: %s\n", p)
	}
}

func hostRecord(walDir string) host {
	return host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		WALFS:      filesystemOf(walDir),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// filesystemOf names the filesystem type, mount point and source of the
// mount holding dir, from /proc/self/mountinfo.
func filesystemOf(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	b, err := os.ReadFile("/proc/self/mountinfo")
	if err != nil {
		return "unknown"
	}
	best, desc := "", "unknown"
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		sep := -1
		for i, x := range f {
			if x == "-" {
				sep = i
				break
			}
		}
		if sep < 5 || sep+2 >= len(f) {
			continue
		}
		mount := f[4]
		if (abs == mount || strings.HasPrefix(abs, strings.TrimSuffix(mount, "/")+"/")) && len(mount) > len(best) {
			best, desc = mount, fmt.Sprintf("%s at %s (%s)", f[sep+1], mount, f[sep+2])
		}
	}
	return desc
}
