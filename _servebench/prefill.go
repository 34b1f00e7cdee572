package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/wal"
)

// prefillInfo records what a long-history prefill holds.
type prefillInfo struct {
	// History is the number of reserve/commit pairs per tenant.
	History int `json:"history"`
	// EpsilonSum is each tenant's canonically composed prefilled ε.
	EpsilonSum []float64 `json:"epsilon_sum"`
	// Seconds is how long writing the prefill took (fsync per record).
	Seconds float64 `json:"seconds"`
}

// prefillKinds are the endpoints (and ledger mechanism names) a
// prefilled release is drawn from: the cheap spends long-history serves.
var prefillKinds = []struct{ endpoint, mechanism string }{
	{"select", "select"}, {"density", "laplace"}, {"summary", "summary"},
}

// prefillPrices are the quoted ε a prefilled release is drawn from:
// clients quote a handful of standard prices, not a continuum.
var prefillPrices = []float64{0.005, 0.01, 0.02, 0.05, 0.1, 0.2}

// writePrefill appends history reserve/commit pairs per tenant to
// dir/<tenant>.wal through wal.Log.Append, so the bytes are the
// program's own record format. Endpoints, seeds and ε come from seed.
// Tenants are written in parallel because every Append fsyncs.
func writePrefill(dir string, seed int64, tenants, history int) (prefillInfo, error) {
	start := time.Now()
	info := prefillInfo{History: history, EpsilonSum: make([]float64, tenants)}
	errs := make([]error, tenants)
	var wg sync.WaitGroup
	for t := 0; t < tenants; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			info.EpsilonSum[t], errs[t] = prefillTenant(filepath.Join(dir, tenantID(t)+".wal"), rng.New(mixSeed(^seed, t)), history)
		}(t)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return info, err
		}
	}
	info.Seconds = time.Since(start).Seconds()
	return info, nil
}

func prefillTenant(path string, g *rng.RNG, history int) (float64, error) {
	l, _, err := wal.Open(path)
	if err != nil {
		return 0, err
	}
	eps := make([]float64, history)
	for i := range eps {
		kind := prefillKinds[g.Intn(len(prefillKinds))]
		eps[i] = prefillPrices[g.Intn(len(prefillPrices))]
		lsn, err := l.Append(wal.Record{Op: wal.OpReserve, Endpoint: kind.endpoint, Seed: g.SplitSeed(), Epsilon: eps[i]})
		if err == nil {
			_, err = l.Append(wal.Record{Op: wal.OpCommit, Ref: lsn, Status: 200,
				Charges: []wal.Charge{{Mechanism: kind.mechanism, Epsilon: eps[i]}}})
		}
		if err != nil {
			_ = l.Close() // the append error supersedes
			return 0, fmt.Errorf("prefill %s: %w", path, err)
		}
	}
	if err := l.Close(); err != nil {
		return 0, fmt.Errorf("prefill %s: %w", path, err)
	}
	sum, _ := obs.ComposeBasic(eps, make([]float64, history))
	return sum, nil
}

// ensurePrefill returns the directory holding the prefill for seed,
// writing it once under out/prefill and reusing it on later runs with
// the same seed.
func ensurePrefill(out string, seed int64, w *workload) (string, prefillInfo, error) {
	dir := filepath.Join(out, "prefill", fmt.Sprintf("%s-seed%d", w.name, seed))
	manifest := filepath.Join(dir, "manifest.json")
	var info prefillInfo
	if b, err := os.ReadFile(manifest); err == nil {
		if err := json.Unmarshal(b, &info); err != nil {
			return "", info, fmt.Errorf("prefill manifest %s: %w", manifest, err)
		}
		return dir, info, nil
	}
	tmp := dir + ".tmp" + strconv.Itoa(os.Getpid())
	if err := os.RemoveAll(tmp); err != nil {
		return "", info, err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return "", info, err
	}
	info, err := writePrefill(tmp, seed, w.tenants, w.history)
	if err != nil {
		return "", info, err
	}
	b, err := json.Marshal(info)
	if err != nil {
		return "", info, err
	}
	if err := os.WriteFile(filepath.Join(tmp, "manifest.json"), b, 0o644); err != nil {
		return "", info, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return "", info, err
	}
	if err := os.Rename(tmp, dir); err != nil {
		return "", info, err
	}
	return dir, info, nil
}

// freshWALDir empties dir and copies the prefilled logs (if any) into it,
// so every boot recovers the same history and no run sees another's
// spends.
func freshWALDir(dir, prefill string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if prefill == "" {
		return nil
	}
	logs, err := filepath.Glob(filepath.Join(prefill, "*.wal"))
	if err != nil {
		return err
	}
	for _, src := range logs {
		if err := copyFile(src, filepath.Join(dir, filepath.Base(src))); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close() // read-only; a close error loses nothing
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		_ = out.Close() // the copy error supersedes
		return err
	}
	return out.Close()
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		fi, err := e.Info()
		if err != nil {
			return 0, err
		}
		if fi.Mode().IsRegular() {
			n += fi.Size()
		}
	}
	return n, nil
}
