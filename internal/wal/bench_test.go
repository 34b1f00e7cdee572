package wal

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/rng"
)

// benchPairs are the history lengths the recovery benchmarks read: the
// long-history serving workload's 20k reserve/commit pairs per tenant,
// and five times that.
var benchPairs = []struct {
	name  string
	pairs int
}{{"pairs=20k", 20_000}, {"pairs=100k", 100_000}}

// writeHistory writes a log of pairs old-format reserve/commit pairs in
// the long-history prefill's mix — three endpoints, six quoted prices —
// as the bytes Append writes, without an fsync per record.
func writeHistory(b *testing.B, path string, pairs int) {
	b.Helper()
	kinds := []struct{ endpoint, mechanism string }{{"select", "select"}, {"density", "laplace"}, {"summary", "summary"}}
	prices := []float64{0.005, 0.01, 0.02, 0.05, 0.1, 0.2}
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	w := bufio.NewWriter(f)
	g := rng.New(21)
	put := func(rec Record) {
		line, err := json.Marshal(rec)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := w.Write(append(line, '\n')); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < pairs; i++ {
		kind := kinds[g.Intn(len(kinds))]
		eps := prices[g.Intn(len(prices))]
		lsn := uint64(2*i + 1)
		put(Record{Op: OpReserve, LSN: lsn, Endpoint: kind.endpoint, Seed: g.SplitSeed(), Epsilon: eps})
		put(Record{Op: OpCommit, LSN: lsn + 1, Ref: lsn, Status: 200, Charges: []Charge{{Mechanism: kind.mechanism, Epsilon: eps}}})
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
}

// benchRecovery times recoverLog over a written history of each length.
// Recovery of a log that ends in a newline writes nothing, so every
// iteration reads the same bytes.
func benchRecovery(b *testing.B, recoverLog func(path string) (*Log, int, error)) {
	for _, bp := range benchPairs {
		b.Run(bp.name, func(b *testing.B) {
			path := filepath.Join(b.TempDir(), "history.wal")
			writeHistory(b, path, bp.pairs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l, charges, err := recoverLog(path)
				if err != nil {
					b.Fatal(err)
				}
				if charges != bp.pairs {
					b.Fatalf("recovered %d charge(s), want %d", charges, bp.pairs)
				}
				if err := l.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRecover is boot recovery of one tenant's log: the streamed
// fold.
func BenchmarkRecover(b *testing.B) {
	benchRecovery(b, func(path string) (*Log, int, error) {
		l, st, err := Recover(path)
		if err != nil {
			return nil, 0, err
		}
		return l, len(st.Charges()), nil
	})
}

// BenchmarkOpenReplay is the same recovery through the materialized
// view: Open's LSN-sorted record list, then Replay.
func BenchmarkOpenReplay(b *testing.B) {
	benchRecovery(b, func(path string) (*Log, int, error) {
		l, recs, err := Open(path)
		if err != nil {
			return nil, 0, err
		}
		return l, len(Replay(recs).Charges()), nil
	})
}

// BenchmarkDecodeRecord is the per-line cost of recovery's decoder on the
// two lines of a long-history prefill pair, as Append writes them.
func BenchmarkDecodeRecord(b *testing.B) {
	for _, bc := range []struct {
		name string
		rec  Record
	}{
		{"reserve", Record{Op: OpReserve, LSN: 39_999, Endpoint: "density", Seed: 6_149_344_282_512_307_515, Epsilon: 0.05}},
		{"commit", Record{Op: OpCommit, LSN: 40_000, Ref: 39_999, Status: 200, Charges: []Charge{{Mechanism: "laplace", Epsilon: 0.05}}}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			line, err := json.Marshal(bc.rec)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.SetBytes(int64(len(line)))
			var r Record
			for i := 0; i < b.N; i++ {
				if err := decodeRecord(line, &r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
