// Package checkpoint persists per-cell sweep results as an append-only
// NDJSON log so an interrupted experiment can resume without repeating
// finished work.
//
// Each entry is one line: {"cell":k,"seed":s,"result":...}. The key is
// the pair (cell index, RNG split-seed fingerprint): the seed is a
// deterministic function of (sweep seed, cell index), so a stale log —
// from a different seed, grid, or experiment — simply misses on lookup
// and the cell is recomputed. Results round-trip through encoding/json,
// which renders float64 with the shortest form that parses back to the
// identical bits, so a resumed sweep's merged output is bit-identical
// to an uninterrupted run.
//
// Crash tolerance: entries are written with a single Write syscall per
// line, so a killed process loses at most the line in flight. Open with
// resume=true skips any torn or corrupt trailing lines instead of
// failing, and the interrupted cells rerun.
//
// All methods are safe for concurrent use and nil-safe: a nil *Log
// never matches on Lookup and discards Puts, so sweep code needs no
// checkpoint-enabled branch.
package checkpoint

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
)

// ErrWrite reports a failure to persist a checkpoint entry. Sweeps
// surface it per-cell: the computed result is still returned in memory,
// but the run cannot promise resumability for that cell.
var ErrWrite = errors.New("checkpoint: write failed")

// entry is one NDJSON line.
type entry struct {
	Cell   int             `json:"cell"`
	Seed   int64           `json:"seed"`
	Result json.RawMessage `json:"result"`
}

// key identifies an entry: the cell index plus its RNG fingerprint.
type key struct {
	cell int
	seed int64
}

// Log is an open checkpoint file.
type Log struct {
	mu   sync.Mutex
	f    *os.File
	done map[key]json.RawMessage
}

// Open creates (or, with resume, reopens) the checkpoint log at path.
// With resume=false an existing file is truncated: the run starts
// fresh. With resume=true existing well-formed entries become lookup
// hits; torn or corrupt lines — the signature of a killed writer — are
// skipped, not fatal.
func Open(path string, resume bool) (*Log, error) {
	flags := os.O_CREATE | os.O_RDWR
	if !resume {
		flags |= os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: open %s: %w", path, err)
	}
	l := &Log{f: f, done: make(map[key]json.RawMessage)}
	if resume {
		err := ScanRepair(f, func(line []byte) error {
			var e entry
			if json.Unmarshal(line, &e) != nil {
				return nil // torn tail or corruption: recompute that cell
			}
			l.done[key{cell: e.Cell, seed: e.Seed}] = e.Result
			return nil
		})
		if err != nil {
			_ = f.Close() // the read/seek/repair error supersedes
			return nil, fmt.Errorf("checkpoint: %s: %w", path, err)
		}
	}
	return l, nil
}

// ScanRepair reopens an append-only NDJSON log: it hands every line of
// f, from the current offset, to line (which skips what it cannot
// parse — a torn tail or corruption), then leaves the offset at EOF so
// appends follow the survivors, and terminates a torn final line so the
// next append starts fresh instead of concatenating onto the partial
// bytes. The line slice is only valid during the call. An error from
// line ends the scan at once, before any repair, and is returned as is.
// Package wal reopens its write-ahead log the same way.
func ScanRepair(f *os.File, line func([]byte) error) error {
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		if err := line(sc.Bytes()); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("read: %w", err)
	}
	end, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return fmt.Errorf("seek: %w", err)
	}
	if end == 0 {
		return nil
	}
	last := make([]byte, 1)
	if _, err := f.ReadAt(last, end-1); err != nil {
		return fmt.Errorf("read: %w", err)
	}
	if last[0] != '\n' {
		if _, err := f.Write([]byte("\n")); err != nil {
			return fmt.Errorf("repair: %w", err)
		}
	}
	return nil
}

// Len returns the number of recorded entries.
func (l *Log) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.done)
}

// Lookup returns the saved result for (cell, seed), if any.
func (l *Log) Lookup(cell int, seed int64) (json.RawMessage, bool) {
	if l == nil {
		return nil, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	raw, ok := l.done[key{cell: cell, seed: seed}]
	return raw, ok
}

// Put persists the result for (cell, seed): one marshaled NDJSON line,
// one Write syscall. Marshal or I/O failures wrap ErrWrite.
func (l *Log) Put(cell int, seed int64, result any) error {
	if l == nil {
		return nil
	}
	raw, err := json.Marshal(result)
	if err != nil {
		return fmt.Errorf("%w: marshal cell %d: %v", ErrWrite, cell, err)
	}
	line, err := json.Marshal(entry{Cell: cell, Seed: seed, Result: raw})
	if err != nil {
		return fmt.Errorf("%w: marshal cell %d: %v", ErrWrite, cell, err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, err := l.f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("%w: cell %d: %v", ErrWrite, cell, err)
	}
	l.done[key{cell: cell, seed: seed}] = raw
	return nil
}

// Close releases the underlying file. Lookup keeps working on the
// in-memory index; Put fails after Close.
func (l *Log) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}
