// Package wal is the write-ahead privacy ledger: an append-only,
// fsync-on-append NDJSON commit log that makes per-tenant budget state
// crash-recoverable. It reopens through package checkpoint's torn-tail
// repair (ScanRepair) and writes one record per charged request:
//
//   - Log.Begin opens a transaction that holds the request's intent in
//     memory and writes nothing;
//   - Txn.Commit writes and fsyncs one "commit" record — the intent, the
//     response status and the exact committed guarantees — before the
//     noised response bytes reach the client, so a value can only have
//     escaped the process if its charge survived the crash;
//   - Txn.Release writes nothing: a request with no commit record never
//     released anything, so — by the DP-as-channel reading — nothing
//     leaked and nothing is charged, whether it was refused, failed or
//     crashed.
//
// Recovery charges every commit. Recover streams: it reads the log once
// and folds each surviving record into a State as it is decoded, keeping
// only the commit count, the charges and the keyed outcomes. Open plus
// Replay is the same fold over a materialized, LSN-sorted record list,
// the view for tools and tests. Replaying the commit charges through
// SpendDetail rebuilds an Accountant bit-identically: both sides round
// the exact sum of the same guarantee multiset with one routine
// (mathx.ExactSum). The log keeps the same books of its own commits
// (Committed), the accountant's independent witness.
//
// Commit records double as the durable idempotency store: a commit
// whose request carried a client Idempotency-Key also stores the
// response body, so a retried request replays the original outcome —
// across restarts — without re-spending ε.
//
// The first failed write or fsync poisons the log: a failed write may
// leave a record prefix that the next record would merge into, and
// after a failed fsync the kernel may drop the dirty pages and report
// success on the next one. Every later Append and Begin returns that
// error until the process restarts and Recover (or Open) repairs the
// tail.
//
// Logs written before commits carried their intent hold a "reserve"
// record per request, which a commit names by Ref; recovery reads such a
// reserve only for the key of the commit that names it.
//
// The format is NDJSON as json.Marshal writes a Record. Recovery decodes
// a line in that shape — no whitespace, each field's exact name at most
// once, strings without escapes — in one pass (decodeRecord), and hands
// any other line, an older format's or a torn one, to json.Unmarshal, so
// on every line it reads what encoding/json reads, a differential fuzz
// (FuzzDecodeRecord) holding the two to each other.
package wal

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/checkpoint"
	"repro/internal/mathx"
	"repro/internal/mechanism"
)

// Op is the record type of one WAL line.
type Op string

const (
	// OpReserve is the intent record of the log format in which a
	// request's intent was written before its release; the server
	// writes only commits.
	OpReserve Op = "reserve"
	// OpCommit makes a request's outcome and exact charges durable: the
	// release succeeded and its response is about to escape.
	OpCommit Op = "commit"
)

// ErrFrozen reports an append to a frozen log. Freeze simulates the
// process dying with the file descriptor: the chaos battery freezes a
// log at an injected crash point so no deferred cleanup can write the
// records a real crash would have lost.
var ErrFrozen = errors.New("wal: log frozen (simulated crash)")

// ErrAppend reports a failure to persist a WAL record; after a failed
// write or fsync every later Append and Begin returns it. The serve
// layer maps it to a 5xx, so a client never holds a response whose
// charge is not durable.
var ErrAppend = errors.New("wal: append failed")

// ErrOrder reports a log in which a surviving record's LSN is below its
// predecessor's. Append assigns LSNs in file order under the log's lock,
// and a reopened log resumes from the max, so no writer in this package
// produces such a log; Recover refuses it rather than reorder it.
var ErrOrder = errors.New("wal: LSN below its predecessor's")

// Charge is one exact committed guarantee with its ledger metadata —
// what recovery replays through SpendDetail. Epsilon and Delta carry
// the mechanism's recomputed guarantee verbatim (a widened fit commits
// the remaining headroom, a Gibbs density commits its calibrated
// 2·Δq·(ε/2Δq)), so the rebuilt accountant composes the identical
// float bits the live one did.
type Charge struct {
	Mechanism   string  `json:"mechanism,omitempty"`
	Sensitivity float64 `json:"sensitivity,omitempty"`
	Outcomes    int     `json:"outcomes,omitempty"`
	Epsilon     float64 `json:"epsilon"`
	Delta       float64 `json:"delta,omitempty"`
}

// Record is one NDJSON WAL line.
type Record struct {
	Op Op `json:"op"`
	// LSN is the log sequence number: Append assigns it in file order,
	// strictly increasing, so recovery folds in arrival order (Recover
	// refuses a log in which it falls).
	LSN uint64 `json:"lsn"`
	// Ref names the reserve record whose intent a commit settles, in
	// logs written before commits carried their intent.
	Ref uint64 `json:"ref,omitempty"`
	// Key is the client-supplied Idempotency-Key ("" when the request
	// carried none).
	Key string `json:"key,omitempty"`
	// Endpoint and Seed identify the request.
	Endpoint string `json:"endpoint,omitempty"`
	Seed     int64  `json:"seed,omitempty"`
	// Epsilon is the quoted price (advisory; the exact charges are in
	// Charges).
	Epsilon float64 `json:"epsilon,omitempty"`
	// Status is the committed HTTP status. Response is the response
	// body, stored only when Key is set, because only keyed outcomes
	// are replayed; it is stored base64 so a replay returns the escaped
	// bytes exactly (down to the trailing newline the server's encoder
	// emits).
	Status   int    `json:"status,omitempty"`
	Response []byte `json:"response,omitempty"`
	// Charges are the exact guarantees this request committed (empty for
	// a free outcome such as a fallback-degraded fit).
	Charges []Charge `json:"charges,omitempty"`
}

// file is what a Log writes through: an *os.File, or a test double
// that fails on demand.
type file interface {
	Write([]byte) (int, error)
	Sync() error
	Close() error
}

// Log is one tenant's open write-ahead ledger. All methods are safe for
// concurrent use and nil-safe: a nil *Log accepts every append as a
// no-op, so WAL-disabled servers run the identical code path.
type Log struct {
	mu  sync.Mutex
	f   file
	lsn uint64
	// err is sticky: the first failed write or fsync (wrapped in
	// ErrAppend), or ErrFrozen, fails every later Append and Begin. It
	// is set under mu but read without it, so Begin never waits for the
	// fsync an Append holds mu across.
	err atomic.Pointer[error]
	// The books: the charges on the commit records read at Open or
	// appended since, and their exact ε and δ sums.
	charges  int
	eps, del mathx.ExactSum

	// onAppend and onSync feed observability (fsync and append counters)
	// without the wal package importing the metrics registry.
	onAppend func(Record)
	onSync   func(error)
}

// scan opens (creating if needed) the WAL at path and reads it once:
// it decodes each line (decodeRecord: one pass over a line in the shape
// Append writes, json.Unmarshal for any other), skips torn or corrupt
// lines — the signature of a killed writer — and lines that are not
// records, books each commit's charges and tracks the max LSN. Every
// surviving record goes to rec in file order; the pointer is only valid
// during the call. The final torn line is terminated and the offset left
// at EOF, so appends follow the survivors (checkpoint.ScanRepair). An
// error from rec ends the scan before any repair, closes the file and is
// returned.
func scan(path string, rec func(*Record) error) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	l := &Log{f: f}
	var r Record
	err = checkpoint.ScanRepair(f, func(line []byte) error {
		if decodeRecord(line, &r) != nil {
			return nil // torn tail or corruption: the record never became durable
		}
		if r.Op == "" || r.LSN == 0 {
			return nil // structurally valid JSON that is not a WAL record
		}
		l.bookLocked(&r)
		l.lsn = max(l.lsn, r.LSN)
		return rec(&r)
	})
	if err != nil {
		_ = f.Close() // the read/seek/repair or fold error supersedes
		return nil, fmt.Errorf("wal: %s: %w", path, err)
	}
	return l, nil
}

// Open opens the WAL at path as scan does and returns the surviving
// records in LSN order, booking their charges.
func Open(path string) (*Log, []Record, error) {
	var recs []Record
	l, err := scan(path, func(rec *Record) error {
		recs = append(recs, *rec)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].LSN < recs[j].LSN })
	return l, recs, nil
}

// Recover opens the WAL at path as scan does and folds each surviving
// record into the settled State as it is read, so recovery holds no
// record list: the result equals Replay of Open's records. A record
// whose LSN is below its predecessor's fails Recover with ErrOrder.
func Recover(path string) (*Log, *State, error) {
	st := newState()
	var last uint64
	l, err := scan(path, func(rec *Record) error {
		if rec.LSN < last {
			return fmt.Errorf("%w: LSN %d follows %d", ErrOrder, rec.LSN, last)
		}
		last = rec.LSN
		st.fold(rec)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return l, st, nil
}

// SetHooks installs the append/fsync observers (either may be nil).
func (l *Log) SetHooks(onAppend func(Record), onSync func(error)) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.onAppend, l.onSync = onAppend, onSync
}

// Freeze fails every subsequent Append and Begin with ErrFrozen,
// simulating the file descriptor dying with a crashed process. The
// chaos battery calls it at an injected crash point so the deferred
// cleanup of the "crashed" request cannot write records a real crash
// would never have produced.
func (l *Log) Freeze() {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	_ = l.poison(ErrFrozen) // later calls return it; Freeze reports nothing
}

// poison makes err the log's sticky error and returns it. The caller
// holds mu.
func (l *Log) poison(err error) error {
	l.err.Store(&err)
	return err
}

// sticky returns the log's sticky error, or nil while it is healthy.
func (l *Log) sticky() error {
	if p := l.err.Load(); p != nil {
		return *p
	}
	return nil
}

// bookLocked adds a commit record's charges to the books. The caller
// holds mu, or owns the log as scan does.
func (l *Log) bookLocked(rec *Record) {
	if rec.Op != OpCommit {
		return
	}
	for _, c := range rec.Charges {
		l.charges++
		l.eps.Add(c.Epsilon)
		l.del.Add(c.Delta)
	}
}

// Committed returns the log's books — the number of durable charges,
// with eps and del set to copies of their exact ε and δ sums, read under
// one lock — and the sticky error after which the books never grow. A
// nil log has empty books.
func (l *Log) Committed(eps, del *mathx.ExactSum) (charges int, err error) {
	if l == nil {
		eps.Reset()
		del.Reset()
		return 0, nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var none mathx.ExactSum // a sum with nothing added makes SetSum a copy
	eps.SetSum(&l.eps, &none)
	del.SetSum(&l.del, &none)
	return l.charges, l.sticky()
}

// Append assigns the next LSN, writes the record as one NDJSON line in
// a single Write call, and fsyncs before returning — the record is
// durable, and a commit's charges booked, when Append returns nil.
// Returns the assigned LSN. A failed write or fsync poisons the log:
// this and every later Append returns the same error.
func (l *Log) Append(rec Record) (uint64, error) {
	if l == nil {
		return 0, nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.sticky(); err != nil {
		return 0, err
	}
	l.lsn++
	rec.LSN = l.lsn
	line, err := json.Marshal(rec)
	if err != nil {
		return 0, fmt.Errorf("%w: marshal: %v", ErrAppend, err)
	}
	if _, err := l.f.Write(append(line, '\n')); err != nil {
		return 0, l.poison(fmt.Errorf("%w: %w", ErrAppend, err))
	}
	if l.onAppend != nil {
		l.onAppend(rec)
	}
	err = l.f.Sync()
	if l.onSync != nil {
		l.onSync(err)
	}
	if err != nil {
		return 0, l.poison(fmt.Errorf("%w: fsync: %w", ErrAppend, err))
	}
	l.bookLocked(&rec)
	return rec.LSN, nil
}

// Close releases the underlying file.
func (l *Log) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}

// Outcome is the committed result a Txn.Commit makes durable: the
// response about to escape, with the exact guarantees it charged.
type Outcome struct {
	Status   int
	Response []byte
	Charges  []Charge
}

// Intent identifies the request a Txn commits.
type Intent struct {
	Endpoint string
	Key      string
	Seed     int64
	// Epsilon is the quoted price (advisory; exact charges ride the
	// commit).
	Epsilon float64
}

// Txn is one two-phase WAL transaction: an intent that must be settled
// by exactly one Commit or Release on every path, mirroring
// mechanism.Reservation's protocol. It holds no budget — admission and
// the charge itself stay on the accountant — so its Commit charges
// nothing; it makes the request's outcome durable. The zero-value
// contract matches the reservation's: a Txn from a nil log settles as a
// no-op.
type Txn struct {
	log *Log
	it  Intent

	mu      sync.Mutex
	settled bool
}

// Begin opens the transaction for one release. It writes nothing: the
// intent rides the commit record. On a poisoned or frozen log it
// returns the log's sticky error, so the caller refuses before any
// noise is drawn; it reads that error without the append lock, so it
// never waits for another request's fsync. On a nil log it returns a
// no-op transaction, so WAL-disabled callers run unchanged.
func (l *Log) Begin(it Intent) (*Txn, error) {
	if l != nil {
		if err := l.sticky(); err != nil {
			return nil, err
		}
	}
	return &Txn{log: l, it: it}, nil
}

// Amount returns the intent's quoted guarantee. The Commit/Release plus
// Amount() Guarantee shape is what makes the linters hold a Txn to the
// settle-exactly-once discipline of a Reservation.
func (tx *Txn) Amount() mechanism.Guarantee {
	if tx == nil {
		return mechanism.Guarantee{}
	}
	return mechanism.Guarantee{Epsilon: tx.it.Epsilon}
}

// Commit settles the transaction as committed: the commit record — the
// intent, the status, the exact charges in out.Charges and, for a keyed
// request, the response body — is written and fsynced before Commit
// returns, so if it returns nil the outcome is on disk before any
// response byte can escape; if the append fails the caller answers 5xx
// (commit-xor-5xx). The SpendMeta argument is ignored: a Txn charges
// nothing itself, and the accountant already recorded the charges
// out.Charges lists.
func (tx *Txn) Commit(_ mechanism.SpendMeta, out Outcome) error {
	if tx == nil {
		return nil
	}
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if tx.settled {
		panic("wal: Txn.Commit on a settled transaction")
	}
	rec := Record{
		Op:       OpCommit,
		Key:      tx.it.Key,
		Endpoint: tx.it.Endpoint,
		Seed:     tx.it.Seed,
		Epsilon:  tx.it.Epsilon,
		Status:   out.Status,
		Charges:  out.Charges,
	}
	if tx.it.Key != "" {
		rec.Response = out.Response
	}
	if _, err := tx.log.Append(rec); err != nil {
		return err
	}
	tx.settled = true
	return nil
}

// Release settles the transaction as abandoned. It writes nothing: a
// request with no commit record is, at recovery, a request that never
// released anything. After Commit (or a second Release) it is a no-op,
// so `defer tx.Release()` is the canonical cleanup.
func (tx *Txn) Release() {
	if tx == nil {
		return
	}
	tx.mu.Lock()
	defer tx.mu.Unlock()
	tx.settled = true
}

// ReplayOutcome is one committed response restored for idempotent
// replay.
type ReplayOutcome struct {
	Status   int
	Response []byte
}

// State is the settled view of one WAL: what recovery charges and which
// responses it can replay.
type State struct {
	// Commits is the number of commit records folded.
	Commits int
	// Outcomes restores the idempotency store: committed responses by
	// client key.
	Outcomes map[string]ReplayOutcome
	// charges are the commits' exact guarantees in log order.
	charges []Charge
	// reserveKeys names the key of each keyed reserve record by LSN.
	reserveKeys map[uint64]string
}

func newState() *State {
	return &State{Outcomes: make(map[string]ReplayOutcome)}
}

// Charges returns every committed guarantee in log order — the multiset
// the recovered accountant composes and the log's books count. The
// slice is the State's own, clipped so an append copies it.
func (st *State) Charges() []Charge {
	return slices.Clip(st.charges)
}

// fold settles one record: every commit is charged, and its outcome is
// restored when it is keyed. A commit's key is its own, or — in logs
// written before commits carried their intent — that of the reserve
// record its Ref names. Any other record charges nothing: a request
// that never committed never released.
func (st *State) fold(rec *Record) {
	switch rec.Op {
	case OpReserve:
		if rec.Key == "" {
			// The last reserve at an LSN names its key, keyed or not.
			delete(st.reserveKeys, rec.LSN)
			return
		}
		if st.reserveKeys == nil {
			st.reserveKeys = make(map[uint64]string)
		}
		st.reserveKeys[rec.LSN] = rec.Key
	case OpCommit:
		key := rec.Key
		if key == "" {
			key = st.reserveKeys[rec.Ref]
		}
		if key != "" && rec.Status != 0 {
			st.Outcomes[key] = ReplayOutcome{Status: rec.Status, Response: rec.Response}
		}
		st.Commits++
		st.charges = append(st.charges, rec.Charges...)
	}
}

// Replay folds a log's surviving records, in the order given (Open's
// LSN order), into their settled state, as Recover does while it reads.
// Replay is a pure function, so recovery is deterministic regardless of
// worker counts or replay timing.
func Replay(recs []Record) *State {
	st := newState()
	for i := range recs {
		st.fold(&recs[i])
	}
	return st
}
