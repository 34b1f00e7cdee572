// Package wal is the write-ahead privacy ledger: an append-only,
// fsync-on-append NDJSON intent log that makes per-tenant budget state
// crash-recoverable. It reopens through package checkpoint's torn-tail
// repair (ScanRepair) and layers a two-phase record protocol shaped after
// the accountant's Reserve/Commit over it:
//
//   - a "reserve" record is durable (written and fsynced) before the
//     mechanism runs, so a crash mid-release leaves evidence of the
//     in-flight intent;
//   - a "commit" record — carrying the exact committed guarantees, the
//     response status, and the response fingerprint — is durable before
//     the noised response bytes reach the client, so a value can only
//     have escaped the process if its charge survived the crash;
//   - a "void" record settles an abandoned reserve (admission refusal,
//     release error, drain); a reserve with no settling record is the
//     signature of a crash, and recovery treats it exactly like a void:
//     the release never escaped, so — by the DP-as-channel reading —
//     nothing leaked and nothing is charged.
//
// Recovery (Replay) therefore settles every in-flight request safely:
// commit present → charge the exact logged guarantees; reserve without
// commit → void. Replaying the commit charges through SpendDetail
// rebuilds an Accountant bit-identically: both sides round the exact
// sum of the same guarantee multiset with one routine (mathx.ExactSum),
// so the recovered composition equals obs.ComposeBasic of the WAL's
// commit records bit for bit.
//
// Commit records double as the durable idempotency store: a commit
// carrying a client Idempotency-Key pins the response fingerprint and
// body, so a retried request replays the original outcome — across
// restarts — without re-spending ε.
package wal

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"

	"repro/internal/checkpoint"
	"repro/internal/mechanism"
)

// Op is the record type of one WAL line.
type Op string

const (
	// OpReserve logs the intent to run a release before any noise is
	// drawn.
	OpReserve Op = "reserve"
	// OpCommit settles a reserve as charged: the release succeeded and
	// its response is about to escape.
	OpCommit Op = "commit"
	// OpVoid settles a reserve as abandoned: nothing escaped, nothing is
	// charged.
	OpVoid Op = "void"
)

// ErrFrozen reports an append to a frozen log. Freeze simulates the
// process dying with the file descriptor: the chaos battery freezes a
// log at an injected crash point so no deferred cleanup can write the
// records a real crash would have lost.
var ErrFrozen = errors.New("wal: log frozen (simulated crash)")

// ErrAppend reports a failure to persist a WAL record. The serve layer
// maps it to a 5xx without committing in memory, so a client never
// holds a response whose charge is not durable.
var ErrAppend = errors.New("wal: append failed")

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
	// LSN is the log sequence number: strictly increasing per log, so
	// recovery replays in arrival order.
	LSN uint64 `json:"lsn"`
	// Ref names the reserve LSN a commit or void settles.
	Ref uint64 `json:"ref,omitempty"`
	// Key is the client-supplied Idempotency-Key ("" when the request
	// carried none).
	Key string `json:"key,omitempty"`
	// Endpoint and Seed identify the request for the recovery report.
	Endpoint string `json:"endpoint,omitempty"`
	Seed     int64  `json:"seed,omitempty"`
	// Epsilon is the quoted price at reserve time (advisory; the exact
	// charges live on the commit record).
	Epsilon float64 `json:"epsilon,omitempty"`
	// Status, Fingerprint, and Response pin the committed outcome for
	// idempotent replay: the HTTP status, the sha256 of the response
	// body, and the body itself. Response is stored base64 so a replay
	// returns the escaped bytes exactly (down to the trailing newline
	// the server's encoder emits), matching the fingerprint bit for bit.
	Status      int    `json:"status,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`
	Response    []byte `json:"response,omitempty"`
	// Charges are the exact guarantees this request committed (empty for
	// a free outcome such as a fallback-degraded fit).
	Charges []Charge `json:"charges,omitempty"`
}

// Fingerprint returns the hex sha256 of a response body — the commit
// record's idempotency fingerprint.
func Fingerprint(body []byte) string {
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:])
}

// Log is one tenant's open write-ahead ledger. All methods are safe for
// concurrent use and nil-safe: a nil *Log accepts every append as a
// no-op, so WAL-disabled servers run the identical code path.
type Log struct {
	mu     sync.Mutex
	f      *os.File
	lsn    uint64
	frozen bool

	// onAppend and onSync feed observability (fsync and append counters)
	// without the wal package importing the metrics registry.
	onAppend func(Record)
	onSync   func(error)
}

// Open opens (creating if needed) the WAL at path and returns the
// surviving records in LSN order. Torn or corrupt trailing lines — the
// signature of a killed writer — are skipped, the final torn line is
// terminated, and the offset is left at EOF so appends follow the
// survivors (checkpoint.ScanRepair).
func Open(path string) (*Log, []Record, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	l := &Log{f: f}
	var recs []Record
	err = checkpoint.ScanRepair(f, func(line []byte) {
		var rec Record
		if json.Unmarshal(line, &rec) != nil {
			return // torn tail or corruption: the record never became durable
		}
		if rec.Op == "" || rec.LSN == 0 {
			return // structurally valid JSON that is not a WAL record
		}
		recs = append(recs, rec)
		if rec.LSN > l.lsn {
			l.lsn = rec.LSN
		}
	})
	if err != nil {
		_ = f.Close() // the read/seek/repair error supersedes
		return nil, nil, fmt.Errorf("wal: %s: %w", path, err)
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].LSN < recs[j].LSN })
	return l, recs, nil
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

// Freeze drops every subsequent append on the floor (ErrFrozen),
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
	l.frozen = true
}

// Append assigns the next LSN, writes the record as one NDJSON line in
// a single Write call, and fsyncs before returning — the record is
// durable when Append returns nil. Returns the assigned LSN.
func (l *Log) Append(rec Record) (uint64, error) {
	if l == nil {
		return 0, nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.frozen {
		return 0, ErrFrozen
	}
	l.lsn++
	rec.LSN = l.lsn
	line, err := json.Marshal(rec)
	if err != nil {
		return 0, fmt.Errorf("%w: marshal: %v", ErrAppend, err)
	}
	if _, err := l.f.Write(append(line, '\n')); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrAppend, err)
	}
	if l.onAppend != nil {
		l.onAppend(rec)
	}
	err = l.f.Sync()
	if l.onSync != nil {
		l.onSync(err)
	}
	if err != nil {
		return 0, fmt.Errorf("%w: fsync: %v", ErrAppend, err)
	}
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

// Intent identifies the request behind a reserve record.
type Intent struct {
	Endpoint string
	Key      string
	Seed     int64
	// Epsilon is the quoted price (advisory; exact charges ride the
	// commit).
	Epsilon float64
}

// Txn is one two-phase WAL transaction: a durable intent that must be
// settled by exactly one Commit or Release on every path, mirroring
// mechanism.Reservation's protocol. It holds no budget — admission and
// the charge itself stay on the accountant — so its Commit charges
// nothing; it makes the request's outcome durable. The zero-value
// contract matches the reservation's: a Txn from a nil log settles as a
// no-op.
type Txn struct {
	log *Log
	lsn uint64
	g   mechanism.Guarantee

	mu      sync.Mutex
	settled bool
}

// Begin durably logs the intent to run a release (reserve record,
// fsynced) and returns the transaction to settle. On a nil log it
// returns a no-op transaction, so WAL-disabled callers run unchanged.
func (l *Log) Begin(it Intent) (*Txn, error) {
	tx := &Txn{log: l, g: mechanism.Guarantee{Epsilon: it.Epsilon}}
	if l == nil {
		return tx, nil
	}
	lsn, err := l.Append(Record{
		Op:       OpReserve,
		Key:      it.Key,
		Endpoint: it.Endpoint,
		Seed:     it.Seed,
		Epsilon:  it.Epsilon,
	})
	if err != nil {
		return nil, err
	}
	tx.lsn = lsn
	return tx, nil
}

// Amount returns the intent's quoted guarantee. The Commit/Release plus
// Amount() Guarantee shape is what makes the linters hold a Txn to the
// settle-exactly-once discipline of a Reservation.
func (tx *Txn) Amount() mechanism.Guarantee {
	if tx == nil {
		return mechanism.Guarantee{}
	}
	return tx.g
}

// Commit settles the transaction as committed: the commit record —
// status, response fingerprint and body, the exact charges in
// out.Charges — is written and fsynced before Commit returns, so if it
// returns nil the outcome is on disk before any response byte can
// escape; if the append fails the caller answers 5xx (commit-xor-5xx).
// The SpendMeta argument is ignored: a Txn charges nothing itself, and
// the accountant already recorded the charges out.Charges lists.
func (tx *Txn) Commit(_ mechanism.SpendMeta, out Outcome) error {
	if tx == nil {
		return nil
	}
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if tx.settled {
		panic("wal: Txn.Commit on a settled transaction")
	}
	if tx.log != nil {
		rec := Record{
			Op:      OpCommit,
			Ref:     tx.lsn,
			Status:  out.Status,
			Charges: out.Charges,
		}
		if out.Response != nil {
			rec.Fingerprint = Fingerprint(out.Response)
			rec.Response = out.Response
		}
		if _, err := tx.log.Append(rec); err != nil {
			return err
		}
	}
	tx.settled = true
	return nil
}

// Release settles the transaction as abandoned: a void record settles
// the reserve line. The void append is best-effort — a missing void is equivalent
// to a void at recovery (reserve without commit), which is exactly the
// crash semantics. After Commit (or a second Release) it is a no-op, so
// `defer tx.Release()` is the canonical cleanup.
func (tx *Txn) Release() {
	if tx == nil {
		return
	}
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if tx.settled {
		return
	}
	tx.settled = true
	if tx.log != nil {
		_, _ = tx.log.Append(Record{Op: OpVoid, Ref: tx.lsn}) //dplint:ignore errdrop a lost void is indistinguishable from — and settled like — a crash before the void
	}
}

// ReplayOutcome is one committed response restored for idempotent
// replay.
type ReplayOutcome struct {
	Status      int
	Fingerprint string
	Response    []byte
}

// State is the settled view of one WAL after Replay: what recovery
// charges, what it voids, and which responses it can replay.
type State struct {
	// Commits are the commit records in LSN order; their Charges are the
	// exact guarantee multiset the rebuilt accountant must compose.
	Commits []Record
	// Unsettled are reserve records with no commit or void — requests in
	// flight at the crash. Their releases never escaped; recovery voids
	// them.
	Unsettled []Record
	// Voided counts reserves settled by an explicit void record.
	Voided int
	// Outcomes restores the idempotency store: committed responses by
	// client key.
	Outcomes map[string]ReplayOutcome
}

// Charges returns every committed guarantee in LSN order — the multiset
// whose composition (obs.ComposeBasic) the recovered accountant must
// reproduce bit for bit.
func (st *State) Charges() []Charge {
	var out []Charge
	for _, c := range st.Commits {
		out = append(out, c.Charges...)
	}
	return out
}

// Replay folds a log's surviving records into their settled state:
// every reserve is resolved as committed, voided, or unsettled
// (crashed, treated as void), and the committed outcomes keyed by
// Idempotency-Key are restored. Records are processed in LSN order;
// Replay is a pure function, so recovery is deterministic regardless of
// worker counts or replay timing.
func Replay(recs []Record) *State {
	st := &State{Outcomes: make(map[string]ReplayOutcome)}
	reserves := make(map[uint64]Record)
	var order []uint64
	for _, rec := range recs {
		switch rec.Op {
		case OpReserve:
			reserves[rec.LSN] = rec
			order = append(order, rec.LSN)
		case OpCommit:
			res, ok := reserves[rec.Ref]
			if ok {
				delete(reserves, rec.Ref)
				if res.Key != "" && rec.Status != 0 {
					st.Outcomes[res.Key] = ReplayOutcome{
						Status:      rec.Status,
						Fingerprint: rec.Fingerprint,
						Response:    append([]byte(nil), rec.Response...),
					}
				}
			}
			// A commit whose reserve was lost to corruption still charges:
			// the response may have escaped, so the conservative reading is
			// that it did.
			st.Commits = append(st.Commits, rec)
		case OpVoid:
			if _, ok := reserves[rec.Ref]; ok {
				delete(reserves, rec.Ref)
				st.Voided++
			}
		}
	}
	for _, lsn := range order {
		if res, ok := reserves[lsn]; ok {
			st.Unsettled = append(st.Unsettled, res)
		}
	}
	return st
}
