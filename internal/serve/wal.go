package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"path/filepath"
	"sync"

	"repro/internal/faults"
	"repro/internal/mechanism"
	"repro/internal/parallel"
	"repro/internal/wal"
)

// idempotencyHeader is the client-supplied retry-correlation header: two
// requests carrying the same key are the same logical request, and the
// second must return the first's outcome without re-spending ε.
const idempotencyHeader = "Idempotency-Key"

// replayedHeader marks a response served from the durable outcome store
// rather than a fresh release.
const replayedHeader = "Idempotency-Replayed"

// errDuplicateKey reports a request whose idempotency key is already in
// flight: the retry arrived before the original settled, and running
// both would risk a double release. Mapped to 409.
var errDuplicateKey = errors.New("serve: idempotency key already in flight")

// idemStore is a tenant's idempotency index: settled outcomes by client
// key (for replay) plus the keys currently in flight (to refuse a
// concurrent duplicate with 409 instead of racing two releases). The
// durable copy of the settled outcomes lives on the WAL's keyed commit
// records; this is the in-memory view, rebuilt by recovery — so the
// store works across restarts exactly when a WAL is attached, and
// within one process lifetime without one.
type idemStore struct {
	mu       sync.Mutex
	done     map[string]wal.ReplayOutcome
	inflight map[string]bool
}

func newIdemStore() *idemStore {
	return &idemStore{done: make(map[string]wal.ReplayOutcome), inflight: make(map[string]bool)}
}

// claim resolves a key: a settled outcome replays, an in-flight key is
// refused, a fresh key is claimed (the caller must settle or abandon).
func (st *idemStore) claim(key string) (out wal.ReplayOutcome, replay bool, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if o, ok := st.done[key]; ok {
		return o, true, nil
	}
	if st.inflight[key] {
		return wal.ReplayOutcome{}, false, fmt.Errorf("%w: %q", errDuplicateKey, key)
	}
	st.inflight[key] = true
	return wal.ReplayOutcome{}, false, nil
}

// settle records the committed outcome and releases the in-flight claim.
func (st *idemStore) settle(key string, out wal.ReplayOutcome) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.done[key] = out
	delete(st.inflight, key)
}

// abandon releases an in-flight claim without an outcome (the request
// refused, failed, or crashed — a retry may run it afresh). After a
// settle it is a no-op, so callers may defer it unconditionally.
func (st *idemStore) abandon(key string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	delete(st.inflight, key)
}

// restore seeds the settled outcomes from WAL recovery.
func (st *idemStore) restore(outs map[string]wal.ReplayOutcome) {
	st.mu.Lock()
	defer st.mu.Unlock()
	maps.Copy(st.done, outs)
}

// RecoveryReport summarizes one tenant's WAL recovery at boot.
type RecoveryReport struct {
	Tenant string `json:"tenant"`
	// Commits is the number of commit records replayed; Charges the
	// number of guarantees they carried (one commit may hold several).
	Commits int `json:"commits"`
	Charges int `json:"charges"`
	// RestoredKeys is the number of idempotency outcomes restored.
	RestoredKeys int `json:"restored_keys"`
	// Epsilon and Delta are the recovered canonical composition —
	// audited bit for bit against the log's books, which recovery
	// books from the same commit records, before the server accepts
	// traffic.
	Epsilon float64 `json:"epsilon"`
	Delta   float64 `json:"delta"`
}

// recoverWAL opens (or creates) the tenant's write-ahead ledger under
// dir and folds it into its settled state (wal.Recover). It touches
// nothing of the tenant's, so New recovers every tenant's log at once.
func recoverWAL(id, dir string) (*wal.Log, *wal.State, error) {
	l, st, err := wal.Recover(filepath.Join(dir, id+".wal"))
	if err != nil {
		return nil, nil, fmt.Errorf("serve: tenant %s: %w", id, err)
	}
	return l, st, nil
}

// recoverWALs is boot recovery, before any traffic. Every tenant's log
// is read and folded concurrently, then attached in declaration order,
// so the accountants, the trace's ledger lines, the order in which the
// dplearn_wal_* series register and the RecoveryReports are those of a
// serial boot. A log that cannot be recovered, or books that cannot be
// audited, fail the boot, and every log it opened is closed.
func (s *Server) recoverWALs(ts []*Tenant) error {
	logs := make([]*wal.Log, len(ts))
	states := make([]*wal.State, len(ts))
	errs := make([]error, len(ts))
	err := parallel.ForGrainCtx(context.Background(), len(ts), 1, parallel.Options{}, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			logs[i], states[i], errs[i] = recoverWAL(ts[i].ID, s.cfg.WALDir)
		}
	})
	for i := 0; err == nil && i < len(ts); i++ {
		err = errs[i]
	}
	for i := 0; err == nil && i < len(ts); i++ {
		var rep RecoveryReport
		if rep, err = s.attachWAL(ts[i], logs[i], states[i]); err == nil {
			s.recovery = append(s.recovery, rep)
			ts[i].refreshSpent()
		}
	}
	if err != nil {
		for _, l := range logs {
			_ = l.Close() // the recovery error supersedes
		}
	}
	return err
}

// attachWAL rebuilds the tenant's accountant from its recovered log and
// wires the log into the tenant. Every recovered charge goes through
// SpendDetail — the same observer path live commits take — so the
// trace's ledger lines carry the recovered spends too. The rebuilt
// accountant must then pass the quiescent audit against the log's books
// (Tenant.CrossCheck): the same charges, counted by the log as it read
// them, bit for bit; a mismatch fails the attach, because books that
// cannot be audited must not serve, and the caller closes the log.
// Past the tail repair recovery writes nothing, so a second replay
// reaches the same state.
func (s *Server) attachWAL(t *Tenant, l *wal.Log, st *wal.State) (RecoveryReport, error) {
	rep := RecoveryReport{Tenant: t.ID}
	for _, ch := range st.Charges() {
		t.Acct.SpendDetail(mechanism.Guarantee{Epsilon: ch.Epsilon, Delta: ch.Delta}, mechanism.SpendMeta{
			Mechanism:   ch.Mechanism,
			Sensitivity: ch.Sensitivity,
			Outcomes:    ch.Outcomes,
		})
	}
	t.wal = l
	if _, _, err := t.CrossCheck(true); err != nil {
		return rep, err
	}
	t.idem.restore(st.Outcomes)
	g := t.Acct.BasicComposition()
	rep.Commits = st.Commits
	rep.Charges = t.Acct.Count()
	rep.RestoredKeys = len(st.Outcomes)
	rep.Epsilon = g.Epsilon
	rep.Delta = g.Delta

	mreg := s.obs.Reg()
	appends := mreg.Counter("dplearn_wal_appends_total",
		"write-ahead ledger records appended", "tenant", t.ID)
	fsyncs := mreg.Counter("dplearn_wal_fsync_total",
		"write-ahead ledger fsyncs", "tenant", t.ID)
	fsyncErrs := mreg.Counter("dplearn_wal_fsync_errors_total",
		"write-ahead ledger fsync failures", "tenant", t.ID)
	l.SetHooks(func(wal.Record) { appends.Inc() }, func(err error) {
		fsyncs.Inc()
		if err != nil {
			fsyncErrs.Inc()
		}
	})
	mreg.Gauge("dplearn_wal_recovered_commits",
		"commit records replayed at the last recovery", "tenant", t.ID).Set(float64(rep.Commits))
	mreg.Gauge("dplearn_wal_recovered_epsilon",
		"canonically composed ε rebuilt from the WAL at the last recovery", "tenant", t.ID).Set(rep.Epsilon)
	return rep, nil
}

// RecoveryReports returns the per-tenant WAL recovery summaries from
// boot (nil when the server runs without a WAL).
func (s *Server) RecoveryReports() []RecoveryReport {
	return s.recovery
}

// CloseWALs releases every tenant's write-ahead log file. For orderly
// shutdown (and test supervisors cycling servers over one WAL dir); a
// crashed process never gets to call it, which is the point of the WAL.
func (s *Server) CloseWALs() {
	for _, t := range s.reg.Tenants() {
		_ = t.wal.Close()
	}
}

// crash fires a simulated process death at a WAL phase boundary: the
// tenant's log is frozen first — as if the file descriptor died with
// the process, so no deferred cleanup can append records a real crash
// would never have produced — and the handler aborts by panic. The
// middleware's recover converts the abort into a 500, standing in for
// the connection dying: either way, no response bytes escaped.
func (s *Server) crash(c faults.Class, key int, t *Tenant) {
	sched := s.cfg.Faults
	if sched == nil || !sched.Hit(c, key) {
		return
	}
	t.wal.Freeze()
	panic(fmt.Errorf("%w: %s at site %d (simulated process death)", faults.ErrInjected, c, key))
}

// durable wraps one spending endpoint body in the write-ahead envelope
// that makes its charge crash-recoverable and its retry idempotent. The
// ordering is the whole argument:
//
//  1. idempotency: a settled key replays the stored response (no second
//     charge, across restarts); an in-flight key is refused with 409.
//  2. the WAL transaction is opened; it holds the intent in memory and
//     writes nothing. A poisoned log (a failed write or fsync) refuses
//     here with a 5xx, before admission and before any noise.
//  3. the body runs: in-memory admission (429 on refusal), the
//     mechanism, the in-memory two-phase commit. Every guarantee it
//     commits lands in the request's charge scope (see instrument).
//  4. the response is marshaled, and the request's one commit record —
//     its intent, status and the scope's exact charges, plus the body
//     when the request is keyed — is appended and fsynced BEFORE any
//     response byte reaches the client. A crash before this point
//     loses only state a crash erases anyway — and since the response
//     never escaped, recovery finds no commit and charges nothing: by
//     the information-theoretic reading, an emission that never
//     happened leaks nothing and costs nothing.
//  5. only then do the bytes escape. If the durable commit fails
//     without a crash, the client gets a 5xx and the in-memory charge
//     stands — conservative over-counting, never under-counting.
//
// A refusal, an error or a crash leaves no record at all; the deferred
// Release settles the transaction without writing. Commit-xor-5xx
// therefore survives reboots: a client holds response bytes if and
// only if the WAL holds the commit record.
//
// With no WAL attached (t.wal == nil) every WAL call is a no-op and the
// flow — including idempotent replay within the process lifetime — is
// unchanged, consuming zero additional clock reads, so WAL-less servers
// keep the goldened /metrics surface byte-identical.
func (s *Server) durable(w http.ResponseWriter, r *http.Request, t *Tenant, endpoint string, seed int64, quoted float64, body func(ctx context.Context, t *Tenant) (any, error)) {
	ai := accessFrom(r.Context())
	key := r.Header.Get(idempotencyHeader)
	if key != "" {
		ai.setIdemKey(key)
		out, replay, err := t.idem.claim(key)
		if err != nil {
			s.writeError(w, t.ID, err)
			return
		}
		if replay {
			s.obs.Reg().Counter("dplearn_wal_idem_replays_total",
				"requests served from the durable idempotency store", "tenant", t.ID).Inc()
			ai.setOutcome("replayed")
			w.Header().Set(replayedHeader, "true")
			s.writeRaw(w, out.Status, out.Response)
			return
		}
		// The claim must not outlive the request: settle stores the
		// outcome on success, and abandon (a no-op after settle) frees
		// the key on every refusal, error, and crash-unwind path so a
		// retry can run afresh.
		defer t.idem.abandon(key)
	}
	s.serveDurable(w, r, t, endpoint, seed, quoted, key, body)
}

// serveDurable is the envelope past the idempotency gate; split out so
// the claim's abandon/settle pairing in durable stays readable.
func (s *Server) serveDurable(w http.ResponseWriter, r *http.Request, t *Tenant, endpoint string, seed int64, quoted float64, key string, body func(ctx context.Context, t *Tenant) (any, error)) {
	tx, err := t.wal.Begin(wal.Intent{Endpoint: endpoint, Key: key, Seed: seed, Epsilon: quoted})
	if err != nil {
		s.writeError(w, t.ID, err)
		return
	}
	defer tx.Release()
	s.crash(faults.WALCrashPreRelease, int(seed), t)
	payload, err := body(r.Context(), t)
	if err != nil {
		s.writeError(w, t.ID, err)
		return
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(payload); err != nil {
		http.Error(w, `{"error":"serve: response encoding failed"}`, http.StatusInternalServerError)
		return
	}
	s.crash(faults.WALCrashPreCommit, int(seed), t)
	if err := tx.Commit(mechanism.SpendMeta{}, wal.Outcome{
		Status:   http.StatusOK,
		Response: buf.Bytes(),
		Charges:  walCharges(mechanism.ChargeScopeFrom(r.Context()).Records()),
	}); err != nil {
		// The charge is in memory but not durable, and the response must
		// not escape without its durable commit; 5xx and let the client
		// retry under its key. The in-memory charge stands — conservative
		// over-counting until restart, never under-counting.
		s.writeError(w, t.ID, err)
		return
	}
	s.crash(faults.WALCrashPostCommit, int(seed), t)
	if key != "" {
		t.idem.settle(key, wal.ReplayOutcome{Status: http.StatusOK, Response: buf.Bytes()})
	}
	s.writeRaw(w, http.StatusOK, buf.Bytes())
}

// walCharges converts a request's committed spends into the commit
// record's charges, in commit order.
func walCharges(recs []mechanism.SpendRecord) []wal.Charge {
	var out []wal.Charge
	for _, r := range recs {
		out = append(out, wal.Charge{
			Mechanism:   r.Meta.Mechanism,
			Sensitivity: r.Meta.Sensitivity,
			Outcomes:    r.Meta.Outcomes,
			Epsilon:     r.Guarantee.Epsilon,
			Delta:       r.Guarantee.Delta,
		})
	}
	return out
}
