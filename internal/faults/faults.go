// Package faults provides a seeded, deterministic fault-injection
// schedule for the chaos test battery: the same (seed, class, key)
// always fires the same way, so a chaos run that trips an invariant is
// replayable with nothing more than its seed.
//
// The schedule is a pure function — no internal stream is consumed — so
// concurrent probes from worker goroutines neither race nor perturb
// each other's verdicts, and a fault plan is independent of execution
// order (the property the deterministic-parallelism contract needs: a
// chaos sweep fires the same faults at Workers=1 and Workers=8).
package faults

import (
	"errors"
	"fmt"
	"hash/fnv"
)

// Class identifies one injectable fault family.
type Class string

const (
	// WorkerPanic fires a panic inside a parallel worker body, exercising
	// panic isolation (parallel.WorkerError).
	WorkerPanic Class = "worker-panic"
	// BudgetDeny shrinks or denies budget admission, exercising
	// ErrBudgetExhausted handling and degrade policies.
	BudgetDeny Class = "budget-deny"
	// NaNRisk corrupts a risk evaluation to NaN, exercising the facade's
	// ErrNonFiniteInput validation.
	NaNRisk Class = "nan-risk"
	// CheckpointWrite fails a checkpoint append, exercising
	// checkpoint.ErrWrite propagation and partial-log resume.
	CheckpointWrite Class = "checkpoint-write"

	// The WALCrash* classes hard-abort a served request at each phase
	// boundary of the write-ahead ledger's commit protocol, exercising
	// recovery's charge-exactly-the-commits guarantee. Each fires as a
	// simulated process death: the tenant's WAL is frozen (no further
	// appends, as if the fd died with the process) and the handler
	// aborts, so the on-disk state is exactly what a kill at that
	// boundary would leave.
	//
	// WALCrashPreRelease aborts after the WAL transaction is opened but
	// before the mechanism runs — nothing is on disk; the request simply
	// never happened.
	WALCrashPreRelease Class = "wal-crash-pre-release"
	// WALCrashPreCommit aborts after the mechanism ran (noise drawn,
	// in-memory books charged) but before the commit record is durable —
	// the response never escaped, so recovery must charge nothing.
	WALCrashPreCommit Class = "wal-crash-pre-commit"
	// WALCrashPostCommit aborts after the commit record is durable but
	// before the response bytes are written — the charge must survive
	// recovery and an idempotent retry must replay the stored response
	// without a second charge.
	WALCrashPostCommit Class = "wal-crash-post-commit"
)

// Classes lists every fault family the battery covers.
var Classes = []Class{
	WorkerPanic, BudgetDeny, NaNRisk, CheckpointWrite,
	WALCrashPreRelease, WALCrashPreCommit, WALCrashPostCommit,
}

// WALCrashes lists the WAL phase-boundary abort classes in protocol
// order, for batteries that sweep every boundary.
var WALCrashes = []Class{WALCrashPreRelease, WALCrashPreCommit, WALCrashPostCommit}

// ErrInjected marks an injected failure, so tests can tell a planned
// fault from a genuine defect with errors.Is.
var ErrInjected = errors.New("faults: injected failure")

// Schedule is a deterministic fault plan: Hit(class, key) is a pure
// function of (seed, class, key). A nil schedule never fires.
type Schedule struct {
	seed  int64
	rates map[Class]float64
}

// NewSchedule builds a plan firing each class with the given
// probability (keys absent from rates never fire; rate ≥ 1 always
// fires).
func NewSchedule(seed int64, rates map[Class]float64) *Schedule {
	cp := make(map[Class]float64, len(rates))
	for c, r := range rates {
		cp[c] = r
	}
	return &Schedule{seed: seed, rates: cp}
}

// Hit reports whether the fault (class, key) is in the plan. key
// identifies the injection site — a loop index, a cell index, a fit
// sequence number — so distinct sites draw independent verdicts.
func (s *Schedule) Hit(c Class, key int) bool {
	if s == nil {
		return false
	}
	rate, ok := s.rates[c]
	if !ok || rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	h := fnv.New64a()
	_, _ = fmt.Fprintf(h, "%d|%s|%d", s.seed, c, key)
	// FNV's high bits avalanche poorly on short inputs, so finish with a
	// splitmix64-style mix before mapping the top 53 bits to [0, 1).
	u := float64(mix64(h.Sum64())>>11) / float64(uint64(1)<<53)
	return u < rate
}

// mix64 is the splitmix64 finalizer: a bijective avalanche so every
// input bit diffuses into every output bit.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Err returns a typed injected error for (class, key) when the plan
// fires, nil otherwise.
func (s *Schedule) Err(c Class, key int) error {
	if !s.Hit(c, key) {
		return nil
	}
	return fmt.Errorf("%w: %s at site %d", ErrInjected, c, key)
}

// Panic panics with a typed injected error when the plan fires.
func (s *Schedule) Panic(c Class, key int) {
	if err := s.Err(c, key); err != nil {
		panic(err)
	}
}
