// Package core implements the paper's primary contribution: the
// compute-side transactional protocols for disaggregated key-value
// stores, executed entirely through one-sided RDMA verbs.
//
// Three protocols share the same engine:
//
//   - ProtocolPandora (§3.1): FORD's optimistic execution/validation
//     with Pandora's fixes — locks carry the owner's coordinator-id
//     (PILL, §3.1.2), the undo log is written in a dedicated logging
//     phase after validation succeeds to f+1 designated log servers
//     (§3.1.4), and stray locks of failed coordinators are stolen
//     instead of scanned for.
//   - ProtocolFORD (§2.3): the baseline. Locks are taken eagerly and
//     per-object undo logs are written to the object's own replicas
//     during execution — before the commit decision — which is exactly
//     what makes the baseline's recovery slow (stray locks require a
//     full-memory scan) and, in corner cases, incorrect (Table 1).
//   - ProtocolTradLog (§6.1 "traditional logging scheme"): Pandora plus
//     an explicit lock-intent log round trip before every lock, the
//     conventional way to make locks recoverable; used to quantify what
//     PILL saves.
//
// The six bugs of Table 1 are seeded behind the Bugs flags so the litmus
// framework (package litmus) can demonstrate detecting each; with all
// flags false the engine runs the fixed protocol.
//
// Transactions provide strict serializability (OCC with eager write
// locking and read-set validation) under the crash-stop failure model of
// §2.1.
package core

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"pandora/internal/kvlayout"
	"pandora/internal/metrics"
)

// Protocol selects the transactional protocol variant.
type Protocol int

// Protocol variants.
const (
	ProtocolPandora Protocol = iota
	ProtocolFORD
	ProtocolTradLog
)

// String returns the protocol name.
func (p Protocol) String() string {
	switch p {
	case ProtocolPandora:
		return "pandora"
	case ProtocolFORD:
		return "ford"
	case ProtocolTradLog:
		return "tradlog"
	default:
		return fmt.Sprintf("protocol(%d)", int(p))
	}
}

// Bugs seeds the Table-1 FORD bugs for litmus validation. All false
// (the zero value) runs the fixed protocol. The first three are
// online-failure-free (C1) bugs reachable in every protocol variant;
// the last three are online-recovery (C2) bugs of FORD's exec-time
// logging and therefore only take effect under ProtocolFORD.
type Bugs struct {
	// ComplicitAbort: the abort path releases every write-set lock,
	// including locks the transaction never actually acquired — thereby
	// releasing locks held by other transactions (litmus 1).
	ComplicitAbort bool
	// CovertLocks: validation compares only read-set versions and
	// ignores the lock word, admitting read-write cycles (litmus 2).
	CovertLocks bool
	// RelaxedLocks: validation may begin before every write-set lock has
	// been confirmed, overlapping execution and validation (litmus 2).
	RelaxedLocks bool
	// MissingInsertLog: inserts are omitted from the undo log, so
	// recovery cannot undo them (litmus 1 insert variant). FORD only.
	MissingInsertLog bool
	// LostDecision: keep FORD's exec-time logging even for transactions
	// that later abort, making committed and aborted logged transactions
	// indistinguishable at recovery (litmus 3). FORD only — this is
	// FORD's inherent behaviour; the flag exists so the fixed baseline
	// can also be run with post-validation truncation discipline.
	LostDecision bool
	// LogWithoutLock: a corner case where an object's undo log is
	// written before its lock CAS is issued (litmus 3). FORD only.
	LogWithoutLock bool
}

// Options configures a compute node's protocol engine.
type Options struct {
	Protocol Protocol
	Bugs     Bugs
	// DisablePILL turns off the failed-ids check and lock stealing,
	// reproducing the non-recoverable FORD steady state (Figure 6's
	// "without PILL" line).
	DisablePILL bool
	// Persist enables the NVM persistence mode of §7: commits make the
	// undo log durable before applying (write-ahead rule) and the
	// applied data durable before acknowledging, using FORD's selective
	// one-sided flush scheme (one flush round trip per touched node).
	// Requires a fabric with persistence enabled; meaningful for
	// ProtocolPandora/ProtocolTradLog (FORD-mode exec-time logs are
	// flushed per object).
	Persist bool
	// StallOnConflict makes transactions wait for a conflicting lock
	// instead of aborting (the stalling path studied in §6.4 /
	// Figures 13-14). Waiters re-check the failed-ids set so they
	// unblock the moment recovery announces the owner's failure.
	StallOnConflict bool
	// ReadCacheSize sizes the per-coordinator validated read cache
	// (entries). 0 selects the default (cache.DefaultEntries); negative
	// disables the cache entirely — the flag-gated no-cache baseline
	// every read-path experiment compares against. A hit serves the
	// value compute-side and registers the cached version in the read
	// set; OCC validation provides the staleness check (DESIGN.md §11).
	ReadCacheSize int
	// HotlockThreshold tunes the per-coordinator contention tracker that
	// promotes keys to FAA ticket-queue acquisition (DESIGN.md §14).
	// 0 selects the default streak (hotlock.DefaultThreshold); positive
	// values promote after that many consecutive lock conflicts;
	// negative disables the queue entirely — the flag-gated CAS-spin
	// baseline every hot-lock experiment compares against. The lock word
	// stays authoritative either way: promotion changes how a waiter
	// waits, never who may own the lock.
	HotlockThreshold int
	// AsyncCommitBack moves the post-ack commit tail (log truncation,
	// lock release) off the critical path: Commit returns at the client
	// acknowledgement and the truncate+release doorbell drains through a
	// per-coordinator bounded pipeline (DESIGN.md §16). A same-node
	// transaction that conflicts with an acked-but-undrained holder
	// flushes the holder's drain and retries instead of aborting.
	// Recovery semantics are unchanged: a crash mid-drain leaves exactly
	// the states recovery already handles.
	AsyncCommitBack bool
	// UnfusedCommitTail restores the pre-fusion per-phase commit tail
	// (separate apply / flush / truncate / unlock doorbell rounds).
	// Baseline knob for the commitpipe experiment only; not exposed in
	// the public Config.
	UnfusedCommitTail bool
	// VerbTimeout, when positive, bounds how long any coordinator verb
	// may be held up by a stalled or slow link before failing with
	// rdma.ErrVerbTimeout. A timed-out verb had no memory effect; the
	// transaction aborts (or retries its cleanup) and the coordinator
	// reports the unresponsive memory node to the failure detector
	// instead of hanging — gray failures degrade to abort-and-retry,
	// never a wedged coordinator. Zero keeps the pre-deadline behaviour
	// (verbs wait forever).
	VerbTimeout time.Duration
	// Metrics, when set, receives per-phase latency samples (recorded
	// on the coordinator's virtual clock) and the typed abort counts.
	// Nil disables recording at the cost of a nil check (the registry's
	// methods are nil-safe, so the engine never guards calls itself).
	Metrics *metrics.Registry
}

// Transaction outcome errors.
var (
	// ErrAborted is returned by Commit (wrapped, with a reason) when the
	// transaction aborted; the abort has already been performed.
	ErrAborted = errors.New("core: transaction aborted")
	// ErrNotFound is returned by Read/Write/Delete for absent keys.
	ErrNotFound = errors.New("core: key not found")
	// ErrExists is returned by Insert for present keys.
	ErrExists = errors.New("core: key already exists")
	// ErrTableFull is returned by Insert when the probe chain has no
	// free slot.
	ErrTableFull = errors.New("core: table full (probe limit reached)")
	// ErrTxDone is returned when operating on a committed/aborted
	// transaction.
	ErrTxDone = errors.New("core: transaction already finished")
	// ErrPaused is returned while the compute node is paused for
	// memory-failure reconfiguration.
	ErrPaused = errors.New("core: compute node paused for reconfiguration")
	// ErrPartitionMigrating is the cause attached to reconfig aborts: the
	// partition the transaction touched is mid-migration, its placement
	// about to change. The client retries on the refreshed epoch (the
	// standard OCC retry path with capped backoff).
	ErrPartitionMigrating = errors.New("core: partition migrating")
	// ErrIndeterminate is returned when a transaction's cleanup
	// (rollback, log truncation, lock release) could not complete within
	// the retry budget because of link faults. The outcome is decided —
	// check Tx.AckedCommit / Tx.AckedAbort — but memory-side state
	// (locks, log records) may linger until recovery or lock stealing
	// cleans it up. Crucially the engine NEVER acknowledges an abort it
	// could not perform, and never rolls back an acknowledged commit
	// (Cor3).
	ErrIndeterminate = errors.New("core: transaction cleanup incomplete")
)

// abortInfo is what an abort site knows about its reason, unformatted: a
// constant format whose %d verbs consume a prefix of (table, key, a, b) —
// a lock owner or ticket, an old and a new version — or, with detail
// set, the prefix of detail's text (detail stays out of the Unwrap
// chain). The text is built only when someone asks for it (Error,
// AbortReason): a lock-conflict retry loop formats nothing.
type abortInfo struct {
	format string
	table  kvlayout.TableID
	key    kvlayout.Key
	a, b   uint64
	detail error
}

// onObject is the abortInfo of a message about one object.
func onObject(format string, ref objRef, a, b uint64) abortInfo {
	return abortInfo{format: format, table: ref.table, key: ref.key, a: a, b: b}
}

// lockedBy is the abortInfo of a conflict with a lock word's owner.
func lockedBy(format string, ref objRef, word uint64) abortInfo {
	return onObject(format, ref, uint64(kvlayout.LockOwner(word)), 0)
}

// abortError carries the typed abort kind and reason (and optional
// cause) while matching ErrAborted.
type abortError struct {
	kind metrics.AbortReason
	abortInfo
	cause error
}

// reason builds the human-readable reason.
func (e *abortError) reason() string {
	if e.detail != nil {
		return e.format + e.detail.Error()
	}
	args := [...]any{e.table, e.key, e.a, e.b}
	return fmt.Sprintf(e.format, args[:strings.Count(e.format, "%d")]...)
}

func (e *abortError) Error() string        { return "core: transaction aborted: " + e.reason() }
func (e *abortError) Is(target error) bool { return target == ErrAborted }
func (e *abortError) Unwrap() error        { return e.cause }

// AbortKindOf extracts the typed abort reason from an error returned by
// Commit/Read/Write et al. ok is false when the error is not an abort.
func AbortKindOf(err error) (kind metrics.AbortReason, ok bool) {
	var ae *abortError
	if errors.As(err, &ae) {
		return ae.kind, true
	}
	return 0, false
}

// indeterminateError matches ErrIndeterminate while preserving the
// underlying verb failure for errors.Is/As.
type indeterminateError struct {
	cause error
}

func (e *indeterminateError) Error() string {
	return "core: transaction cleanup incomplete: " + e.cause.Error()
}
func (e *indeterminateError) Is(target error) bool { return target == ErrIndeterminate }
func (e *indeterminateError) Unwrap() error        { return e.cause }

// DebugQueueWait, when set by tests, observes every poll iteration of a
// queued lock wait before its lane read fires: (waiting coordinator,
// key, 1-based poll count). Sequential drivers (bench, chaos) use it to
// script the holder's release — or crash — at a chosen spin, which is
// what makes queued hand-off reachable from a single-goroutine
// deterministic run.
var DebugQueueWait func(coord kvlayout.CoordID, key kvlayout.Key, spin int)

// AbortReason extracts the reason from an ErrAborted error, or "".
func AbortReason(err error) string {
	var ae *abortError
	if errors.As(err, &ae) {
		return ae.reason()
	}
	return ""
}
