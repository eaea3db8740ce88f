// Package metrics is the always-on observability layer: lock-free
// per-phase latency histograms, per-destination fabric verb counters,
// and a typed abort-reason taxonomy. Every recording path is designed
// for the protocol hot paths — sharded atomics, no locks, and zero
// heap allocations once warm (AllocsPerRun-guarded, like the read
// cache's hit path).
//
// Latencies are recorded in virtual time (rdma.VClock deltas), so under
// a seeded run with a modelled fabric the histograms are a pure
// function of the seed: two runs emit byte-identical snapshots. The
// determinism analyzer enforces this — metrics is a virtual-time
// package (DESIGN.md §12).
//
// Every Registry method is nil-receiver-safe: an un-wired construction
// path costs one nil check and records nothing, which is what makes the
// layer "always on" without a build tag or a config knob.
package metrics

import (
	"sync/atomic"
	"time"
)

// Phase names one timed protocol phase. The histogram set is keyed by
// phase; see DESIGN.md §12 for the boundary of each.
type Phase uint8

const (
	// PhaseRead is the fabric portion of a read-set miss: the
	// doorbell-batched slot read(s), lock-free snapshot included.
	PhaseRead Phase = iota
	// PhaseLock is one write-set lock acquisition: the lock CAS + slot
	// READ doorbell, PILL steal attempts included.
	PhaseLock
	// PhaseValidate is the commit-time read-set re-validation sweep.
	PhaseValidate
	// PhaseLog is the redo-log write (pandora log object, FORD-style
	// replicated log, or lock-intent records, per protocol).
	PhaseLog
	// PhaseCommitBack is everything after the commit point: in-place
	// apply, persistence flush, log truncation and unlock.
	PhaseCommitBack
	// PhaseResolve is key-to-slot resolution: address-cache probe plus
	// any fabric window scans on a miss.
	PhaseResolve
	// PhaseRecoveryStep is one step of the §3.2.2 recovery sequence
	// (log read, per-transaction roll, truncation, intent release).
	PhaseRecoveryStep
	// PhaseMigrate is one partition's reconfiguration migration: the
	// fuzzy copy, the drain barrier, the quiescent delta copy and the
	// intermediate ring install (DESIGN.md §13).
	PhaseMigrate
	// PhaseAckToUnlocked is the post-ack tail latency of an
	// asynchronously drained commit: from the client acknowledgement to
	// the moment its truncate+release doorbell completed (DESIGN.md §16).
	PhaseAckToUnlocked

	// NumPhases bounds the phase enum.
	NumPhases
)

// phaseNames index by Phase; these are the JSON keys of the snapshot.
var phaseNames = [NumPhases]string{
	"read", "lock", "validate", "log", "commit-back", "resolve", "recovery-step",
	"migrate", "ack-to-unlocked",
}

func (p Phase) String() string {
	if p >= NumPhases {
		return "invalid"
	}
	return phaseNames[p]
}

// AbortReason classifies why a transaction aborted. It replaces the
// ad-hoc reason strings as the machine-readable taxonomy; the string
// stays attached to the error for humans.
type AbortReason uint8

const (
	// AbortValidationVersion: validation found a read-set version moved
	// by a concurrent committer (the read came from the fabric).
	AbortValidationVersion AbortReason = iota
	// AbortLockConflict: a slot lock was held by a live coordinator —
	// at read time, at lock time, or observed by validation.
	AbortLockConflict
	// AbortSteal: an insert claim or lock raced a concurrent claimant
	// (in-flight claim conflicts, free-slot contention, slot churn).
	AbortSteal
	// AbortFault: a fabric fault decided the abort — no live replica,
	// verb timeout/partition, every log server unreachable.
	AbortFault
	// AbortCacheStale: validation rejected a read served by the
	// validated read cache (the cache's designed failure mode —
	// DESIGN.md §11: a stale hit costs an abort, never a wrong commit).
	AbortCacheStale
	// AbortOther: user-requested aborts and resource exhaustion (log
	// area full) — nothing the contention taxonomy explains.
	AbortOther
	// AbortReconfig: the transaction touched a partition whose placement
	// is mid-migration (marked migrating, or cut over since the
	// transaction began). The client retries on the refreshed epoch —
	// stale placement costs an abort, never a wrong commit.
	AbortReconfig

	// NumAbortReasons bounds the reason enum.
	NumAbortReasons
)

var abortNames = [NumAbortReasons]string{
	"validation-version", "lock-conflict", "steal", "fault", "cache-stale", "other",
	"reconfig",
}

func (a AbortReason) String() string {
	if a >= NumAbortReasons {
		return "invalid"
	}
	return abortNames[a]
}

// Verb names one fabric verb kind. The values deliberately mirror
// rdma.OpKind (READ, WRITE, CAS, FAA, FLUSH in that order) so the
// engine converts with a cast; rdma's tests pin the correspondence.
type Verb uint8

const (
	VerbRead Verb = iota
	VerbWrite
	VerbCAS
	VerbFAA
	VerbFlush

	// NumVerbs bounds the verb enum.
	NumVerbs
)

var verbNames = [NumVerbs]string{"READ", "WRITE", "CAS", "FAA", "FLUSH"}

func (v Verb) String() string {
	if v >= NumVerbs {
		return "invalid"
	}
	return verbNames[v]
}

// LockEvent names one countable event of the lock path: the CAS-retry
// ladder (previously invisible inside the backoff loop) and the
// adaptive hot-lock queue's lifecycle (DESIGN.md §14).
type LockEvent uint8

const (
	// LockRetry: a lock CAS lost to a live (non-stray) holder and the
	// acquisition will be retried or aborted — one count per failed CAS.
	LockRetry LockEvent = iota
	// LockQueuedAcquire: a lock was taken through the ticket queue (the
	// key was promoted and the acquirer joined a lane).
	LockQueuedAcquire
	// LockPromotion: the contention tracker promoted a key to queued
	// mode after a conflict streak.
	LockPromotion
	// LockDemotion: a promoted key fell back to plain CAS locking after
	// a quiet streak.
	LockDemotion
	// LockTicketRepair: a lane head left behind by a crashed participant
	// was advanced by a waiter, a stealer, or recovery.
	LockTicketRepair
	// LockQueueTimeout: a queued waiter exhausted its poll budget and
	// aborted with a lock conflict.
	LockQueueTimeout
	// LockDrainWait: a lock conflict against an acked-but-undrained
	// commit was resolved by flushing the holder's drain pipeline and
	// retrying, instead of burning an abort (DESIGN.md §16).
	LockDrainWait

	// NumLockEvents bounds the lock-event enum.
	NumLockEvents
)

var lockEventNames = [NumLockEvents]string{
	"lock-retry", "queued-acquire", "promotion", "demotion", "ticket-repair",
	"queue-timeout", "drain-wait",
}

func (e LockEvent) String() string {
	if e >= NumLockEvents {
		return "invalid"
	}
	return lockEventNames[e]
}

// DrainEvent names one countable event of the post-ack drain pipeline
// (DESIGN.md §16).
type DrainEvent uint8

const (
	// DrainEnqueued: an acknowledged commit handed its truncate+release
	// tail to the coordinator's drain pipeline.
	DrainEnqueued DrainEvent = iota
	// DrainFlushed: a drained tail completed (log truncated, locks
	// released).
	DrainFlushed
	// DrainFailure: a drained tail was abandoned (crash, revocation, or
	// exhausted cleanup retries); per Cor3 nothing rolls back — the
	// leftover state is recovery's to clean.
	DrainFailure

	// NumDrainEvents bounds the drain-event enum.
	NumDrainEvents
)

var drainEventNames = [NumDrainEvents]string{"enqueued", "flushed", "failure"}

func (e DrainEvent) String() string {
	if e >= NumDrainEvents {
		return "invalid"
	}
	return drainEventNames[e]
}

// VerbOutcome classifies a verb completion for counting purposes.
type VerbOutcome uint8

const (
	// VerbOK: the verb completed.
	VerbOK VerbOutcome = iota
	// VerbDeadlineExpired: the verb's deadline elapsed (stalled or slow
	// link past the endpoint timeout).
	VerbDeadlineExpired
	// VerbFaulted: any other completion error — partition, node down,
	// rights revoked, crash, missing region.
	VerbFaulted
)

// Registry bundles every metric family for one cluster. The zero value
// is ready to use; a nil *Registry is a valid no-op sink.
type Registry struct {
	phases [NumPhases]Histogram
	aborts [NumAbortReasons]atomic.Uint64
	locks  [NumLockEvents]atomic.Uint64
	verbs  verbTable

	drains     [NumDrainEvents]atomic.Uint64
	drainDepth atomic.Int64  // current drain-queue depth gauge
	drainMax   atomic.Uint64 // high-water drain-queue depth
	// commitRounds counts post-validation critical-path doorbell rounds
	// (the commitpipe experiment's rounds-per-commit numerator).
	commitRounds atomic.Uint64
}

// New creates an empty registry.
func New() *Registry { return &Registry{} }

// RecordPhase adds one latency sample to phase p's histogram. The shard
// key spreads concurrent recorders (coordinator id, destination node)
// across counter shards; any value is valid. Nil-safe, zero-alloc.
func (r *Registry) RecordPhase(p Phase, shard uint64, d time.Duration) {
	if r == nil || p >= NumPhases {
		return
	}
	r.phases[p].record(shard, d)
}

// CountAbort counts one abort under the given reason. Nil-safe.
func (r *Registry) CountAbort(reason AbortReason) {
	if r == nil {
		return
	}
	if reason >= NumAbortReasons {
		reason = AbortOther
	}
	r.aborts[reason].Add(1)
}

// CountLock counts one lock-path event. Nil-safe, zero-alloc.
func (r *Registry) CountLock(ev LockEvent) {
	if r == nil || ev >= NumLockEvents {
		return
	}
	r.locks[ev].Add(1)
}

// CountDrain counts one drain-pipeline event. Nil-safe, zero-alloc.
func (r *Registry) CountDrain(ev DrainEvent) {
	if r == nil || ev >= NumDrainEvents {
		return
	}
	r.drains[ev].Add(1)
}

// RecordDrainDepth records the drain queue's depth after an enqueue or
// flush: the current-depth gauge follows it, the high-water mark only
// rises. Nil-safe, zero-alloc.
func (r *Registry) RecordDrainDepth(depth int64) {
	if r == nil {
		return
	}
	r.drainDepth.Store(depth)
	if depth <= 0 {
		return
	}
	d := uint64(depth)
	for {
		cur := r.drainMax.Load()
		if d <= cur || r.drainMax.CompareAndSwap(cur, d) {
			return
		}
	}
}

// CountCommitRound counts one post-validation critical-path doorbell
// round of a committing transaction. Nil-safe, zero-alloc.
func (r *Registry) CountCommitRound() {
	if r == nil {
		return
	}
	r.commitRounds.Add(1)
}

// CountVerb counts one issued verb against destination node, plus its
// retransmission flag and outcome. Warm path (node already seen) is
// lock-free and allocation-free; the first verb to a new node takes a
// mutex and copies the registration table. Nil-safe.
func (r *Registry) CountVerb(node uint16, v Verb, retried bool, outcome VerbOutcome) {
	r.CountVerbFrom(0, node, v, retried, outcome)
}

// CountVerbFrom is CountVerb on the issuer's lane: any value, constant
// per issuer, so that issuers on different cores count in different
// cache lines.
func (r *Registry) CountVerbFrom(lane uint32, node uint16, v Verb, retried bool, outcome VerbOutcome) {
	if r == nil || v >= NumVerbs {
		return
	}
	c := &r.verbs.block(node).lanes[lane%verbLanes].counters[v]
	c.issued.Add(1)
	if retried {
		c.retried.Add(1)
	}
	switch outcome {
	case VerbDeadlineExpired:
		c.expired.Add(1)
	case VerbFaulted:
		c.faulted.Add(1)
	}
}
