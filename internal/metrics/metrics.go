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

	// NumPhases bounds the phase enum.
	NumPhases
)

// phaseNames index by Phase; these are the JSON keys of the snapshot.
var phaseNames = [NumPhases]string{
	"read", "lock", "validate", "log", "commit-back", "resolve", "recovery-step",
	"migrate",
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
// lifecycle of the FAA ticket queue. The queue is deleted (DESIGN.md
// §14), so every event after LockRetry reads 0; the rows stay because
// the repository benchmark and the checked-in artifacts name all six.
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

	// NumLockEvents bounds the lock-event enum.
	NumLockEvents
)

var lockEventNames = [NumLockEvents]string{
	"lock-retry", "queued-acquire", "promotion", "demotion", "ticket-repair",
	"queue-timeout",
}

func (e LockEvent) String() string {
	if e >= NumLockEvents {
		return "invalid"
	}
	return lockEventNames[e]
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
	// commitRounds counts post-validation critical-path doorbell rounds
	// (the commitpipe experiment's rounds-per-commit numerator), sharded
	// like the phase histograms; the snapshot sums the shards.
	commitRounds [histShards]roundShard
}

// roundShard is one shard of the commit-round counter, padded to a cache
// line so that two shards never share one.
type roundShard struct {
	n atomic.Uint64
	_ [56]byte
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

// CountCommitRound counts one post-validation critical-path doorbell
// round of a committing transaction, on shard (the coordinator id, as
// for RecordPhase; any value is valid). Nil-safe, zero-alloc.
func (r *Registry) CountCommitRound(shard uint64) {
	if r == nil {
		return
	}
	r.commitRounds[shardOf(shard)].n.Add(1)
}

// commitRoundTotal sums the commit-round shards.
func (r *Registry) commitRoundTotal() uint64 {
	var n uint64
	for i := range r.commitRounds {
		n += r.commitRounds[i].n.Load()
	}
	return n
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
