package core

import (
	"errors"
	"time"

	"pandora/internal/kvlayout"
	"pandora/internal/metrics"
	"pandora/internal/rdma"
)

// postAckFailure handles a failure after the client has been
// acknowledged: per Cor3 the commit must never be rolled back, so the
// transaction releases and surfaces the error with AckedCommit intact —
// callers observing an error must consult CommitAcked for the outcome.
// Lingering locks and log records are recovery's to clean (idempotent
// roll-forward, §3.2.3).
func (tx *Tx) postAckFailure(err error) error {
	tx.release()
	if errors.Is(err, rdma.ErrCrashed) {
		return rdma.ErrCrashed
	}
	if errors.Is(err, rdma.ErrRevoked) || errors.Is(err, ErrIndeterminate) {
		return err
	}
	return &indeterminateError{cause: err}
}

// Commit runs validation, the logging phase, and the commit path
// (§3.1.5). On any validation or execution conflict it runs the abort
// path instead and returns ErrAborted (wrapped with the reason).
func (tx *Tx) Commit() error {
	if err := tx.checkUsable(); err != nil {
		return err
	}
	if err := tx.settleLocks(); err != nil {
		return err
	}

	validateStart := tx.phaseClock()
	if err := tx.validate(); err != nil {
		return err
	}
	tx.recordPhase(metrics.PhaseValidate, validateStart)
	if _, err := tx.run(stage{kind: stageDecide}); err != nil {
		return tx.verbFailure(err)
	}
	if late := tx.cn.plan.lateLocks; late != nil {
		if err := late(tx); err != nil {
			return err
		}
	}

	// Read-only transactions are done at validation.
	if len(tx.writes) == 0 {
		tx.AckedCommit = true
		tx.release()
		return nil
	}

	// Logging phase (§3.1.4): executed only because validation
	// succeeded, so at recovery time a valid log implies the
	// transaction reached its commit decision point. FORD-mode already
	// logged during execution.
	if tx.cn.opts.Protocol != ProtocolFORD {
		logStart := tx.phaseClock()
		if err := tx.writePandoraLog(); err != nil {
			return err
		}
		tx.recordPhase(metrics.PhaseLog, logStart)
	}

	// Commit step 1: apply every write to every replica.
	commitBackStart := tx.phaseClock()
	if err := tx.applyWrites(); err != nil {
		return err
	}

	// Commit step 2: client acknowledgement.
	tx.AckedCommit = true
	return tx.afterAck(commitBackStart)
}

// afterAck is everything an acknowledged commit still does — commit step
// 3: truncate the log, then release the locks. Truncating first closes
// the window where a crash would leave a valid log for a fully unlocked
// transaction — later writers could then move versions and fool recovery
// into rolling this transaction back. A crash after truncation leaves
// only lock words, which PILL stealing cleans up against a fully
// consistent memory image. The client has been acknowledged, so nothing
// here may abort (Cor3): a failure leaves the tail to recovery by
// postAckFailure.
//
// The truncations are posted ahead of the releases, so where the two
// share a doorbell RC ordering runs them first on a shared node; across
// nodes the cleanup discipline lands everything before Commit returns,
// and a crash mid-doorbell leaves at worst a valid log plus released
// locks — recovery's rollback is version-checked and lock-CAS-guarded,
// so the state resolves exactly like the states the split tail can leave
// (DESIGN.md §16). The tail is a trailing stage: landed and tolerated,
// it is not waited for, and the coordinator's next doorbell pays its
// round.
func (tx *Tx) afterAck(commitBackStart time.Duration) error {
	if _, err := tx.run(stage{kind: stageAck}); err != nil {
		return tx.postAckFailure(err)
	}
	b := rdma.GetBatch()
	_, err := tx.run(tx.tailStage(stageTail, b))
	b.Put()
	if err != nil {
		return tx.postAckFailure(err)
	}
	tx.recordPhase(metrics.PhaseCommitBack, commitBackStart)
	tx.writeThroughCache()
	tx.release()
	return nil
}

// writeThroughCache installs the committed images in the validated read
// cache: the freshest possible content for every written key. Deletes
// drop the entry instead (a tombstoned slot must read as absent).
func (tx *Tx) writeThroughCache() {
	rc := tx.co.rcache
	if rc == nil {
		return
	}
	epoch := tx.cn.cacheEpoch.Load()
	for _, w := range tx.writes {
		if w.kind == kvlayout.WriteDelete {
			rc.Invalidate(w.ref.table, w.ref.key)
		} else {
			rc.Put(w.ref.table, w.ref.key, w.ref.partition, w.ref.slot, w.newVersion, w.newValue, epoch)
		}
	}
}

// validate re-reads, in a single parallel batch, the lock and version of
// every read-set object that no lock of this transaction covers (cover,
// lock.go) and checks that the transaction still observes a consistent
// snapshot (§3.1.5 step 2). Both words live in the slot header, so one
// 16-byte READ per object fetches both — the Covert Locks fix costs no
// extra round trip — and a read set covered entirely posts no doorbell.
func (tx *Tx) validate() error {
	// Insert duplicate check: a racing same-key insert on another slot
	// must be detected before commit (see ComputeNode.scanForKey).
	for _, w := range tx.writes {
		if w.kind != kvlayout.WriteInsert {
			continue
		}
		dup, err := tx.cn.scanForKey(tx.co.ep, w.ref.table, w.ref.key, w.ref.slot)
		if err != nil {
			if errors.Is(err, rdma.ErrCrashed) {
				return tx.crash()
			}
			return tx.abort(metrics.AbortFault, abortInfo{format: "insert validation: ", detail: err})
		}
		if dup {
			return tx.abort(metrics.AbortSteal, onObject("insert validation: key %d/%d claimed elsewhere", w.ref, 0, 0))
		}
	}
	reads := tx.sc.recheck[:0]
	for _, r := range tx.reads {
		if !r.covered {
			reads = append(reads, r)
		}
	}
	tx.sc.recheck = reads
	if len(reads) == 0 {
		return nil
	}
	b := rdma.GetBatch()
	defer b.Put()
	words := b.Bytes(16 * len(reads)) // per re-read entry: lock word, version
	for i, r := range reads {
		reps, err := tx.cn.replicasFor(r.ref.partition)
		if err != nil {
			return tx.placementAbort(err)
		}
		b.AddRead(tx.cn.tableAddr(reps[0], r.ref, kvlayout.SlotLockOff), words[16*i:16*i+16])
	}
	if _, err := tx.run(stage{kind: stageValidate, b: b, cut: b.Len()}); err != nil {
		return tx.verbFailure(err)
	}
	// First sweep the whole batch for stale versions: every provably
	// stale cache entry is dropped before the abort decision, so one
	// retry re-reads them all instead of aborting once per stale key. A
	// lock conflict deliberately does NOT invalidate: the version still
	// matches, so the entry is still current.
	stale := -1
	var staleVersion uint64
	for i, r := range reads {
		version := kvlayout.Uint64(words[16*i+8:])
		if version != r.version {
			tx.invalidateCached(r.ref.table, r.ref.key)
			if stale < 0 {
				stale, staleVersion = i, version
			}
		}
	}
	if stale >= 0 {
		r := reads[stale]
		// A stale cache hit and a concurrent committer racing a fabric
		// read are different stories: the former is the read cache's
		// designed failure mode, the latter genuine OCC contention.
		kind := metrics.AbortValidationVersion
		if r.fromCache {
			kind = metrics.AbortCacheStale
		}
		return tx.abort(kind, onObject("validation: version of %d/%d moved %d -> %d", r.ref, r.version, staleVersion))
	}
	for i, r := range reads {
		lock := kvlayout.Uint64(words[16*i:])
		if kvlayout.IsLocked(lock) && lock != tx.lockWord() && !tx.strayLock(lock) {
			return tx.abort(metrics.AbortLockConflict, lockedBy("validation: %d/%d locked by coordinator %d", r.ref, lock))
		}
	}
	// Every re-read version just re-proved current: re-stamp the
	// surviving cache entries into the present epoch (no value copy), so
	// an epoch bump does not evict entries validation keeps vouching for.
	// A covered entry needs none: the commit's write-through replaces it.
	if rc := tx.co.rcache; rc != nil {
		epoch := tx.cn.cacheEpoch.Load()
		for _, r := range reads {
			rc.Touch(r.ref.table, r.ref.key, r.version, epoch)
		}
	}
	return nil
}

// applyPayloadInto fills buf (tab.SlotSize()-kvlayout.SlotVersionOff
// bytes, already zeroed) with the commit image of a write: version, key
// field and value — everything after the lock word, written in one WRITE
// while the lock is still held.
func applyPayloadInto(tab kvlayout.Table, ent *writeEnt, buf []byte) {
	kvlayout.PutUint64(buf[0:], ent.newVersion)
	switch ent.kind {
	case kvlayout.WriteDelete:
		kvlayout.PutUint64(buf[8:], kvlayout.TombstoneKeyField)
	default:
		kvlayout.PutUint64(buf[8:], kvlayout.KeyField(ent.ref.key))
		copy(buf[16:], ent.newValue)
	}
}

// applyWrites applies every write-set object to every replica (commit
// step 1): the replica writes, and under Persist the durability flushes
// behind them — RC per-pair ordering makes each flush observe its write,
// so the two share a doorbell unless the stage is split (§16). Replicas
// that have failed are skipped — the transaction commits once all live
// replicas carry the update (§3.2.5).
func (tx *Tx) applyWrites() error {
	b := rdma.GetBatch()
	defer b.Put()
	for _, w := range tx.writes {
		tab := tx.cn.schema[w.ref.table]
		payload := b.Bytes(int(tab.SlotSize() - kvlayout.SlotVersionOff))
		applyPayloadInto(tab, w, payload)
		for _, n := range w.replicas {
			b.AddWrite(tx.cn.tableAddr(n, w.ref, kvlayout.SlotVersionOff), payload)
		}
		if w.kind == kvlayout.WriteInsert {
			tx.cn.cacheRef(w.ref)
		}
		if w.kind == kvlayout.WriteDelete {
			tx.cn.dropRef(w.ref.table, w.ref.key)
		}
	}
	st := stage{kind: stageApply, b: b, cut: b.Len()}
	if tx.cn.opts.Persist {
		b.ChainFlushes(0)
	}
	_, err := tx.run(st)
	// The batch was filled in tx.writes × w.replicas order; walk the same
	// shape to attribute per-op results to their entries.
	i := 0
	for _, w := range tx.writes {
		for r := range w.replicas {
			if b.Op(i).Err == nil {
				w.applied |= 1 << r
			}
			i++
		}
	}
	if err != nil {
		// A link-faulted (timed out / partitioned) WRITE never reached
		// memory, and the client must not be acked before the applied data
		// is durable: either way the ack has not happened yet, so this is a
		// clean pre-ack abort, and the abort path rolls back the replicas
		// that WERE applied.
		return tx.verbFailure(err)
	}
	return nil
}

// appendReleaseOps appends this transaction's lock-release ops to b:
// 8-byte WRITEs of zero over the primary lock words. In the abort path
// (abortPath=true) an insert's empty slot is tombstoned first so probe
// chains that grew past it while it was locked stay intact. An entry
// that is registered but not locked — the state of every entry before
// its lock CAS — has nothing to release. Every tail — commit or abort —
// is built by tailStage through here, so the release-side invariants
// live in one place.
func (tx *Tx) appendReleaseOps(b *rdma.OpBatch, abortPath bool) {
	zero := b.Bytes(8)
	tomb := b.Bytes(8)
	kvlayout.PutUint64(tomb, kvlayout.TombstoneKeyField)
	for _, w := range tx.writes {
		if !w.locked {
			continue
		}
		primary := w.replicas[0]
		if abortPath && w.wasInsert && w.applied == 0 {
			b.AddWrite(tx.cn.tableAddr(primary, w.ref, kvlayout.SlotKeyOff), tomb)
		}
		b.AddWrite(tx.cn.tableAddr(primary, w.ref, kvlayout.SlotLockOff), zero)
	}
}

// tailStage builds the truncate | release stage that ends a transaction
// into b: the log truncations (if a log may exist and is to go) ahead
// of the lock releases. kind is one of the three tail kinds.
func (tx *Tx) tailStage(kind stageKind, b *rdma.OpBatch) stage {
	if tx.logged {
		tx.appendTruncateOps(b)
		tx.logged = false
	}
	cut := b.Len()
	tx.appendReleaseOps(b, kind == stageAbortTail)
	return stage{kind: kind, b: b, cut: cut}
}

// abortInternal is the abort path (§3.1.5 step 3): roll back any
// applied writes using the locally held undo images, log the decision by
// truncating, then release the locks and — only once every cleanup step
// actually completed — acknowledge the abort. A cleanup failure
// (own crash, revocation, or exhausted link-fault retries) propagates
// WITHOUT setting AckedAbort: a fenced zombie must never tell the
// client "aborted" while recovery may roll the logged transaction
// forward (Cor3's dual).
func (tx *Tx) abortInternal(kind metrics.AbortReason, info abortInfo) error {
	// Roll back replicas the commit write already reached (possible when
	// an apply was cut short by a memory or link fault).
	b := rdma.GetBatch()
	defer b.Put()
	for _, w := range tx.writes {
		if w.applied == 0 {
			continue
		}
		payload := kvlayout.RollbackImage(tx.cn.schema[w.ref.table], logWriteOf(w)) // the pre-image
		for r, n := range w.replicas {
			if w.applied&(1<<r) != 0 {
				b.AddWrite(tx.cn.tableAddr(n, w.ref, kvlayout.SlotVersionOff), payload)
			}
		}
		w.applied = 0
		// The slot is being rewritten mid-abort; drop any cached image
		// (conservative — the restored pre-image would in fact still
		// validate, but the entry is cheap to refetch).
		tx.invalidateCached(w.ref.table, w.ref.key)
	}
	if b.Len() > 0 {
		// The restored pre-images must land before any lock releases: a
		// post-release locker reads the slot immediately. The rollback
		// stage therefore completes here, ahead of the tail below.
		if _, err := tx.run(stage{kind: stageRollback, b: b, cut: b.Len()}); err != nil {
			return err
		}
		b.Reset()
	}

	// Log the decision by truncating, then release the locks — the same
	// truncate | release stage as the commit tail.
	if st := tx.seeded(tx.tailStage(stageAbortTail, b)); b.Len() > 0 {
		if _, err := tx.co.run(st); err != nil {
			return err
		}
	}
	tx.AckedAbort = true
	return &abortError{kind: kind, abortInfo: info}
}

// Abort aborts the transaction explicitly.
func (tx *Tx) Abort() error {
	if err := tx.checkUsable(); err != nil {
		return err
	}
	//pandora:abortother user-requested abort: no protocol cause to classify
	err := tx.abort(metrics.AbortOther, abortInfo{format: "user abort"})
	if errors.Is(err, ErrAborted) {
		return nil
	}
	return err
}
