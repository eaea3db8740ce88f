package core

// The lock step (§3.1.5 step 1, DESIGN.md §16): eager locking of one
// write-set object as stages. The rule is "register, then post" — the
// write entry joins tx.writes before its first verb, and what the lock
// doorbell's completions say it took (the lock, a lane ticket) is
// recorded on the entry before anything else looks at them. There is no
// moment at which the transaction holds something its write set does not
// know about, so every failure path is plain verbFailure / abort: the
// abort tail releases what the entries say, and dropEntry serves the
// returns that do not abort.
//
// "Post, then settle": most writes only post their lock doorbell at
// Write. The transaction waits for every posted doorbell once, at Commit
// before validation or at an abort, and settle then classifies each in
// write-set order — so a transaction's lock doorbells share one round.

import (
	"slices"
	"time"

	"pandora/internal/hotlock"
	"pandora/internal/kvlayout"
	"pandora/internal/metrics"
	"pandora/internal/rdma"
)

// lockStep is one step of a write's lock plan.
type lockStep func(tx *Tx, ent *writeEnt) error

// plan is how a compute node runs the protocol: the fixed protocol's
// steps, unless seeded bugs (bugs.go) rewrote them at NewComputeNode.
type plan struct {
	// lock is the lock step of one write, in order.
	lock []lockStep
	// rewrite, unless nil, edits each stage a transaction built before it
	// is run.
	rewrite func(tx *Tx, st stage) stage
	// lateLocks, unless nil, runs at commit after validation and the
	// decision stage. The fixed protocol holds every lock by then.
	lateLocks func(tx *Tx) error
}

// fixedPlan is the protocol without bugs: (lock-intent log;) lock, slot
// READ and undo capture; FORD additionally writes the per-object undo
// log here, before the commit decision — the Lost Decision hazard.
func fixedPlan(p Protocol) plan {
	lock := []lockStep{(*Tx).lockIntent, (*Tx).acquire}
	if p == ProtocolFORD {
		lock = append(lock, (*Tx).fordLogObject)
	}
	return plan{lock: lock}
}

// lockWrite is the eager-locking step of execution for one write-set
// object: it registers the entry, with the stray lock word already seen
// on its slot (0 if none), and runs the node's lock plan over it.
func (tx *Tx) lockWrite(ref objRef, kind kvlayout.WriteKind, newValue []byte, stray uint64) error {
	ent := tx.register(tx.sc.wr.next(), ref, kind, newValue, len(tx.writes))
	ent.stray = stray
	for _, step := range tx.cn.plan.lock {
		if err := step(tx, ent); err != nil {
			return err
		}
	}
	return nil
}

// register (re)initialises ent — unlocked, no ticket — and inserts it
// into the write set at index at: the end for a new write, its old place
// for one that is locked again at its re-resolved slot.
func (tx *Tx) register(ent *writeEnt, ref objRef, kind kvlayout.WriteKind, newValue []byte, at int) *writeEnt {
	*ent = writeEnt{ref: ref, kind: kind, wasInsert: kind == kvlayout.WriteInsert, newValue: newValue}
	tx.writes = slices.Insert(tx.writes, at, ent)
	return ent
}

// pinReplicas snapshots ent's replica set, primary first, from the node's
// current placement view: what the lock step's verbs, and later the
// apply and the release, address.
func (tx *Tx) pinReplicas(ent *writeEnt) error {
	reps, err := tx.cn.replicasFor(ent.ref.partition)
	if err != nil {
		return tx.placementAbort(err)
	}
	ent.replicas = reps
	return nil
}

// hold records whether a lock CAS gave ent its lock.
func (ent *writeEnt) hold(swapped bool) bool {
	ent.locked = swapped
	return swapped
}

// dropEntry takes ent, the entry being locked, back out of the write set
// on a path that does not abort — the key turned out absent or present,
// an insert's slot was contended, the slot moved under the lock — and
// returns ret. A settling entry need not be the last, so ent is removed
// by identity. Its lock is released and its ticket paid first. A failed
// release aborts instead: the entry stays registered, so the abort tail
// re-posts the release under the cleanup discipline (a lock left with a
// LIVE owner is invisible to PILL stealing and to recovery alike), and
// since the slot holds someone else's state the tail may hand over the
// lock word only, never an insert tombstone.
func (tx *Tx) dropEntry(ent *writeEnt, ret error) error {
	if ent.locked {
		var zero [8]byte
		if err := tx.co.ep.Write(tx.cn.tableAddr(ent.replicas[0], ent.ref, kvlayout.SlotLockOff), zero[:]); err != nil {
			ent.wasInsert = false
			return tx.verbFailure(err)
		}
	}
	tx.payTicket(ent)
	i := slices.Index(tx.writes, ent)
	tx.writes = slices.Delete(tx.writes, i, i+1)
	return ret
}

// lockOutcome is what one lock doorbell's completions amount to.
type lockOutcome uint8

const (
	lockAcquired lockOutcome = iota // the CAS swapped: the entry holds the lock
	lockStray                       // held by a failed coordinator: steal it (PILL)
	lockConflict                    // held by a running coordinator
	lockRetry                       // a steal lost its race: nobody to wait for
	lockFault                       // a verb failed
)

// postLock rings ent's lock doorbell — lock CAS, slot READ into buf and,
// for a key already promoted to queued acquisition, the speculative
// lane-tail FAA (DESIGN.md §14): a failed CAS then already holds its
// ticket and goes straight to the lane wait. One doorbell: the CAS is
// ordered before the READ on the same queue pair, so the READ observes
// the post-CAS slot; but the ops admit through the link rules
// independently, so a fault between them can fail the READ after the CAS
// took the lock. The entry therefore records what each op took before
// anything looks at the verdict. With wait the doorbell runs as a stage
// and its verdict is returned; without, it is only posted (Coordinator.
// post), and lockOutcome reads it after the wait that covers it.
func (tx *Tx) postLock(ent *writeEnt, b *rdma.OpBatch, buf []byte, wait bool) error {
	cn, ref, primary := tx.cn, ent.ref, ent.replicas[0]
	b.Reset()
	lockOp := b.AddCAS(cn.tableAddr(primary, ref, kvlayout.SlotLockOff), 0, tx.lockWord())
	b.AddRead(cn.tableAddr(primary, ref, 0), buf)
	var lane hotlock.Lane
	var specOp *rdma.Op
	if hot := tx.co.hot; hot != nil && !ent.ticket.taken && ent.kind != kvlayout.WriteInsert &&
		!tx.mayStall() && !tx.holdsLocks() && hot.Queued(ref.table, ref.key) {
		lane = hotlock.LaneFor(primary, ref.partition, ref.table, ref.key)
		specOp = b.AddFAA(lane.Tail, 1)
	}
	st := stage{kind: stageLock, b: b, cut: b.Len()}
	var err error
	if wait {
		_, err = tx.run(st)
	} else {
		tx.co.post(tx.seeded(st))
	}
	if specOp != nil && specOp.Err == nil {
		ent.takeTicket(lane, specOp.Old)
	}
	ent.hold(lockOp.Swapped)
	return err
}

// lockOutcome classifies ent's lock doorbell in b, once waited for: err
// is the first completion the stage did not tolerate. old is the word
// the CAS found.
func (tx *Tx) lockOutcome(ent *writeEnt, b *rdma.OpBatch, err error) (lockOutcome, uint64, error) {
	old := b.Op(0).Old
	switch {
	case ent.locked && err == nil:
		return lockAcquired, 0, nil
	case err != nil:
		return lockFault, 0, err
	case tx.strayLock(old):
		return lockStray, old, nil
	default:
		return lockConflict, old, nil
	}
}

// defers reports whether ent's lock doorbell may be posted now and
// settled at Commit. These settle at once instead: an insert (a
// contended slot re-probes), a write whose read saw a stray word still
// stray (the steal is one synchronous doorbell), a key hotlock has
// queued (the ticket path), the stalling path, FORD (its exec-time log
// needs the pre-image) and any run with a crash injector installed (the
// stepped executor leaves nothing outstanding).
func (tx *Tx) defers(ent *writeEnt) bool {
	cn, hot := tx.cn, tx.co.hot
	switch {
	case ent.kind == kvlayout.WriteInsert, tx.strayWord(ent.stray) != 0,
		cn.opts.StallOnConflict, cn.opts.Protocol == ProtocolFORD, cn.injector.Load() != nil:
		return false
	}
	return hot == nil || !hot.Queued(ent.ref.table, ent.ref.key)
}

// steal takes over the stray lock word old (PILL, §3.1.2) with one
// doorbell: the steal CAS, the slot READ that refreshes buf under the
// stolen lock and, where the node runs ticket lanes, the READs of the
// key's lane tail and head — all on the primary's queue pair, so RC order
// puts the CAS first. The postLock rule applies: the ops admit
// independently, so the entry records what the CAS took before the
// stage's verdict is looked at. A lost race — another stealer, or
// recovery released the word — leaves nobody to wait for: what the READs
// brought back is ignored and the caller retries the ordinary lock.
func (tx *Tx) steal(ent *writeEnt, old uint64, b *rdma.OpBatch, buf []byte) (lockOutcome, error) {
	cn, ref, primary := tx.cn, ent.ref, ent.replicas[0]
	b.Reset()
	casOp := b.AddCAS(cn.tableAddr(primary, ref, kvlayout.SlotLockOff), old, tx.lockWord())
	b.AddRead(cn.tableAddr(primary, ref, 0), buf)
	var lane hotlock.Lane
	var ends []byte // the lane's tail, then its head
	if tx.co.hot != nil {
		lane = hotlock.LaneFor(primary, ref.partition, ref.table, ref.key)
		ends = b.Bytes(16)
		b.AddRead(lane.Tail, ends[:8])
		b.AddRead(lane.Head, ends[8:])
	}
	_, err := tx.run(stage{kind: stageSteal, b: b, cut: b.Len()})
	if ent.hold(casOp.Swapped) {
		// The previous owner failed and recovery may have rewritten the
		// slot since we cached it: drop the cached image, whatever became
		// of the READs behind the CAS.
		tx.invalidateCached(ref.table, ref.key)
	}
	switch {
	case err != nil:
		return lockFault, err
	case !ent.locked:
		return lockRetry, nil
	}
	if ends != nil {
		// The dead holder may have died owing its lane a head advance;
		// settle it so the queue behind the stolen lock never wedges.
		tx.repairStolenLane(lane, kvlayout.Uint64(ends[:8]), kvlayout.Uint64(ends[8:]))
	}
	return lockAcquired, nil
}

// onConflict is the policy for a lock CAS that lost to the running
// coordinator owning word old: nil means wait is over, retry the CAS;
// anything else ends the lock step. spins is the step's queued-wait poll
// count so far.
func (tx *Tx) onConflict(ent *writeEnt, old uint64, spins *int) error {
	ref := ent.ref
	tx.cn.opts.Metrics.CountLock(metrics.LockRetry)
	// The holder may be an acked commit whose release is still queued on
	// a same-node drain: flush it and retry instead of aborting (§16).
	if tx.drainWait(old) {
		return nil
	}
	if ent.kind == kvlayout.WriteInsert {
		return tx.dropEntry(ent, errSlotContended)
	}
	if tx.mayStall() {
		// The stalling path already waits fairly enough and never gives
		// up; queueing applies to the abort-retry regime only.
		return tx.stallWait()
	}
	if hot := tx.co.hot; hot != nil {
		if hot.Queued(ref.table, ref.key) && !tx.holdsLocks() {
			// Promoted key and we hold nothing (the queue keeps the
			// stalling path's no-hold-and-wait rule): wait for our lane
			// turn, then retry the CAS.
			if !ent.ticket.taken {
				if err := tx.queueJoin(ent); err != nil {
					return err
				}
			}
			return tx.queueWait(ent, spins)
		}
		if hot.OnConflict(ref.table, ref.key) {
			tx.cn.opts.Metrics.CountLock(metrics.LockPromotion)
		}
	}
	return tx.abort(metrics.AbortLockConflict, lockedBy("lock of %d/%d held by coordinator %d", ref, old))
}

// acquire takes ent's lock and captures its undo state. A write that
// defers only posts its lock doorbell: the entry keeps the batch, and
// settleLocks settles it after the wait at Commit. The others post and
// settle now.
func (tx *Tx) acquire(ent *writeEnt) error {
	b := rdma.GetBatch()
	buf := tx.sc.bytes(int(tx.cn.schema[ent.ref.table].SlotSize())) // not the batch's: the undo pre-image aliases it
	if !tx.defers(ent) {
		return tx.settle(ent, b, buf, tx.phaseClock(), false)
	}
	if err := tx.pinReplicas(ent); err != nil {
		b.Put()
		return err
	}
	ent.stray, ent.posted = 0, b
	tx.postLock(ent, b, buf, false) // nil: settle reads the completions, after the wait
	return nil
}

// settleLocks is the wait that covers every lock doorbell posted at
// Write, then settle over each posted entry in write-set order. A key
// that vanished from under its lock aborts the transaction: its Write
// has returned, so there is nobody left to tell that it is gone.
func (tx *Tx) settleLocks() error {
	start := tx.phaseClock()
	tx.co.ep.Wait()
	for i := 0; i < len(tx.writes); i++ {
		ent := tx.writes[i]
		b := ent.posted
		if b == nil {
			continue
		}
		ent.posted = nil
		// The slot image is what the doorbell's READ, op 1, brought back.
		if err := tx.settle(ent, b, b.Op(1).Buf, start, true); err != nil {
			if !tx.done {
				return tx.abort(metrics.AbortValidationVersion, onObject("lock: key %d/%d vanished from its slot", ent.ref, 0, 0))
			}
			return err
		}
	}
	return nil
}

// settle is the lock step's loop over ent: lock doorbell, PILL steal on a
// stray owner, the conflict policy on a live one, then the checks that
// the slot read under the lock is still the one the entry means, and for
// an insert the claim. posted says the first doorbell, in b, has been
// rung and waited for. An entry that arrives with a stray word its read
// or probe saw, still stray, posts the steal as its first doorbell: the
// lock CAS from 0 would only fail on that word. A steal that loses falls
// through to the ordinary lock doorbell. settle owns b.
func (tx *Tx) settle(ent *writeEnt, b *rdma.OpBatch, buf []byte, lockStart time.Duration, posted bool) error {
	defer b.Put()
	cn := tx.cn
	tab := cn.schema[ent.ref.table]
	conflicted, spins, moves := false, 0, 0
	var slot kvlayout.Slot
	for {
		var out lockOutcome
		var old uint64
		var err error
		if posted {
			posted = false
			out, old, err = tx.lockOutcome(ent, b, stageTable[stageLock].verdict(b.Ops()))
		} else {
			if err := tx.pinReplicas(ent); err != nil {
				return err
			}
			// A word the read or probe saw, if still stray, is stolen without
			// a lock CAS failing on it first; the hint serves one doorbell only.
			out, old = lockStray, tx.strayWord(ent.stray)
			ent.stray = 0
			if old == 0 {
				out, old, err = tx.lockOutcome(ent, b, tx.postLock(ent, b, buf, true))
			}
		}
		if out == lockStray {
			out, err = tx.steal(ent, old, b, buf)
		}
		switch out {
		case lockFault:
			return tx.verbFailure(err)
		case lockRetry:
			continue
		case lockConflict:
			conflicted = true
			if err := tx.onConflict(ent, old, &spins); err != nil {
				return err
			}
			continue
		}
		if _, err := tx.run(stage{kind: stageLocked}); err != nil {
			return tx.verbFailure(err)
		}
		ref := ent.ref
		slot = tab.DecodeSlot(buf)
		if ent.kind != kvlayout.WriteInsert {
			if slot.Present && slot.Key == ref.key {
				tx.cover(ent, slot.Version)
				break
			}
			// The key vanished between resolve and lock (deleted, or the
			// slot was reused for another key): drop the entry, re-resolve
			// and start over at the fresh location — which may sit in
			// another partition, hence another lane — in the entry's place
			// in the write set.
			at := slices.Index(tx.writes, ent)
			if err := tx.dropEntry(ent, nil); err != nil {
				return err
			}
			cn.dropRef(ref.table, ref.key)
			if moves++; moves > 8 {
				return tx.abort(metrics.AbortLockConflict, abortInfo{format: "lock: slot kept moving"})
			}
			newRef, found, err := tx.resolve(ref.table, ref.key)
			if err != nil {
				return tx.verbFailure(err)
			}
			if !found {
				return ErrNotFound
			}
			tx.register(ent, newRef, ent.kind, ent.newValue, at)
			spins = 0
			continue
		}
		// Under our lock, an insert's slot must still be claimable: empty,
		// a tombstone, or an abandoned claim for exactly our key (a
		// stray-insert takeover).
		switch kf := kvlayout.Uint64(buf[kvlayout.SlotKeyOff:]); kf {
		case 0, kvlayout.TombstoneKeyField, kvlayout.ClaimKeyField(ref.key):
		case kvlayout.KeyField(ref.key):
			return tx.dropEntry(ent, ErrExists) // the slot carries the committed key
		default:
			return tx.dropEntry(ent, errSlotContended)
		}
		break
	}
	tx.captureUndo(ent, slot)
	claim := stage{kind: stageClaim}
	if ent.kind == kvlayout.WriteInsert {
		// Publish the claim: probers of the same key now conflict with
		// this insert instead of picking a second slot, and readers keep
		// treating the slot as absent until commit.
		b.Reset()
		field := b.Bytes(8)
		kvlayout.PutUint64(field, kvlayout.ClaimKeyField(ent.ref.key))
		b.AddWrite(cn.tableAddr(ent.replicas[0], ent.ref, kvlayout.SlotKeyOff), field)
		claim.b, claim.cut = b, 1
	}
	if _, err := tx.run(claim); err != nil {
		return tx.verbFailure(err)
	}
	tx.recordPhase(metrics.PhaseLock, lockStart)

	if ent.ticket.taken && conflicted {
		cn.opts.Metrics.CountLock(metrics.LockQueuedAcquire)
	}
	if hot := tx.co.hot; hot != nil && !conflicted {
		// Uncontended first-CAS acquisition (the speculative ticket may
		// still have joined the lane): feed the quiet streak that demotes
		// a cooled-down key back to plain CAS locking.
		if hot.OnAcquired(ent.ref.table, ent.ref.key) {
			cn.opts.Metrics.CountLock(metrics.LockDemotion)
		}
	}
	return nil
}

// cover marks the read-set entry that ent's lock now vouches for, if
// there is one: the same key read at the same slot, at the version the
// slot carries under the lock — held by CAS or stolen alike. The image was
// READ behind the lock CAS on one queue pair, so it is the slot as locked;
// only lock holders and the recovery of fenced coordinators write
// versions, and a stray word is announced only once its owner's log
// recovery is over, so from that READ until the release this transaction
// alone can move the version. That is more than validation's re-read
// proves, and validate skips the entry. A version that differs is left to
// validation, which finds it with every other stale key of the read set
// in one abort: aborting here instead repairs one key per retry, and
// under FORD would precede the exec-time log the Lost Decision litmus
// looks for.
func (tx *Tx) cover(ent *writeEnt, version uint64) {
	if r := tx.findRead(ent.ref.table, ent.ref.key); r != nil && r.ref == ent.ref && r.version == version {
		r.covered = true
	}
}

// captureUndo records the pre-image needed to roll the write back. The
// entry keeps slot.Value, which must be scratch memory.
func (tx *Tx) captureUndo(ent *writeEnt, slot kvlayout.Slot) {
	ent.oldVersion = slot.Version
	ent.newVersion = slot.Version + 1
	if ent.kind != kvlayout.WriteInsert {
		ent.oldValue = slot.Value
	}
}
