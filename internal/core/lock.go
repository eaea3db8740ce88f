package core

// The lock step (§3.1.5 step 1, DESIGN.md §16): eager locking of one
// write-set object as stages. The rule is "register, then post" — the
// write entry joins tx.writes before its first verb, and whether the
// lock doorbell's CAS took the lock is recorded on the entry before
// anything else looks at the completions. There is no moment at which
// the transaction holds something its write set does not know about, so
// every failure path is plain verbFailure / abort: the abort tail
// releases what the entries say, and dropEntry serves the returns that
// do not abort.
//
// "Post, then settle": most writes only post their lock doorbell at
// Write. The transaction waits for every posted doorbell once, at Commit
// before validation or at an abort, and settle then classifies each in
// write-set order — so a transaction's lock doorbells share one round.

import (
	"slices"
	"time"

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

// register (re)initialises ent, unlocked, and inserts it into the write
// set at index at: the end for a new write, its old place for one that
// is locked again at its re-resolved slot.
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
// by identity. Its lock is released first. A failed release aborts
// instead: the entry stays registered, so the abort tail re-posts the
// release under the cleanup discipline (a lock left with a LIVE owner is
// invisible to PILL stealing and to recovery alike), and since the slot
// holds someone else's state the tail may hand over the lock word only,
// never an insert tombstone.
func (tx *Tx) dropEntry(ent *writeEnt, ret error) error {
	if ent.locked {
		var zero [8]byte
		if err := tx.co.ep.Write(tx.cn.tableAddr(ent.replicas[0], ent.ref, kvlayout.SlotLockOff), zero[:]); err != nil {
			ent.wasInsert = false
			return tx.verbFailure(err)
		}
	}
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
	lockRetry                       // a steal found the word free: nobody to wait for
	lockFault                       // a verb failed
)

// postLock rings ent's lock doorbell: the CAS of the lock word from
// expect — 0 for a plain lock, a stray word for a PILL steal (§3.1.2) —
// then the slot READ into buf. The CAS is ordered before the READ on the
// primary's queue pair, so the READ observes the post-CAS slot; but the
// ops admit through the link rules independently, so a fault between
// them can fail the READ after the CAS took the lock. The entry therefore
// records what the CAS took before anything looks at the verdict, and a
// steal that took the lock drops the cached image then too: the previous
// owner failed, and recovery may have rewritten the slot since it was
// cached, whatever became of the READ. With wait the doorbell runs as a
// stage and its verdict is returned; without, it is only posted
// (Coordinator.post), and lockOutcome reads it after the wait that
// covers it.
func (tx *Tx) postLock(ent *writeEnt, b *rdma.OpBatch, buf []byte, expect uint64, wait bool) error {
	cn, ref, primary := tx.cn, ent.ref, ent.replicas[0]
	b.Reset()
	lockOp := b.AddCAS(cn.tableAddr(primary, ref, kvlayout.SlotLockOff), expect, tx.lockWord())
	b.AddRead(cn.tableAddr(primary, ref, 0), buf)
	st := stage{kind: stageLock, b: b, cut: b.Len()}
	if expect != 0 {
		st.kind = stageSteal
	}
	var err error
	if wait {
		_, err = tx.run(st)
	} else {
		tx.co.post(tx.seeded(st))
	}
	if ent.hold(lockOp.Swapped) && expect != 0 {
		tx.invalidateCached(ref.table, ref.key)
	}
	return err
}

// lockOutcome classifies ent's lock doorbell in b, plain or steal, once
// waited for: err is the first completion the stage did not tolerate.
// old is the word the CAS found: 0 only for a steal whose word was
// released — nobody to wait for, so the plain lock is retried.
func (tx *Tx) lockOutcome(ent *writeEnt, b *rdma.OpBatch, err error) (lockOutcome, uint64, error) {
	old := b.Op(0).Old
	switch {
	case ent.locked && err == nil:
		return lockAcquired, 0, nil
	case err != nil:
		return lockFault, 0, err
	case old == 0:
		return lockRetry, 0, nil
	case tx.strayLock(old):
		return lockStray, old, nil
	default:
		return lockConflict, old, nil
	}
}

// defers reports whether ent's lock doorbell may be posted now and
// settled at Commit. These settle at once instead: an insert (a
// contended slot re-probes), the stalling path, FORD (its exec-time log
// needs the pre-image) and any run with a crash injector installed (the
// stepped executor leaves nothing outstanding).
func (tx *Tx) defers(ent *writeEnt) bool {
	cn := tx.cn
	return !(ent.kind == kvlayout.WriteInsert ||
		cn.opts.StallOnConflict || cn.opts.Protocol == ProtocolFORD || cn.injector.Load() != nil)
}

// onConflict is the policy for a lock CAS that lost to the running
// coordinator owning word old: nil means wait is over, retry the CAS;
// anything else ends the lock step.
func (tx *Tx) onConflict(ent *writeEnt, old uint64) error {
	tx.cn.opts.Metrics.CountLock(metrics.LockRetry)
	if ent.kind == kvlayout.WriteInsert {
		return tx.dropEntry(ent, errSlotContended)
	}
	if tx.mayStall() {
		return tx.stallWait()
	}
	return tx.abort(metrics.AbortLockConflict, lockedBy("lock of %d/%d held by coordinator %d", ent.ref, old))
}

// acquire takes ent's lock and captures its undo state. A write that
// defers only posts its lock doorbell — the steal of the stray word its
// read saw, if still stray, else the plain lock: the entry keeps the
// batch, and settleLocks settles it after the wait at Commit. The others
// post and settle now.
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
	steal := tx.strayWord(ent.stray)
	ent.stray, ent.posted = 0, b
	tx.postLock(ent, b, buf, steal, false) // nil: settle reads the completions, after the wait
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
// rung and waited for. Otherwise an entry that arrives with a stray word
// its read or probe saw, still stray, rings the steal as its first
// doorbell: the lock CAS from 0 would only fail on that word. settle
// owns b.
func (tx *Tx) settle(ent *writeEnt, b *rdma.OpBatch, buf []byte, lockStart time.Duration, posted bool) error {
	defer b.Put()
	cn := tx.cn
	tab := cn.schema[ent.ref.table]
	moves := 0
	var slot kvlayout.Slot
	// steal is the stray word the next doorbell steals, 0 for a plain
	// lock; the hint serves one doorbell only.
	steal := tx.strayWord(ent.stray)
	ent.stray = 0
	var out lockOutcome
	for {
		var old uint64
		var err error
		if posted {
			posted = false
			// The steal stage's spec is the lock stage's.
			out, old, err = tx.lockOutcome(ent, b, stageTable[stageLock].verdict(b.Ops()))
		} else {
			if out != lockStray { // a steal goes where the CAS that found its word went
				if err := tx.pinReplicas(ent); err != nil {
					return err
				}
			}
			out, old, err = tx.lockOutcome(ent, b, tx.postLock(ent, b, buf, steal, true))
		}
		steal = 0
		switch out {
		case lockFault:
			return tx.verbFailure(err)
		case lockStray:
			steal = old
			continue
		case lockRetry:
			continue
		case lockConflict:
			if err := tx.onConflict(ent, old); err != nil {
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
			// another partition — in the entry's place in the write set.
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
// looks for. A covered cache hit counts as a validated one (cache
// evidence, DESIGN.md §11).
func (tx *Tx) cover(ent *writeEnt, version uint64) {
	if r := tx.findRead(ent.ref.table, ent.ref.key); r != nil && r.ref == ent.ref && r.version == version {
		r.covered = true
		if rc := tx.co.rcache; rc != nil && r.fromCache {
			rc.Validated(r.ref.table, r.ref.key, version)
		}
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
