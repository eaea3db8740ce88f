package core

// The six seeded bugs of Table 1 (Options.Bugs), each as what it does to
// the fixed protocol's plan: a reordered or replaced lock step, a stage
// rewritten after it was built, a lock taken late. seedBugs is the only
// place the toggles are read; the builders in tx.go, lock.go, commit.go
// and logio.go contain the fixed protocol alone.

import (
	"pandora/internal/kvlayout"
	"pandora/internal/metrics"
	"pandora/internal/rdma"
)

// seedBugs returns p as the node's seeded bugs have it. The C2 bugs
// exist in FORD's exec-time logging only.
func seedBugs(p plan, opts Options) plan {
	bugs, ford := opts.Bugs, opts.Protocol == ProtocolFORD
	if ford && bugs.MissingInsertLog {
		p.lock[len(p.lock)-1] = skipInsertLog // FORD's log is the last step
	}
	if ford && bugs.LogWithoutLock {
		p.lock = []lockStep{(*Tx).lockIntent, logThenLock, (*Tx).acquire}
	}
	if bugs.RelaxedLocks {
		// The entry is read, not locked, at execution — and not logged
		// after: FORD's step logs what acquire locked. The CAS lands after
		// validation.
		if ford && !bugs.LogWithoutLock {
			p.lock = p.lock[:2]
		}
		p.lock[len(p.lock)-1] = relaxedLock
		p.lateLocks = lockLate
	}
	if bugs.CovertLocks || bugs.ComplicitAbort || ford && bugs.LostDecision {
		p.rewrite = func(tx *Tx, st stage) stage {
			switch {
			case st.kind == stageValidate && bugs.CovertLocks:
				// Validation compares versions only: the lock word is never
				// fetched, so it reads as free.
				for _, op := range st.b.Ops() {
					op.Addr.Offset += 8
					op.Buf = op.Buf[8:]
				}
			case st.kind == stageAbortTail:
				if ford && bugs.LostDecision {
					// The logs of aborted transactions stay behind: rebuild
					// the tail now that tailStage has forgotten the log.
					st.b.Reset()
					st = tx.tailStage(stageAbortTail, st.b)
				}
				if bugs.ComplicitAbort {
					// The abort releases every write-set lock, including
					// those of entries whose CAS lost.
					zero := st.b.Bytes(8)
					for _, w := range tx.writes {
						if !w.locked && len(w.replicas) > 0 {
							st.b.AddWrite(tx.cn.tableAddr(w.replicas[0], w.ref, kvlayout.SlotLockOff), zero)
						}
					}
				}
			}
			return st
		}
	}
	return p
}

// skipInsertLog: inserts are omitted from the undo log. The stage still
// runs, empty, so its crash point is offered.
func skipInsertLog(tx *Tx, ent *writeEnt) error {
	if ent.kind != kvlayout.WriteInsert {
		return tx.fordLogObject(ent)
	}
	if _, err := tx.run(stage{kind: stageFordLog}); err != nil {
		return tx.verbFailure(err)
	}
	return nil
}

// logThenLock: the undo log is written before the lock CAS is issued,
// from a slot image read without the lock — the logged pre-image may be
// stale. If the transaction crashes (or aborts) in between, recovery
// sees a log for a lock that was never grabbed.
func logThenLock(tx *Tx, ent *writeEnt) error {
	if err := tx.pinReplicas(ent); err != nil {
		return err
	}
	tab := tx.cn.schema[ent.ref.table]
	buf := tx.sc.bytes(int(tab.SlotSize()))
	if err := tx.co.ep.Read(tx.cn.tableAddr(ent.replicas[0], ent.ref, 0), buf); err == nil {
		slot := tab.DecodeSlot(buf)
		ent.oldVersion, ent.newVersion, ent.oldValue = slot.Version, slot.Version+1, slot.Value
	}
	return tx.fordLogObject(ent)
}

// relaxedLock: the lock CAS is posted but its completion is not awaited
// before validation begins. The step reads the slot and captures undo
// state; lockLate lands the CAS.
func relaxedLock(tx *Tx, ent *writeEnt) error {
	if err := tx.pinReplicas(ent); err != nil {
		return err
	}
	buf := tx.sc.bytes(int(tx.cn.schema[ent.ref.table].SlotSize()))
	if err := tx.fetchSlots([]objRef{ent.ref}, buf); err != nil {
		return err
	}
	slot, ref, err := tx.judgeSlot(ent.ref, buf)
	if err != nil {
		return err
	}
	ent.ref = ref
	tx.captureUndo(ent, slot)
	return nil
}

// lockLate lands relaxedLock's CASes: validation's reads were issued
// first, the lock completions are only checked now.
func lockLate(tx *Tx) error {
	lost := false
	b := rdma.GetBatch()
	defer b.Put()
	for _, w := range tx.writes {
		if w.locked {
			continue
		}
		addr := tx.cn.tableAddr(w.replicas[0], w.ref, kvlayout.SlotLockOff)
		old, swapped, err := tx.co.ep.CAS(addr, 0, tx.lockWord())
		if err == nil && !w.hold(swapped) && tx.strayLock(old) {
			_, err = tx.steal(w, old, b, tx.sc.bytes(int(tx.cn.schema[w.ref.table].SlotSize())))
		}
		if err != nil {
			return tx.verbFailure(err)
		}
		lost = lost || !w.locked
	}
	if lost {
		return tx.abort(metrics.AbortLockConflict, abortInfo{format: "validation failed"})
	}
	return nil
}
