package core

// Queued lock acquisition (DESIGN.md §14). A key the contention
// tracker has promoted is acquired through its partition's FAA ticket
// lane instead of CAS-spinning: the waiter FAAs the lane tail to take
// a ticket, polls head + lock word in one doorbell until its turn
// arrives with the word free, and only then retries the ordinary lock
// CAS in stageLockedWrite's loop. The lane is strictly advisory — the
// CAS on the lock word remains the only way to take ownership, so PILL
// stealing and recovery are untouched, and every queue failure mode
// degrades to the plain CAS race instead of blocking correctness.
//
// Debt discipline: every FAA on a tail owes the lane exactly one head
// advance. It is paid by the queued owner's release (unlockAll), by
// the waiter itself when it abandons the wait (payLaneDebt via
// stageLockedWrite's defer), or — for participants that crashed with
// the debt outstanding — lazily by whoever notices the stall: a
// polling waiter, a stealer, or recovery. Advances may race and
// over-shoot; TurnReached treats an over-advanced head as "go", so
// over-payment only widens the CAS race and never wedges a waiter.

import (
	"pandora/internal/hotlock"
	"pandora/internal/kvlayout"
	"pandora/internal/metrics"
	"pandora/internal/rdma"
)

// queueState tracks one staged write's interaction with its ticket
// lane across stageLockedWrite's retry loop.
type queueState struct {
	lane   hotlock.Lane
	ticket uint64
	joined bool
	// transferred marks that the queued acquisition succeeded and the
	// write entry now owns the head-advance debt (paid in unlockAll).
	transferred bool
	spins       int
}

// queueJoin takes a ticket on the lane serving ref. One FAA; the old
// tail value is the ticket.
func (tx *Tx) queueJoin(q *queueState, primary rdma.NodeID, ref objRef) error {
	q.lane = hotlock.LaneFor(primary, ref.partition, ref.table, ref.key)
	old, err := tx.co.ep.FAA(q.lane.Tail, 1)
	if err != nil {
		return tx.verbFailure(err)
	}
	q.joined = true
	q.ticket = old
	return nil
}

// queueSpec arms a speculative ticket FAA riding the same doorbell as
// the lock CAS (DESIGN.md §16): a promoted key's waiter takes its lane
// ticket in the doorbell that discovers the conflict, folding the
// separate queueJoin round into the failed CAS. The op is armed in
// place; the caller absorbs the result via queueAbsorb.
func (tx *Tx) queueSpec(op *rdma.Op, primary rdma.NodeID, ref objRef) hotlock.Lane {
	lane := hotlock.LaneFor(primary, ref.partition, ref.table, ref.key)
	*op = rdma.Op{Kind: rdma.OpFAA, Addr: lane.Tail, Delta: 1}
	return lane
}

// queueAbsorb converts a speculative ticket FAA's result into queue
// state. Must run before any error handling for the doorbell it rode:
// once the FAA executed, the lane is owed a head advance whichever path
// the caller takes (the lane-debt defer settles unconverted tickets). A
// faulted FAA took no ticket and absorbs to nothing.
func (tx *Tx) queueAbsorb(q *queueState, lane hotlock.Lane, op *rdma.Op) {
	if op.Err != nil {
		return
	}
	q.lane = lane
	q.joined = true
	q.ticket = op.Old
}

// queueWait polls the lane until the waiter's turn has arrived and the
// lock word reads free (or stray — the caller's CAS/steal handles
// ownership). Returns nil when a lock CAS retry is worthwhile. The
// poll budget bounds the wait so queued transactions keep the abort
// path's deadlock freedom: exhausting it aborts as a lock conflict.
//
// A lane whose head lags the ticket while the word is free means a
// participant ahead of us crashed (or was starved) with its debt
// unpaid; the waiter repairs one step per poll with a guarded CAS.
func (tx *Tx) queueWait(q *queueState, wordAddr rdma.Addr, ref objRef) error {
	b := rdma.GetBatch()
	defer b.Put()
	buf := b.Bytes(16)
	headOp := b.Add()
	wordOp := b.Add()
	for {
		if q.spins >= hotlock.WaitBudget {
			tx.cn.opts.Metrics.CountLock(metrics.LockQueueTimeout)
			return tx.abort(metrics.AbortLockConflict,
				onObject("queued wait for %d/%d timed out at ticket %d", ref, kvlayout.TicketSeq(q.ticket), 0))
		}
		q.spins++
		if DebugQueueWait != nil {
			DebugQueueWait(tx.co.id, ref.key, q.spins)
		}
		if err := tx.stallWait(); err != nil {
			return err
		}
		// Head and lock word in one doorbell: same queue pair, so the
		// word read observes memory no older than the head read.
		*headOp = rdma.Op{Kind: rdma.OpRead, Addr: q.lane.Head, Buf: buf[:8]}
		*wordOp = rdma.Op{Kind: rdma.OpRead, Addr: wordAddr, Buf: buf[8:16]}
		if err := tx.co.ep.Do(b.Ops()...); err != nil {
			return tx.verbFailure(err)
		}
		head := kvlayout.Uint64(buf[:8])
		word := kvlayout.Uint64(buf[8:16])
		free := word == 0 || tx.strayLock(word)
		if !free {
			continue
		}
		if hotlock.TurnReached(head, q.ticket) {
			return nil
		}
		// Free word but our turn never came: unpaid debt ahead of us.
		// Guarded single-step repair; a lost race means someone else
		// advanced it, which serves just as well.
		if _, swapped, err := tx.co.ep.CAS(q.lane.Head, head, head+1); err != nil {
			return tx.verbFailure(err)
		} else if swapped {
			tx.cn.opts.Metrics.CountLock(metrics.LockTicketRepair)
		}
	}
}

// payLaneDebt advances the lane head for a ticket this transaction
// took but will not convert into a queued acquisition (the wait was
// abandoned by abort, error return, or a slot re-resolve). Best-effort
// through the alive-gated endpoint: a crashed waiter pays nothing —
// exactly the debt queueWait's repair, stealers, and recovery settle.
func (tx *Tx) payLaneDebt(lane hotlock.Lane) {
	_, _ = tx.co.ep.FAA(lane.Head, 1)
}

// repairStolenLane settles the lane debt a dead lock holder may have
// left after a successful PILL steal of ref's lock word. The dead
// holder's acquisition mode is unknowable from the word alone, so the
// repair is guarded by lane state: advance only when tickets are
// outstanding. A holder that never queued can make this over-advance
// for live waiters behind it — the safe direction (their turn arrives
// early and they fall back to the CAS race). Errors are ignored: the
// lane is advisory and the next waiter repairs what this pass missed.
func (tx *Tx) repairStolenLane(primary rdma.NodeID, ref objRef) {
	lane := hotlock.LaneFor(primary, ref.partition, ref.table, ref.key)
	b := rdma.GetBatch()
	defer b.Put()
	buf := b.Bytes(16)
	b.AddRead(lane.Tail, buf[:8])
	b.AddRead(lane.Head, buf[8:16])
	if err := tx.co.ep.Do(b.Ops()...); err != nil {
		return
	}
	tail := kvlayout.Uint64(buf[:8])
	head := kvlayout.Uint64(buf[8:16])
	if kvlayout.TicketSeq(tail) <= kvlayout.TicketSeq(head) {
		return
	}
	if _, swapped, err := tx.co.ep.CAS(lane.Head, head, head+1); err == nil && swapped {
		tx.cn.opts.Metrics.CountLock(metrics.LockTicketRepair)
	}
}
