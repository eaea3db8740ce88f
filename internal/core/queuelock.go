package core

// Queued lock acquisition (DESIGN.md §14). A key the contention
// tracker has promoted is acquired through its partition's FAA ticket
// lane instead of CAS-spinning: the waiter FAAs the lane tail to take
// a ticket, polls head + lock word in one doorbell until its turn
// arrives with the word free, and only then retries the ordinary lock
// CAS in the lock step's loop (lock.go). The lane is strictly advisory —
// the CAS on the lock word remains the only way to take ownership, so
// PILL stealing and recovery are untouched, and every queue failure
// mode degrades to the plain CAS race instead of blocking correctness.
//
// Debt discipline: every FAA on a tail owes the lane exactly one head
// advance, and the write entry that took the ticket carries the debt
// (writeEnt.ticket). It is paid by the release tail together with the
// lock, by payTicket when the wait is abandoned, or — for participants
// that crashed with the debt outstanding — lazily by whoever notices the
// stall: a polling waiter, a stealer, or recovery. Advances may race and
// over-shoot; TurnReached treats an over-advanced head as "go", so
// over-payment only widens the CAS race and never wedges a waiter.

import (
	"pandora/internal/hotlock"
	"pandora/internal/kvlayout"
	"pandora/internal/metrics"
	"pandora/internal/rdma"
)

// laneTicket is a write entry's place in its key's ticket lane.
type laneTicket struct {
	lane hotlock.Lane
	seq  uint64
	// taken: the tail FAA executed, so the lane is owed one head advance
	// however the entry ends.
	taken bool
}

// takeTicket records the ticket a lane-tail FAA gave ent: old, the tail
// it found. From here on the entry owes the lane a head advance: the
// release tail pays it together with the lock (appendReleaseOps),
// dropEntry and the abort path pay an abandoned one (payTicket).
func (ent *writeEnt) takeTicket(lane hotlock.Lane, old uint64) {
	ent.ticket = laneTicket{lane: lane, seq: old, taken: true}
}

// queueJoin takes a ticket on the lane serving ent — for a conflict on a
// key whose lock doorbell carried no speculative FAA (DESIGN.md §16).
func (tx *Tx) queueJoin(ent *writeEnt) error {
	ref := ent.ref
	lane := hotlock.LaneFor(ent.replicas[0], ref.partition, ref.table, ref.key)
	old, err := tx.co.ep.FAA(lane.Tail, 1)
	if err != nil {
		return tx.verbFailure(err)
	}
	ent.takeTicket(lane, old)
	return nil
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
func (tx *Tx) queueWait(ent *writeEnt, spins *int) error {
	ref, q := ent.ref, &ent.ticket
	wordAddr := tx.cn.tableAddr(ent.replicas[0], ref, kvlayout.SlotLockOff)
	b := rdma.GetBatch()
	defer b.Put()
	buf := b.Bytes(16)
	headOp := b.Add()
	wordOp := b.Add()
	for {
		if *spins >= hotlock.WaitBudget {
			tx.cn.opts.Metrics.CountLock(metrics.LockQueueTimeout)
			return tx.abort(metrics.AbortLockConflict,
				onObject("queued wait for %d/%d timed out at ticket %d", ref, kvlayout.TicketSeq(q.seq), 0))
		}
		*spins++
		if DebugQueueWait != nil {
			DebugQueueWait(tx.co.id, ref.key, *spins)
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
		if hotlock.TurnReached(head, q.seq) {
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

// payTicket advances the lane head for a ticket ent took but did not
// turn into a held lock (the wait was abandoned by abort, error return,
// or a slot re-resolve) — the one FAA that pays an abandoned ticket.
// Best-effort through the alive-gated endpoint: a crashed waiter pays
// nothing — exactly the debt queueWait's repair, stealers, and recovery
// settle.
func (tx *Tx) payTicket(ent *writeEnt) {
	if ent.ticket.taken {
		_, _ = tx.co.ep.FAA(ent.ticket.lane.Head, 1)
	}
}

// repairStolenLane settles the lane debt a dead lock holder may have
// left, given lane's tail and head as the steal doorbell read them behind
// its CAS (lock.go). The dead holder's acquisition mode is unknowable
// from the word alone, so the repair is guarded by lane state: advance
// only when tickets are outstanding. A holder that never queued can make
// this over-advance for live waiters behind it — the safe direction
// (their turn arrives early and they fall back to the CAS race). Errors
// are ignored: the lane is advisory and the next waiter repairs what this
// pass missed.
func (tx *Tx) repairStolenLane(lane hotlock.Lane, tail, head uint64) {
	if kvlayout.TicketSeq(tail) <= kvlayout.TicketSeq(head) {
		return
	}
	if _, swapped, err := tx.co.ep.CAS(lane.Head, head, head+1); err == nil && swapped {
		tx.cn.opts.Metrics.CountLock(metrics.LockTicketRepair)
	}
}
