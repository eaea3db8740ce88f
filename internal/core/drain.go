package core

// Asynchronous commit-back (DESIGN.md §16). With Options.AsyncCommitBack
// set, Commit returns at the client acknowledgement and hands the
// post-ack tail — log truncation + lock release, already fused into one
// batch — to the coordinator's bounded drain queue. The tail carries no
// decision: the transaction is committed the moment it is acked, so a
// drained tail that fails is abandoned (counted as a drain failure) and
// its leftovers are recovery's, exactly as if the coordinator had
// crashed after the ack (Cor3: never roll anything back post-ack).
//
// Flush points are deterministic: the owning coordinator flushes at its
// next Begin (one commit in flight per coordinator, so the queue depth
// stays 0/1 in steady state), a same-node conflicter flushes the
// holder's queue via drainWait, and Pause/FlushDrains flush everything
// before the world is inspected or reconfigured. A crash abandons the
// queue: the stage executor fails fast with ErrCrashed and the
// memory-side state (valid log + locks, or truncated log + stray locks)
// is exactly what recovery already handles — the drain adds no new
// crash states.

import (
	"sync"
	"time"

	"pandora/internal/kvlayout"
	"pandora/internal/metrics"
	"pandora/internal/rdma"
)

// drainCap bounds the drain queue: an enqueue finding the queue full
// flushes it first, so at most drainCap acked tails are ever pending.
const drainCap = 4

// drainItem is one acked commit's pending tail: the truncate | release
// stage Commit would otherwise have run itself. It owns the stage's
// batch and Puts it when flushed.
type drainItem struct {
	st      stage
	ackedAt time.Duration
}

// drainQueue is a coordinator's pending post-ack tails. The mutex makes
// drainWait safe: a conflicting transaction on another goroutine may
// flush this coordinator's queue.
type drainQueue struct {
	mu    sync.Mutex
	items []drainItem
}

// enqueueDrain queues one acked tail, flushing first if the queue is
// full (the bound keeps abandoned work after a crash small and the
// ack-to-unlocked tail latency bounded).
func (co *Coordinator) enqueueDrain(it drainItem) {
	m := co.node.opts.Metrics
	co.drain.mu.Lock()
	if len(co.drain.items) >= drainCap {
		co.flushLocked()
	}
	co.drain.items = append(co.drain.items, it)
	depth := int64(len(co.drain.items))
	co.drain.mu.Unlock()
	m.CountDrain(metrics.DrainEnqueued)
	m.RecordDrainDepth(depth)
}

// flushDrain synchronously drains every queued tail and reports how
// many items it flushed (failures included — the caller only needs to
// know whether lock words may have moved).
func (co *Coordinator) flushDrain() int {
	co.drain.mu.Lock()
	defer co.drain.mu.Unlock()
	return co.flushLocked()
}

// flushLocked drains the queue in enqueue order. Caller holds drain.mu.
func (co *Coordinator) flushLocked() int {
	n := len(co.drain.items)
	for i, it := range co.drain.items {
		co.drain.items[i] = drainItem{}
		co.flushItem(it)
	}
	co.drain.items = co.drain.items[:0]
	if n > 0 {
		co.node.opts.Metrics.RecordDrainDepth(0)
	}
	return n
}

// flushItem runs one tail through the stage executor — the same one
// Commit uses, later — and settles its accounting. A failed tail is
// abandoned, never retried beyond the cleanup discipline and never
// rolled back: the commit was acked, so whatever the tail left behind
// (valid log + locks, or truncated log + stray locks) is recovery's.
func (co *Coordinator) flushItem(it drainItem) {
	defer it.st.b.Put()
	m := co.node.opts.Metrics
	if _, err := co.run(it.st); err != nil {
		m.CountDrain(metrics.DrainFailure)
		return
	}
	m.CountDrain(metrics.DrainFlushed)
	m.RecordPhase(metrics.PhaseAckToUnlocked, uint64(co.id), co.ep.Clock().Now()-it.ackedAt)
}

// handoffTail builds the acked transaction's truncate | release stage
// (never empty: every write entry of a commit holds its lock) and queues
// it on the coordinator's drain. The batch ownership moves to the drain
// item — it is Put when the item flushes, not here.
func (tx *Tx) handoffTail(ackedAt time.Duration) {
	st := tx.tailStage(stageDrainTail, rdma.GetBatch())
	tx.co.enqueueDrain(drainItem{st: st, ackedAt: ackedAt})
}

// drainWait resolves a lock conflict against an acked-but-undrained
// commit: if the conflicting word belongs to another coordinator on
// THIS node, flush that coordinator's drain and report true — the
// caller retries instead of aborting (the drained release has freed the
// word). Cross-node holders are invisible here and keep the ordinary
// abort-retry path; an empty drain reports false so a genuinely live
// holder cannot livelock the caller.
func (tx *Tx) drainWait(word uint64) bool {
	if !tx.cn.opts.AsyncCommitBack {
		return false
	}
	owner := kvlayout.LockOwner(word)
	for _, co := range tx.cn.coords {
		if co == tx.co || co.id != owner {
			continue
		}
		if co.flushDrain() > 0 {
			tx.cn.opts.Metrics.CountLock(metrics.LockDrainWait)
			return true
		}
		return false
	}
	return false
}
