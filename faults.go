package pandora

import (
	"fmt"
	"time"

	"pandora/internal/core"
	"pandora/internal/rdma"
)

// CrashCompute fail-stops compute node i without telling the FD; with
// LiveFD the FD's sweep finds it silent and declares it failed after the
// timeout, otherwise call FailCompute for deterministic injection.
func (c *Cluster) CrashCompute(i int) { c.node(i).Crash() }

// FailCompute crashes compute node i and deterministically drives
// detection + recovery, returning the recovery statistics.
func (c *Cluster) FailCompute(i int) (RecoveryStats, error) {
	cn := c.node(i)
	cn.Crash()
	if _, ok := c.fd.MarkFailed(cn.ID()); !ok {
		// Already detected (e.g. by a live FD); wait for its recovery
		// record.
		return c.waitRecovery(cn.ID(), time.Second)
	}
	if c.cfg.NoAutoRecover {
		// Caller drives the manager directly.
		return RecoveryStats{}, nil
	}
	return c.lastRecovery(cn.ID())
}

// FailComputeSoft declares compute node i failed WITHOUT crashing it —
// a false positive of the failure detector. Recovery must fence the
// zombie (Cor1) before touching state.
func (c *Cluster) FailComputeSoft(i int) (RecoveryStats, error) {
	cn := c.node(i)
	if _, ok := c.fd.MarkFailed(cn.ID()); !ok {
		return RecoveryStats{}, fmt.Errorf("pandora: node %d already failed", i)
	}
	return c.lastRecovery(cn.ID())
}

// ReRecoverCompute re-runs the full recovery pass for compute node i's
// most recent failure event and returns the second pass's statistics.
// Recovery is idempotent (§3.2.3): when the first pass completed, the
// re-run must find nothing to do — no logged transactions, no
// roll-forward/roll-back, no stray locks — and must leave the store
// byte-identical. Test harnesses (litmus recovery-idempotency
// invariant, conformance suite) call this after FailCompute to assert
// exactly that. Once RecycleCoordinatorIDs has freed the event's ids it
// errors: the pass would announce them failed again, and the FD may have
// handed them to live coordinators.
func (c *Cluster) ReRecoverCompute(i int) (RecoveryStats, error) {
	id := c.node(i).ID()
	c.mu.Lock()
	ev, ok := c.lastEv[id]
	c.mu.Unlock()
	if !ok {
		return RecoveryStats{}, fmt.Errorf("pandora: no failure event recorded for node %d", i)
	}
	failed := c.fd.FailedIDs()
	for _, co := range ev.Coords {
		if !failed.Has(co) {
			return RecoveryStats{}, fmt.Errorf("pandora: node %d's coordinator %d was recycled after its failure", i, co)
		}
	}
	return c.mgr.RecoverCompute(ev)
}

// lastRecovery returns the recorded stats for a node's last recovery.
func (c *Cluster) lastRecovery(id rdma.NodeID) (RecoveryStats, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.lastRec[id]
	if !ok {
		return RecoveryStats{}, fmt.Errorf("pandora: no recovery recorded for node %d", id)
	}
	return st, nil
}

// waitRecovery blocks until a recovery record for id lands (live-FD
// mode), woken by the recWake broadcast that onFailure fires when it
// stores the record — no polling.
func (c *Cluster) waitRecovery(id rdma.NodeID, timeout time.Duration) (RecoveryStats, error) {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		c.mu.Lock()
		st, ok := c.lastRec[id]
		wake := c.recWake
		c.mu.Unlock()
		if ok {
			return st, nil
		}
		select {
		case <-wake:
			// a recovery record landed; re-check whether it is ours
		case <-deadline.C:
			return RecoveryStats{}, fmt.Errorf("pandora: recovery of node %d not observed within %v", id, timeout)
		}
	}
}

// LastRecovery returns the stats of compute node i's most recent
// recovery.
func (c *Cluster) LastRecovery(i int) (RecoveryStats, error) {
	return c.lastRecovery(c.node(i).ID())
}

// RestartCompute brings a compute node declared failed back as a fresh
// process: its RDMA rights are restored, the FD assigns coordinator-ids
// no live or unrecycled failed coordinator holds (§3.1.2), and the node
// rejoins with the current view — placement and stray-lock announcement.
// This is the "failed resources are reused" scenario of §6.4 (Figure 8,
// blue line). A node that crashed but is not yet declared failed is
// refused: nothing would report its old coordinator-ids failed, and the
// locks they hold would stay held.
func (c *Cluster) RestartCompute(i int) error {
	old := c.node(i)
	if !c.fd.IsFailed(old.ID()) {
		return fmt.Errorf("pandora: compute node %d is not declared failed", i)
	}
	// Terminate the previous incarnation before reusing its resources. A
	// SOFT-failed node is a live zombie fenced only by link revocation —
	// restoring the links below would otherwise un-fence it (its
	// incarnation gate only closes on a crash) and let a declared-failed
	// coordinator write again, racing PILL steals of its stray locks.
	old.Crash()
	// A recovery pass of the old incarnation truncates its log region after
	// notifying the survivors; a new incarnation logging into that region
	// before the pass ended would see its records invalidated. Wait out any
	// pass and hold off the next, as a migration step does (the manager's
	// lock order: the operation lock first, then its view lock).
	c.mgr.LockOps()
	defer c.mgr.UnlockOps()
	nodeID := old.ID()
	for _, m := range c.memList() {
		m.RestoreLink(nodeID)
	}
	c.fab.SetCrashed(nodeID, false)

	ids, err := c.fd.RegisterCompute(nodeID, c.cfg.CoordinatorsPerNode)
	if err != nil {
		return err
	}
	// SetPeer installs the current view: dead memory servers, partitions
	// mid-cutover, every failed coordinator-id and the lock words of
	// logged transactions a pass cut before its act left to settle.
	cn := core.NewComputeNode(c.fab, nodeID, c.mgr.View(), c.schema, ids, c.engineOptions())
	cn.SetSuspectReporter(func(n rdma.NodeID) { c.fd.Suspect(n) })
	c.mgr.SetPeer(cn)
	c.mu.Lock()
	c.nodes[i] = cn
	c.mu.Unlock()
	return nil
}

// CrashMemory fail-stops memory node i (index into the memory servers).
func (c *Cluster) CrashMemory(i int) { c.mem(i).Crash() }

// FailMemory crashes memory node i and deterministically drives
// detection + the memory-failure recovery (primary promotion).
func (c *Cluster) FailMemory(i int) error {
	srv := c.mem(i)
	srv.Crash()
	if _, ok := c.fd.MarkFailed(srv.ID()); !ok {
		return fmt.Errorf("pandora: memory node %d already failed", i)
	}
	return nil
}

// FailMemoryID crashes the memory server with the given fabric node id
// and deterministically drives detection + recovery — the id-addressed
// variant reconfiguration chaos hooks use, since a migration StepEvent
// names its source and destination by node id, not cluster index.
func (c *Cluster) FailMemoryID(id rdma.NodeID) error {
	srv := c.memByID(id)
	if srv == nil {
		return fmt.Errorf("pandora: no memory server with id %d", id)
	}
	srv.Crash()
	if _, ok := c.fd.MarkFailed(id); !ok {
		return fmt.Errorf("pandora: memory node %d already failed", id)
	}
	return nil
}

// MemoryIndex returns the cluster index of the memory server with the
// given fabric node id, or -1 if no attached server has that id — the
// inverse lookup chaos runners need to Rereplicate a node a migration
// StepEvent named by id.
func (c *Cluster) MemoryIndex(id rdma.NodeID) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, m := range c.mems {
		if m.ID() == id {
			return i
		}
	}
	return -1
}

// PowerFailMemory power-fails memory node i (requires Config.
// Persistence): the node goes down and its memory reverts to the
// durable NVM image — unacknowledged (un-flushed) writes are lost —
// then detection + primary promotion run as for any memory failure.
func (c *Cluster) PowerFailMemory(i int) error {
	srv := c.mem(i)
	c.fab.PowerFail(srv.ID())
	if _, ok := c.fd.MarkFailed(srv.ID()); !ok {
		return fmt.Errorf("pandora: memory node %d already failed", i)
	}
	return nil
}

// RestartMemory brings a power-failed memory server back, serving its
// durable image, and restores it in every compute node's placement view
// (it resumes as primary for its partitions). With f+1 > 1 replicas the
// restarted node's data may lag writes acknowledged during the outage —
// re-replication resynchronises it; with a single replica (pure NVM
// durability) the durable image is the authoritative state. Like
// RestartCompute, it errors on misuse: an out-of-range index or a node
// that never failed.
func (c *Cluster) RestartMemory(i int) error {
	c.mu.Lock()
	if i < 0 || i >= len(c.mems) {
		c.mu.Unlock()
		return fmt.Errorf("pandora: no memory node %d", i)
	}
	srv := c.mems[i]
	c.mu.Unlock()
	if !srv.Down() && !c.fd.IsFailed(srv.ID()) {
		return fmt.Errorf("pandora: memory node %d is not failed", i)
	}
	srv.Restart()
	c.mgr.MemoryRestarted(srv.ID())
	// Re-arm monitoring: the FD resumes liveness tracking with a clean
	// suspicion slate, so the restarted node can be failed again later.
	c.fd.RegisterMemory(srv.ID())
	return nil
}

// PartitionLink drops the fabric path from compute node i to memory
// node j: every verb on the link fails fast with ErrLinkPartitioned
// until HealLink. The nodes themselves stay healthy — this is a pure
// network fault.
func (c *Cluster) PartitionLink(compute, mem int) {
	c.fab.PartitionLink(c.node(compute).ID(), c.mem(mem).ID())
}

// StallLink makes verbs from compute node i to memory node j hang —
// neither completing nor failing — until the link heals, one endpoint
// dies, or the verb's deadline (Config.VerbTimeout) fires. This is the
// gray-failure case: the link looks alive but makes no progress.
func (c *Cluster) StallLink(compute, mem int) {
	c.fab.StallLink(c.node(compute).ID(), c.mem(mem).ID())
}

// SlowLink degrades the link from compute node i to memory node j:
// every verb's modelled latency is multiplied by factor and extended by
// delay. Verbs whose degraded latency exceeds Config.VerbTimeout fail
// with ErrVerbTimeout.
func (c *Cluster) SlowLink(compute, mem int, factor float64, delay time.Duration) {
	c.fab.SlowLink(c.node(compute).ID(), c.mem(mem).ID(), factor, delay)
}

// HealLink removes any fault rule on the compute-i → memory-j link and
// clears the FD suspicion count accumulated against the memory node, so
// a healed link does not leave it one report short of escalation.
func (c *Cluster) HealLink(compute, mem int) {
	memID := c.mem(mem).ID()
	c.fab.HealLink(c.node(compute).ID(), memID)
	c.fd.ClearSuspicions(memID)
}

// HealAllLinks removes every link fault rule in the fabric and clears
// all memory-node suspicion counts.
func (c *Cluster) HealAllLinks() {
	c.fab.HealAllLinks()
	for _, m := range c.memList() {
		c.fd.ClearSuspicions(m.ID())
	}
}

// LinkStats returns the fabric's link-fault counters.
func (c *Cluster) LinkStats() rdma.LinkStats { return c.fab.LinkStats() }

// RecycleCoordinatorIDs runs the background stray-lock scan that makes
// failed coordinator-ids reusable (§3.1.2) and frees at the FD the ids
// it recycled, returning the number of locks released.
func (c *Cluster) RecycleCoordinatorIDs() int {
	ids, released := c.mgr.RecycleStrayLocks()
	c.fd.FreeCoordIDs(ids)
	return released
}
