// Package recovery implements Pandora's RDMA-based recovery protocol
// (§3.2): detection is delegated to the failure detector; this package
// performs active-link termination, log recovery (roll forward / roll
// back), and the stray-lock notification, in that strict order — plus
// the baseline's stop-the-world scan recovery, the traditional
// lock-logging recovery, memory-failure handling with deterministic
// primary promotion, re-replication, and the coordinator-id recycling
// scan.
//
// Every step is idempotent (§3.2.3): re-running a partially executed
// recovery is always safe, which is how failures of the recovery
// coordinator itself are tolerated.
package recovery

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"pandora/internal/core"
	"pandora/internal/fdetect"
	"pandora/internal/hotlock"
	"pandora/internal/kvlayout"
	"pandora/internal/memnode"
	"pandora/internal/metrics"
	"pandora/internal/place"
	"pandora/internal/rdma"
)

// ComputePeer is the recovery manager's view of a live compute node.
// *core.ComputeNode implements it.
type ComputePeer interface {
	ID() rdma.NodeID
	Crashed() bool
	NotifyStrayLocks([]kvlayout.CoordID)
	Install(*place.View)
	Pause()
	Resume()
}

// Config wires a Manager into a cluster.
type Config struct {
	Fabric *rdma.Fabric
	Ring   *place.Ring
	Schema []kvlayout.Table
	Mems   []*memnode.Server
	Peers  []ComputePeer
	// Protocol selects the log layout to recover from (Pandora/TradLog
	// read the f+1 designated log servers; FORD-mode logs are spread
	// over the object replicas, so every memory server is read).
	Protocol core.Protocol
	// CoordsPerNode is the number of coordinator log areas per compute
	// node's log region.
	CoordsPerNode int
	// RCNode is the fabric node the recovery coordinator issues verbs
	// from. It must already be attached to the fabric.
	RCNode rdma.NodeID
	// Metrics, when set, receives one PhaseRecoveryStep latency sample
	// per log-recovery sub-step (log read, per-tx resolution, truncation,
	// intent release), measured on the recovery's virtual clock.
	Metrics *metrics.Registry
}

// Stats reports what one compute recovery did. VTime is the modelled
// duration of the log-recovery step — the paper's "recovery latency"
// (Table 2).
type Stats struct {
	LoggedTxs       int
	RolledForward   int
	RolledBack      int
	StrayLocksFreed int // traditional scheme / scan recovery only
	LogBytesRead    int
	VTime           time.Duration
	WallTime        time.Duration
}

// Manager executes recoveries. One instance serves the whole cluster;
// RecoverCompute may be re-invoked for the same node (idempotent).
type Manager struct {
	cfg Config
	// view is the cluster's current placement (DESIGN.md §13). Every
	// transition is computed here, from this value, and installed on the
	// live peers before mu is released, so peers see transitions in one
	// order and a peer joining through SetPeer misses none.
	view *place.View

	// opMu serializes whole recovery operations against each other and
	// against migration steps of an online reconfiguration (which holds
	// it via LockOps around every journaled step): a partition copy must
	// never interleave with a re-replication or a membership swap.
	opMu sync.Mutex

	mu        sync.Mutex
	recovered map[rdma.NodeID]bool
}

// NewManager creates a recovery manager.
func NewManager(cfg Config) *Manager {
	return &Manager{cfg: cfg, view: place.NewView(cfg.Ring), recovered: make(map[rdma.NodeID]bool)}
}

// View returns the cluster's current placement view.
func (m *Manager) View() *place.View {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.view
}

// Ring returns the ring of the current placement view.
func (m *Manager) Ring() *place.Ring { return m.View().Ring() }

// Update is the one way placement changes: the cluster's view becomes
// step(view) — the manager first, so recovery decisions always see the
// placement transactions run against — and every live peer installs it.
// A step that changes ring membership needs the peers Paused by the
// caller (core.ComputeNode.Install).
func (m *Manager) Update(step func(*place.View) *place.View) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.view = step(m.view)
	for _, p := range m.cfg.Peers {
		if !p.Crashed() {
			p.Install(m.view)
		}
	}
}

// LockOps acquires the manager's operation lock. An online
// reconfiguration holds it around each journaled migration step so
// recovery operations (compute recovery, memory reconfiguration,
// re-replication) serialize with partition cutovers rather than tearing
// a half-copied partition.
func (m *Manager) LockOps() { m.opMu.Lock() }

// UnlockOps releases the operation lock.
func (m *Manager) UnlockOps() { m.opMu.Unlock() }

// mems snapshots the memory-server set under the lock.
func (m *Manager) mems() []*memnode.Server {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]*memnode.Server(nil), m.cfg.Mems...)
}

// Mems returns a snapshot of the attached memory servers — the
// migration coordinator replicates its journal to every one of them.
func (m *Manager) Mems() []*memnode.Server { return m.mems() }

// AddMem registers a memory server with the manager (an AddMemory
// reconfiguration attaching the new node before migration starts).
func (m *Manager) AddMem(s *memnode.Server) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, old := range m.cfg.Mems {
		if old.ID() == s.ID() {
			return
		}
	}
	m.cfg.Mems = append(m.cfg.Mems, s)
}

// RemoveMem detaches a memory server (a RemoveMemory reconfiguration
// decommissioning the node after its last partition migrated away).
func (m *Manager) RemoveMem(id rdma.NodeID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := m.cfg.Mems[:0]
	for _, s := range m.cfg.Mems {
		if s.ID() != id {
			out = append(out, s)
		}
	}
	m.cfg.Mems = out
}

// peers snapshots the peer list under the lock.
func (m *Manager) peers() []ComputePeer {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]ComputePeer{}, m.cfg.Peers...)
}

// SetPeer installs (or replaces, by node id) a compute peer — used when
// a crashed compute server is restarted with fresh coordinator-ids. The
// peer joins with the current view, whatever it was built from.
func (m *Manager) SetPeer(p ComputePeer) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p.Install(m.view)
	for i, old := range m.cfg.Peers {
		if old.ID() == p.ID() {
			m.cfg.Peers[i] = p
			delete(m.recovered, p.ID())
			return
		}
	}
	m.cfg.Peers = append(m.cfg.Peers, p)
}

// endpoint returns a fresh verb handle for the recovery coordinator,
// charging clk.
func (m *Manager) endpoint(clk *rdma.VClock) *rdma.Endpoint {
	return m.cfg.Fabric.Endpoint(m.cfg.RCNode).WithClock(clk)
}

// strayTx is one Logged-Stray-Tx reconstructed from the failed node's
// logs.
type strayTx struct {
	coord     kvlayout.CoordID
	coordSlot int
	txID      uint64
	writes    []kvlayout.LogWrite
}

// lockWordFor reconstructs the lock word a transaction used: the
// coordinator-id plus the low 32 bits of its transaction id. Must match
// core's Tx.lockWord.
func lockWordFor(coord kvlayout.CoordID, txID uint64) uint64 {
	return kvlayout.LockWord(coord, uint32(txID))
}

// DebugRollback, when set by tests, observes every rollback-image
// decision (coordinator, txID, write, observed version).
var DebugRollback func(coord kvlayout.CoordID, txID uint64, w kvlayout.LogWrite, observed uint64)

// RecoverCompute runs the full compute-failure recovery for ev
// (§3.2.2): (2) active-link termination, (3) log recovery, (4) stray-
// lock notification. Step (1), detection, already happened — ev came
// from the FD.
func (m *Manager) RecoverCompute(ev fdetect.Event) (Stats, error) {
	m.opMu.Lock()
	defer m.opMu.Unlock()
	start := time.Now() //pandora:wallclock Stats.WallTime is a host-side diagnostic; the protocol-visible latency is Stats.VTime
	var stats Stats

	// Step 2 — active-link termination (Cor1). Before touching any
	// transaction state, make sure the suspect — failed or falsely
	// suspected — can no longer reach memory.
	for _, ms := range m.mems() {
		ms.RevokeLink(ev.Node)
	}

	// Step 3 — log recovery (Cor2/Cor3), timed on the virtual clock;
	// this is the latency conflicting transactions observe.
	var clk rdma.VClock
	ep := m.endpoint(&clk)
	if err := m.logRecovery(ep, ev, &stats); err != nil {
		return stats, err
	}
	stats.VTime = clk.Now()

	// Step 4 — stray-lock notification (Cor4): strictly after log
	// recovery, because only NotLogged-Stray-Tx locks may be stolen and
	// log recovery has just released every logged transaction's locks.
	for _, p := range m.peers() {
		if p.ID() == ev.Node || p.Crashed() {
			continue
		}
		p.NotifyStrayLocks(ev.Coords)
	}

	m.mu.Lock()
	m.recovered[ev.Node] = true
	m.mu.Unlock()
	stats.WallTime = time.Since(start) //pandora:wallclock host-side diagnostic only
	return stats, nil
}

// logNodes returns the memory servers whose log regions must be read for
// the failed compute node.
func (m *Manager) logNodes(failed rdma.NodeID) []rdma.NodeID {
	if m.cfg.Protocol == core.ProtocolFORD {
		return m.Ring().Nodes() // per-object logs live on the object replicas
	}
	return m.Ring().LogServers(failed)
}

// recordStep charges the virtual time elapsed since start as one
// PhaseRecoveryStep sample (sharded by the failed node's id) and
// returns the new step start. Nil-safe like the registry itself.
func (m *Manager) recordStep(ep *rdma.Endpoint, shard uint64, start time.Duration) time.Duration {
	now := ep.Clock().Now()
	m.cfg.Metrics.RecordPhase(metrics.PhaseRecoveryStep, shard, now-start)
	return now
}

// logRecovery reads the failed node's logs, reconstructs its
// Logged-Stray-Txs, and rolls each forward or back.
func (m *Manager) logRecovery(ep *rdma.Endpoint, ev fdetect.Event, stats *Stats) error {
	shard := uint64(ev.Node)
	step := ep.Clock().Now()
	regions, err := m.readLogRegions(ep, ev.Node, stats)
	if err != nil {
		return err
	}
	step = m.recordStep(ep, shard, step) // sub-step: f+1 log reads
	txs := m.reconstruct(regions, ev)
	stats.LoggedTxs = len(txs)

	for _, tx := range txs {
		updated, err := m.allReplicasUpdated(ep, tx)
		if err != nil {
			return err
		}
		if updated {
			// Roll forward: every replica carries the new state and the
			// client may have been commit-acked (Cor3) — release the
			// locks and keep the updates.
			if err := m.unlockTx(ep, tx, nil); err != nil {
				return err
			}
			stats.RolledForward++
		} else {
			// Roll back: an abort-ack is impossible only when nothing
			// was updated; since not all replicas are updated, a
			// commit-ack is impossible, so undoing is safe (Cor3).
			if err := m.rollBack(ep, tx); err != nil {
				return err
			}
			stats.RolledBack++
		}
	}
	step = m.recordStep(ep, shard, step) // sub-step: roll forward/back

	// Idempotence (§3.2.3): truncate every log of the failed node before
	// the stray-lock notification; a re-executed recovery then finds no
	// logs and redoes nothing.
	if err := m.truncateAll(ep, ev); err != nil {
		return err
	}
	step = m.recordStep(ep, shard, step) // sub-step: log truncation

	if m.cfg.Protocol == core.ProtocolTradLog {
		// The traditional scheme has no PILL: stray locks of not-logged
		// transactions are released here, from the lock-intent logs,
		// which is what makes its recovery slower than Pandora's.
		n, err := m.releaseIntentLocks(ep, regions, ev)
		if err != nil {
			return err
		}
		stats.StrayLocksFreed += n
		m.recordStep(ep, shard, step) // sub-step: intent-lock release
	}
	return nil
}

// readLogRegions fetches the failed node's entire log region from each
// relevant memory server — f+1 large READs for Pandora (§3.2.2 "F+1 Log
// Reads").
func (m *Manager) readLogRegions(ep *rdma.Endpoint, failed rdma.NodeID, stats *Stats) (map[rdma.NodeID][]byte, error) {
	size := m.cfg.CoordsPerNode * kvlayout.LogAreaSize
	region := kvlayout.LogRegionID(failed)
	out := make(map[rdma.NodeID][]byte)
	b := rdma.GetBatch()
	defer b.Put()
	var nodes []rdma.NodeID
	for _, n := range m.logNodes(failed) {
		if m.cfg.Fabric.IsDown(n) {
			continue
		}
		if m.cfg.Fabric.LookupRegion(n, region) == nil {
			continue
		}
		// The images are returned to the caller, so they must outlive the
		// batch: plain allocations, not arena bytes.
		buf := make([]byte, size)
		b.AddRead(rdma.Addr{Node: n, Region: region}, buf)
		nodes = append(nodes, n)
	}
	if b.Len() == 0 {
		return out, nil
	}
	_ = ep.Do(b.Ops()...) // per-op errors inspected below
	for i, op := range b.Ops() {
		if op.Err != nil {
			continue // log server died mid-read; surviving copies suffice
		}
		out[nodes[i]] = op.Buf
		stats.LogBytesRead += len(op.Buf)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("recovery: no log copy of node %d readable", failed)
	}
	return out, nil
}

// reconstruct merges the per-node log images into one strayTx per
// coordinator. Pandora has one record per coordinator (any valid copy
// suffices; the highest txID wins if areas disagree mid-overwrite).
// FORD-mode appends one record per object, replicated per object — they
// are merged by txID and deduplicated by object.
func (m *Manager) reconstruct(regions map[rdma.NodeID][]byte, ev fdetect.Event) []strayTx {
	var out []strayTx
	for slot, coord := range ev.Coords {
		if slot >= m.cfg.CoordsPerNode {
			break
		}
		areaOff := kvlayout.LogAreaOffset(slot)
		best := strayTx{coord: coord, coordSlot: slot}
		seen := make(map[string]bool)
		for _, buf := range regions {
			area := buf[areaOff : areaOff+kvlayout.LogAreaSize]
			recs := kvlayout.DecodeLogRecords(area[kvlayout.TxLogOff:kvlayout.LockLogOff])
			for _, rec := range recs {
				if rec.Coord != coord {
					continue // area reused by an unrelated id: ignore
				}
				if rec.TxID > best.txID {
					// Newer transaction: discard older remnants.
					best.txID = rec.TxID
					best.writes = nil
					seen = make(map[string]bool)
				}
				if rec.TxID != best.txID {
					continue
				}
				for _, w := range rec.Writes {
					k := fmt.Sprintf("%d/%d/%d", w.Table, w.Partition, w.Slot)
					if !seen[k] {
						seen[k] = true
						best.writes = append(best.writes, w)
					}
				}
			}
		}
		if best.txID != 0 && len(best.writes) > 0 {
			out = append(out, best)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].coordSlot < out[j].coordSlot })
	return out
}

// allReplicasUpdated reads the version word of every replica of every
// write-set object (one parallel round) and reports whether all carry
// the logged new version.
func (m *Manager) allReplicasUpdated(ep *rdma.Endpoint, tx strayTx) (bool, error) {
	b := rdma.GetBatch()
	defer b.Put()
	var wants []uint64
	for _, w := range tx.writes {
		tab := m.cfg.Schema[w.Table]
		for _, n := range m.Ring().Replicas(w.Partition) {
			if m.cfg.Fabric.IsDown(n) {
				continue // commit needed only the live replicas
			}
			b.AddRead(rdma.Addr{Node: n, Region: kvlayout.TableRegionID(w.Table, w.Partition), Offset: tab.SlotOffset(w.Slot) + kvlayout.SlotVersionOff}, b.Bytes(8))
			wants = append(wants, w.NewVersion)
		}
	}
	_ = ep.Do(b.Ops()...)
	for i, op := range b.Ops() {
		if op.Err != nil {
			continue // replica died mid-check: treat as tolerated
		}
		if kvlayout.Uint64(op.Buf) != wants[i] {
			return false, nil
		}
	}
	return true, nil
}

// unlockTx releases the primary locks of a stray transaction with
// guarded CASes: only a lock still held by exactly this transaction is
// released, so re-execution (idempotence) and races with live
// transactions are harmless. rollbackOf, when non-nil, gives the undo
// image to write (under the lock) before unlocking.
func (m *Manager) unlockTx(ep *rdma.Endpoint, tx strayTx, rollbackOf map[int][]rdma.Addr) error {
	word := lockWordFor(tx.coord, tx.txID)
	b := rdma.GetBatch()
	defer b.Put()
	type released struct {
		op      *rdma.Op
		write   kvlayout.LogWrite
		primary rdma.NodeID
	}
	var rels []released
	for i, w := range tx.writes {
		tab := m.cfg.Schema[w.Table]
		primary, ok := m.Ring().Primary(w.Partition, func(n rdma.NodeID) bool { return !m.cfg.Fabric.IsDown(n) })
		if !ok {
			continue
		}
		if rollbackOf != nil {
			for _, addr := range rollbackOf[i] {
				b.AddWrite(addr, kvlayout.RollbackImage(tab, w))
			}
		}
		op := b.AddCAS(rdma.Addr{Node: primary, Region: kvlayout.TableRegionID(w.Table, w.Partition), Offset: tab.SlotOffset(w.Slot) + kvlayout.SlotLockOff}, word, 0)
		rels = append(rels, released{op: op, write: w, primary: primary})
	}
	_ = ep.Do(b.Ops()...) // failed CASes mean "already released" — fine
	for _, rel := range rels {
		if rel.op.Err == nil && rel.op.Swapped {
			// This pass actually freed the dead holder's lock, so it also
			// settles the hot-lock lane debt the holder may have died with.
			// Guarding on Swapped keeps re-execution idempotent: a second
			// pass's CAS finds the word already released and repairs
			// nothing.
			m.repairHotlockLane(ep, rel.primary, rel.write)
		}
	}
	return nil
}

// repairHotlockLane advances the ticket-lane head a recovered lock
// holder may have left behind (DESIGN.md §14). Whether the dead holder
// acquired through the queue is unknowable from the word alone, so the
// repair is guarded by lane state: advance one step only when tickets
// are outstanding. Over-advancing (the holder never queued, the
// outstanding ticket is a live waiter's) is the safe direction — the
// queue is advisory and an early turn just means a CAS race. All
// errors are ignored; the next waiter repairs what this pass missed.
func (m *Manager) repairHotlockLane(ep *rdma.Endpoint, primary rdma.NodeID, w kvlayout.LogWrite) {
	lane := hotlock.LaneFor(primary, w.Partition, w.Table, w.Key)
	b := rdma.GetBatch()
	defer b.Put()
	buf := b.Bytes(16)
	tailOp := b.AddRead(lane.Tail, buf[:8])
	headOp := b.AddRead(lane.Head, buf[8:16])
	if err := ep.Do(tailOp, headOp); err != nil {
		return
	}
	tail := kvlayout.Uint64(buf[:8])
	head := kvlayout.Uint64(buf[8:16])
	if kvlayout.TicketSeq(tail) <= kvlayout.TicketSeq(head) {
		return
	}
	if _, swapped, err := ep.CAS(lane.Head, head, head+1); err == nil && swapped {
		m.cfg.Metrics.CountLock(metrics.LockTicketRepair)
	}
}

// rollBack undoes every replica that carries the logged new version,
// then releases the locks (one combined parallel round).
func (m *Manager) rollBack(ep *rdma.Endpoint, tx strayTx) error {
	// Find which replicas were updated (we already read versions once in
	// allReplicasUpdated, but recovery re-reads per write so that a
	// re-executed recovery — idempotence — stays correct).
	rollback := make(map[int][]rdma.Addr)
	b := rdma.GetBatch()
	defer b.Put()
	var writeIdx []int
	for i, w := range tx.writes {
		tab := m.cfg.Schema[w.Table]
		for _, n := range m.Ring().Replicas(w.Partition) {
			if m.cfg.Fabric.IsDown(n) {
				continue
			}
			// The version word starts the slot's rollback image, so the
			// same address serves the check and the undo write.
			addr := rdma.Addr{Node: n, Region: kvlayout.TableRegionID(w.Table, w.Partition), Offset: tab.SlotOffset(w.Slot) + kvlayout.SlotVersionOff}
			b.AddRead(addr, b.Bytes(8))
			writeIdx = append(writeIdx, i)
		}
	}
	_ = ep.Do(b.Ops()...)
	for k, op := range b.Ops() {
		if op.Err != nil {
			continue
		}
		i := writeIdx[k]
		if kvlayout.Uint64(op.Buf) == tx.writes[i].NewVersion {
			if DebugRollback != nil {
				DebugRollback(tx.coord, tx.txID, tx.writes[i], kvlayout.Uint64(op.Buf))
			}
			rollback[i] = append(rollback[i], op.Addr)
		}
	}
	return m.unlockTx(ep, tx, rollback)
}

// truncateAll invalidates every log area of the failed node on every
// log node: one parallel round of 8-byte writes.
func (m *Manager) truncateAll(ep *rdma.Endpoint, ev fdetect.Event) error {
	region := kvlayout.LogRegionID(ev.Node)
	b := rdma.GetBatch()
	defer b.Put()
	for _, n := range m.logNodes(ev.Node) {
		if m.cfg.Fabric.IsDown(n) || m.cfg.Fabric.LookupRegion(n, region) == nil {
			continue
		}
		for slot := range ev.Coords {
			if slot >= m.cfg.CoordsPerNode {
				break
			}
			b.AddWrite(rdma.Addr{Node: n, Region: region, Offset: kvlayout.LogAreaOffset(slot) + kvlayout.TxLogOff}, kvlayout.TruncateWord[:])
		}
	}
	_ = ep.Do(b.Ops()...)
	return nil
}

// releaseIntentLocks implements the traditional scheme's stray-lock
// release: parse each coordinator's lock-intent log, CAS-release the
// locks of the latest (not-logged) transaction, and raise the floor so
// re-execution is a no-op.
func (m *Manager) releaseIntentLocks(ep *rdma.Endpoint, regions map[rdma.NodeID][]byte, ev fdetect.Event) (int, error) {
	freed := 0
	region := kvlayout.LogRegionID(ev.Node)
	for slot, coord := range ev.Coords {
		if slot >= m.cfg.CoordsPerNode {
			break
		}
		areaOff := kvlayout.LogAreaOffset(slot)
		var intents []kvlayout.LockIntent
		for _, buf := range regions {
			got := kvlayout.DecodeLockIntents(buf[areaOff+kvlayout.LockLogOff : areaOff+kvlayout.LogAreaSize])
			if len(got) > 0 && (len(intents) == 0 || got[0].TxID > intents[0].TxID) {
				intents = got
			}
		}
		if len(intents) == 0 {
			continue
		}
		txID := intents[0].TxID
		b := rdma.GetBatch()
		for _, li := range intents {
			tab := m.cfg.Schema[li.Table]
			primary, ok := m.Ring().Primary(li.Partition, func(n rdma.NodeID) bool { return !m.cfg.Fabric.IsDown(n) })
			if !ok {
				continue
			}
			b.AddCAS(rdma.Addr{Node: primary, Region: kvlayout.TableRegionID(li.Table, li.Partition), Offset: tab.SlotOffset(li.Slot) + kvlayout.SlotLockOff}, lockWordFor(coord, txID), 0)
		}
		_ = ep.Do(b.Ops()...)
		for _, op := range b.Ops() {
			if op.Err == nil && op.Swapped {
				freed++
			}
		}
		// Raise the floor on every log copy.
		b.Reset()
		floor := b.Bytes(8)
		kvlayout.PutUint64(floor, txID)
		for n := range regions {
			b.AddWrite(rdma.Addr{Node: n, Region: region, Offset: areaOff + kvlayout.LockLogOff}, floor)
		}
		_ = ep.Do(b.Ops()...)
		b.Put()
	}
	return freed, nil
}
