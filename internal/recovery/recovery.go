// Package recovery implements Pandora's RDMA-based recovery protocol
// (§3.2): detection is delegated to the failure detector; this package
// performs active-link termination, log recovery (roll forward / roll
// back), and the stray-lock notification, in that strict order — plus
// the baseline's stop-the-world scan recovery, the traditional
// lock-logging recovery, memory-failure handling with deterministic
// primary promotion, and the coordinator-id recycling scan.
// Re-replication is a migration (internal/reconfig) through this
// manager's view.
//
// Every step is idempotent (§3.2.3): re-running a partially executed
// recovery is always safe, which is how failures of the recovery
// coordinator itself are tolerated.
package recovery

import (
	"fmt"
	"slices"
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
	// per log-recovery sub-step (log read, settle, truncation,
	// intent release), measured on the recovery's virtual clock.
	Metrics *metrics.Registry
}

// Stats reports what one compute recovery did. VTime is the modelled
// duration of the log-recovery step — the paper's "recovery latency"
// (Table 2) — and the five step times are where it went: they sum to it
// (ScanRecoverCompute's VTime adds its scan).
type Stats struct {
	LoggedTxs       int
	RolledForward   int
	RolledBack      int
	StrayLocksFreed int // traditional scheme / scan recovery only
	LogBytesRead    int // bytes the log READs brought back
	LogTailReads    int // log areas that held more than the prefix READ
	VTime           time.Duration
	WallTime        time.Duration

	LogReadVTime       time.Duration // prefix doorbell
	TailReadVTime      time.Duration // tail doorbell, when some area needed it
	SettleVTime        time.Duration // roll forward/back, unlock, lane repair
	TruncateVTime      time.Duration
	IntentReleaseVTime time.Duration // traditional scheme only
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
	// never interleave with a compute recovery or a promotion.
	opMu sync.Mutex

	mu sync.Mutex
	// moved holds the compute nodes that were down during a placement
	// change, until they rejoin (SetPeer): their stray transactions' lock
	// words may be lost — a promoted backup or a copy of one never had them.
	moved map[rdma.NodeID]bool
}

// NewManager creates a recovery manager. It keeps its own copy of the
// memory-server list.
func NewManager(cfg Config) *Manager {
	cfg.Mems = slices.Clone(cfg.Mems)
	return &Manager{cfg: cfg, view: place.NewView(cfg.Ring), moved: make(map[rdma.NodeID]bool)}
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
		if p.Crashed() {
			m.moved[p.ID()] = true
		} else {
			p.Install(m.view)
		}
	}
}

// LockOps acquires the manager's operation lock. A migration (AddMemory,
// RemoveMemory, re-replication) holds it around each journaled step so
// recovery operations (compute recovery, memory-failure promotion)
// serialize with partition cutovers rather than tearing a half-copied
// partition.
func (m *Manager) LockOps() { m.opMu.Lock() }

// UnlockOps releases the operation lock.
func (m *Manager) UnlockOps() { m.opMu.Unlock() }

// Mems returns a snapshot of the attached memory servers — the
// migration coordinator replicates its journal to every one of them.
func (m *Manager) Mems() []*memnode.Server {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]*memnode.Server(nil), m.cfg.Mems...)
}

// AddMem registers a memory server with the manager before a migration
// onto it starts: in the place of the server with id replaces (a
// re-replication), else appended (an AddMemory). Registering s again
// leaves it where it is.
func (m *Manager) AddMem(s *memnode.Server, replaces rdma.NodeID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	i := slices.IndexFunc(m.cfg.Mems, func(old *memnode.Server) bool { return old.ID() == replaces || old.ID() == s.ID() })
	if i < 0 {
		m.cfg.Mems = append(m.cfg.Mems, s)
		return
	}
	m.cfg.Mems[i] = s
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
			delete(m.moved, p.ID())
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
	for _, ms := range m.Mems() {
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
// returns it. Nil-safe like the registry itself.
func (m *Manager) recordStep(ep *rdma.Endpoint, shard uint64, start time.Duration) time.Duration {
	took := ep.Clock().Now() - start
	m.cfg.Metrics.RecordPhase(metrics.PhaseRecoveryStep, shard, took)
	return took
}

// logRecovery reads the failed node's logs, reconstructs its
// Logged-Stray-Txs, settles them all in one pass, and truncates the logs.
func (m *Manager) logRecovery(ep *rdma.Endpoint, ev fdetect.Event, stats *Stats) error {
	shard, clk := uint64(ev.Node), ep.Clock()
	step := clk.Now()
	logs, err := m.readLogs(ep, ev, stats)
	if err != nil {
		return err
	}
	m.recordStep(ep, shard, step) // sub-step: log reads
	txs := m.reconstruct(logs, ev)
	stats.LoggedTxs = len(txs)

	// The undo's lock-word guard is off where the words may be lost, and in
	// FORD-mode, which believes its logs as the baseline does: Table 1's C2
	// bugs are stale logs believed; a guard would hide them.
	m.mu.Lock()
	guard := m.cfg.Protocol != core.ProtocolFORD && !m.moved[ev.Node]
	m.mu.Unlock()
	step = clk.Now()
	m.settle(ep, txs, guard, stats)
	stats.SettleVTime = m.recordStep(ep, shard, step) // sub-step: roll forward/back

	// Idempotence (§3.2.3): truncate every log of the failed node before
	// the stray-lock notification; a re-executed recovery then finds no
	// logs and redoes nothing.
	step = clk.Now()
	m.truncateAll(ep, ev)
	stats.TruncateVTime = m.recordStep(ep, shard, step) // sub-step: log truncation

	if m.cfg.Protocol == core.ProtocolTradLog {
		// The traditional scheme has no PILL: stray locks of not-logged
		// transactions are released here, from the lock-intent logs,
		// which is what makes its recovery slower than Pandora's.
		step = clk.Now()
		stats.StrayLocksFreed += m.releaseIntentLocks(ep, logs, ev)
		stats.IntentReleaseVTime = m.recordStep(ep, shard, step) // sub-step: intent-lock release
	}
	return nil
}

// logImage is what recovery READ of one coordinator's log area on one log
// server, cut to its extent (kvlayout.LogExtent, LockIntentExtent): the
// only bytes reconstruct and releaseIntentLocks decode. intents is read
// under ProtocolTradLog alone.
type logImage struct{ tx, intents []byte }

// nodeLogs is one log server's images, indexed by coordinator slot.
type nodeLogs struct {
	node  rdma.NodeID
	areas []logImage
}

// readLogs fetches what the failed node logged from each relevant memory
// server, in logNodes order, in at most two doorbells (§3.2.2 "F+1 Log
// Reads"; DESIGN.md §4b "The log read"): the first LogPrefixSize bytes of
// every coordinator's area, then the rest of those areas whose prefix
// says they hold more. The failed node is fenced by now, so the two READs
// of one area see one record; the trailer guard rejects any other pairing.
func (m *Manager) readLogs(ep *rdma.Endpoint, ev fdetect.Event, stats *Stats) ([]nodeLogs, error) {
	region := kvlayout.LogRegionID(ev.Node)
	var logs []nodeLogs
	for _, n := range m.logNodes(ev.Node) {
		if !m.cfg.Fabric.IsDown(n) && m.cfg.Fabric.LookupRegion(n, region) != nil {
			logs = append(logs, nodeLogs{node: n})
		}
	}
	if len(logs) == 0 {
		return nil, nil
	}
	coords := min(len(ev.Coords), m.cfg.CoordsPerNode)
	tradlog, ford := m.cfg.Protocol == core.ProtocolTradLog, m.cfg.Protocol == core.ProtocolFORD
	txExtent := func(read []byte) int { return kvlayout.LogExtent(read, ford) }

	// Doorbell 1 — the prefixes. The images outlive the batch, so they are
	// not arena bytes; they are this recovery's alone, so nothing a READ did
	// not bring back is ever decoded.
	type areaRead struct {
		node   int       // index into logs
		at     rdma.Addr // the area's first byte not yet READ
		img    *[]byte
		extent func([]byte) int
	}
	areas := len(logs) * coords
	if tradlog {
		areas *= 2 // each coordinator's lock-intent area too
	}
	reads := make([]areaRead, 0, areas) // reads[i] is b.Ops()[i]
	prefixes := make([]byte, areas*kvlayout.LogPrefixSize)
	b := rdma.GetBatch()
	defer b.Put()
	read := func(node int, off uint64, img *[]byte, extent func([]byte) int) {
		*img, prefixes = prefixes[:kvlayout.LogPrefixSize:kvlayout.LogPrefixSize], prefixes[kvlayout.LogPrefixSize:]
		at := rdma.Addr{Node: logs[node].node, Region: region, Offset: off}
		b.AddRead(at, *img)
		at.Offset += kvlayout.LogPrefixSize
		reads = append(reads, areaRead{node, at, img, extent})
	}
	for i := range logs {
		logs[i].areas = make([]logImage, coords)
		for slot := range logs[i].areas {
			area, off := &logs[i].areas[slot], kvlayout.LogAreaOffset(slot)
			read(i, off+kvlayout.TxLogOff, &area.tx, txExtent)
			if tradlog {
				read(i, off+kvlayout.LockLogOff, &area.intents, kvlayout.LockIntentExtent)
			}
		}
	}
	start := ep.Clock().Now()
	_ = ep.Do(b.Ops()...) // per-op errors inspected below
	stats.LogReadVTime = ep.Clock().Now() - start

	// Each image is cut to its area's extent, or grown to it for doorbell 2.
	lost := make([]bool, len(logs)) // a READ failed: the server died mid-read
	var tails []areaRead
	for i, op := range b.Ops() {
		r := reads[i]
		if op.Err != nil {
			lost[r.node] = true
			continue
		}
		stats.LogBytesRead += len(op.Buf)
		if need := r.extent(*r.img); need <= len(*r.img) {
			*r.img = (*r.img)[:need]
		} else {
			whole := make([]byte, need)
			copy(whole, *r.img)
			*r.img = whole
			tails = append(tails, r)
		}
	}

	// Doorbell 2 — the tails.
	if len(tails) > 0 {
		stats.LogTailReads = len(tails)
		b.Reset()
		for _, r := range tails {
			b.AddRead(r.at, (*r.img)[kvlayout.LogPrefixSize:])
		}
		start = ep.Clock().Now()
		_ = ep.Do(b.Ops()...)
		stats.TailReadVTime = ep.Clock().Now() - start
		for i, op := range b.Ops() {
			if op.Err != nil {
				lost[tails[i].node] = true
				continue
			}
			stats.LogBytesRead += len(op.Buf)
		}
	}

	// Surviving copies suffice; a server that died mid-read contributes none.
	kept := logs[:0]
	for i, l := range logs {
		if !lost[i] {
			kept = append(kept, l)
		}
	}
	if len(kept) == 0 {
		return nil, fmt.Errorf("recovery: no log copy of node %d readable", ev.Node)
	}
	return kept, nil
}

// reconstruct merges the per-node log images into one strayTx per
// coordinator. Pandora has one record per coordinator (any valid copy
// suffices; the highest txID wins if areas disagree mid-overwrite).
// FORD-mode appends one record per object, replicated per object — they
// are merged by txID and deduplicated by object, first seen in logs order.
func (m *Manager) reconstruct(logs []nodeLogs, ev fdetect.Event) []strayTx {
	type object struct {
		table     kvlayout.TableID
		partition uint32
		slot      uint64
	}
	var seen map[object]bool // the objects of best.writes, FORD-mode only
	if m.cfg.Protocol == core.ProtocolFORD {
		seen = make(map[object]bool)
	}
	var out []strayTx
	for slot, coord := range ev.Coords {
		if slot >= m.cfg.CoordsPerNode {
			break
		}
		best := strayTx{coord: coord, coordSlot: slot}
		clear(seen)
		for _, l := range logs {
			for _, rec := range kvlayout.DecodeLogRecords(l.areas[slot].tx) {
				if rec.Coord != coord {
					continue // area reused by an unrelated id: ignore
				}
				if rec.TxID > best.txID {
					// Newer transaction: discard older remnants.
					best.txID, best.writes = rec.TxID, nil
					clear(seen)
				}
				if rec.TxID != best.txID {
					continue
				}
				if seen == nil {
					best.writes = rec.Writes // each log server's copy is the whole record
					continue
				}
				for _, w := range rec.Writes {
					if k := (object{w.Table, w.Partition, w.Slot}); !seen[k] {
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
	return out
}

// slotWord addresses one word of a logged write's slot on replica n.
func (m *Manager) slotWord(n rdma.NodeID, w kvlayout.LogWrite, off uint64) rdma.Addr {
	return rdma.Addr{Node: n, Region: kvlayout.TableRegionID(w.Table, w.Partition), Offset: m.cfg.Schema[w.Table].SlotOffset(w.Slot) + off}
}

// settle rolls every stray transaction forward or back and releases its
// locks in one pass of at most three doorbells, however many there are:
// they hold disjoint lock sets, so nothing orders them against each other
// (DESIGN.md §4b "Log recovery is one pass"). Per-op errors are tolerated
// throughout — the verb struck a server that died mid-pass, and what this
// pass missed a re-executed one, a stealer or a lane waiter repairs. guard:
// the lock words are still where the dead transactions took them.
func (m *Manager) settle(ep *rdma.Endpoint, txs []strayTx, guard bool, stats *Stats) {
	if len(txs) == 0 {
		return
	}
	ring := m.Ring()
	// Doorbell 1 — observe, per logged write, the version word on every live
	// replica (commit needed only those); on the partition's first replica,
	// where the transaction locked, the READ starts one word earlier, at the lock.
	type logged struct {
		tx    int // index into txs
		w     kvlayout.LogWrite
		reads []*rdma.Op // per live replica, the live primary first
	}
	version := func(op *rdma.Op) uint64 { return kvlayout.Uint64(op.Buf[len(op.Buf)-8:]) }
	var writes []logged
	obs := rdma.GetBatch()
	defer obs.Put()
	for t, tx := range txs {
		for _, w := range tx.writes {
			l := logged{tx: t, w: w}
			for i, n := range ring.Replicas(w.Partition) {
				if m.cfg.Fabric.IsDown(n) {
					continue
				}
				off, size := uint64(kvlayout.SlotVersionOff), 8
				if i == 0 {
					off, size = kvlayout.SlotLockOff, 16
				}
				l.reads = append(l.reads, obs.AddRead(m.slotWord(n, w, off), obs.Bytes(size)))
			}
			if len(l.reads) > 0 { // else nothing to observe, undo or release
				writes = append(writes, l)
			}
		}
	}
	_ = ep.Do(obs.Ops()...)

	// Roll forward iff every live replica of every write carries the logged
	// new version: the client may have been commit-acked (Cor3), so the
	// updates stay. Otherwise a commit-ack is impossible and undoing is safe
	// (an abort-ack needs nothing updated, and then nothing is undone).
	back := make([]bool, len(txs))
	stats.RolledForward = len(txs)
	for _, l := range writes {
		for _, op := range l.reads {
			if op.Err == nil && version(op) != l.w.NewVersion && !back[l.tx] {
				back[l.tx] = true
				stats.RolledForward--
				stats.RolledBack++
			}
		}
	}

	// Doorbell 2 — act, in coordSlot order, per write: the undo image on the
	// replicas that carry the new version, the unlock CAS guarded by the
	// transaction's own lock word — re-execution and races with live
	// transactions release nothing — and behind it on the same queue pair
	// the lane's tail and head, as a stealer reads them (DESIGN.md §14).
	type release struct{ cas, tail, head *rdma.Op }
	var rels []release
	act := rdma.GetBatch()
	defer act.Put()
	for _, l := range writes {
		word, own := lockWordFor(txs[l.tx].coord, txs[l.tx].txID), l.reads[0]
		// Undo only under the dead transaction's own lock: once an earlier pass
		// released it, NewVersion may be a live commit's (versions step by one).
		// A free lock over an old primary is that pass torn — it undoes before it
		// unlocks, and no commit leaves this — so backups still ahead are undone.
		// No lock word to go by (guard off, first replica dead, READ failed): undo.
		held := true
		if guard && own.Err == nil && len(own.Buf) == 16 {
			lock := kvlayout.Uint64(own.Buf)
			held = lock == word || lock == 0 && version(own) == l.w.OldVersion
		}
		if back[l.tx] && held {
			image := kvlayout.RollbackImage(m.cfg.Schema[l.w.Table], l.w)
			for _, op := range l.reads {
				if op.Err == nil && version(op) == l.w.NewVersion {
					act.AddWrite(m.slotWord(op.Addr.Node, l.w, kvlayout.SlotVersionOff), image)
				}
			}
		}
		lane := hotlock.LaneFor(own.Addr.Node, l.w.Partition, l.w.Table, l.w.Key)
		rels = append(rels, release{
			cas:  act.AddCAS(m.slotWord(own.Addr.Node, l.w, kvlayout.SlotLockOff), word, 0),
			tail: act.AddRead(lane.Tail, act.Bytes(8)),
			head: act.AddRead(lane.Head, act.Bytes(8)),
		})
	}
	_ = ep.Do(act.Ops()...)

	// Doorbell 3 — only when a release that swapped found tickets outstanding
	// on its lane. Whether the dead holder queued and died owing the head an
	// advance is unknowable from the word, so each such release advances it one
	// step while tickets are outstanding, in one guarded CAS per lane; over-
	// advancing (a live waiter's ticket) is safe — the queue is advisory and an
	// early turn is a CAS race. Gating on Swapped keeps re-execution idempotent.
	type repair struct {
		head           rdma.Addr
		from, owed, by uint64 // the head word read, tickets past it, the advance
	}
	var repairs []repair
next:
	for _, r := range rels {
		if r.cas.Err != nil || !r.cas.Swapped || r.tail.Err != nil || r.head.Err != nil {
			continue
		}
		tail, head := kvlayout.Uint64(r.tail.Buf), kvlayout.Uint64(r.head.Buf)
		if kvlayout.TicketSeq(tail) <= kvlayout.TicketSeq(head) {
			continue
		}
		for i := range repairs {
			if p := &repairs[i]; p.head == r.head.Addr {
				p.by = min(p.by+1, p.owed)
				continue next
			}
		}
		repairs = append(repairs, repair{r.head.Addr, head, kvlayout.TicketSeq(tail) - kvlayout.TicketSeq(head), 1})
	}
	if len(repairs) == 0 {
		return
	}
	obs.Reset() // its observations are spent
	for _, p := range repairs {
		obs.AddCAS(p.head, p.from, p.from+p.by)
	}
	_ = ep.Do(obs.Ops()...)
	for _, op := range obs.Ops() {
		if op.Err == nil && op.Swapped {
			m.cfg.Metrics.CountLock(metrics.LockTicketRepair)
		}
	}
}

// truncateAll invalidates every log area of the failed node on every
// log node: one parallel round of 8-byte writes.
func (m *Manager) truncateAll(ep *rdma.Endpoint, ev fdetect.Event) {
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
}

// releaseIntentLocks implements the traditional scheme's stray-lock
// release: parse each coordinator's lock-intent log, CAS-release the
// locks of the latest (not-logged) transaction, and raise the floor so
// re-execution is a no-op.
func (m *Manager) releaseIntentLocks(ep *rdma.Endpoint, logs []nodeLogs, ev fdetect.Event) int {
	freed := 0
	region := kvlayout.LogRegionID(ev.Node)
	for slot, coord := range ev.Coords {
		if slot >= m.cfg.CoordsPerNode {
			break
		}
		areaOff := kvlayout.LogAreaOffset(slot)
		// The latest transaction's intents; of two copies of them, the one an
		// intent WRITE did not miss.
		var intents []kvlayout.LockIntent
		for _, l := range logs {
			got := kvlayout.DecodeLockIntents(l.areas[slot].intents)
			if len(got) > 0 && (len(intents) == 0 || got[0].TxID > intents[0].TxID ||
				got[0].TxID == intents[0].TxID && len(got) > len(intents)) {
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
		for _, l := range logs {
			b.AddWrite(rdma.Addr{Node: l.node, Region: region, Offset: areaOff + kvlayout.LockLogOff}, floor)
		}
		_ = ep.Do(b.Ops()...)
		b.Put()
	}
	return freed
}
