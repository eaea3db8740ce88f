// Package recovery implements Pandora's RDMA-based recovery protocol
// (§3.2): detection is delegated to the failure detector; this package
// performs active-link termination, the log read, the stray-lock
// notification — carrying the lock words of the logged transactions, so
// survivors steal only the others — and then the logged transactions'
// roll forward / roll back, in that order, with the log truncation
// trailing them — plus
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
	// per log-recovery doorbell, measured on the recovery's virtual clock.
	Metrics *metrics.Registry
}

// Step names a doorbell of the log-recovery pass, in Pandora's posting
// order; FORD-mode and the traditional scheme post StepNotify after
// StepIntentRelease instead, as the paper's baselines notify after their
// log recovery. The steps up to StepNotify, in posting order, make VTime;
// the rest trail it.
type Step int

const (
	StepLogPrefix     Step = iota // every log area's first LogPrefixSize bytes
	StepLogTail                   // the rest of the areas that hold more
	StepNotify                    // the stray-lock notification: one message to every live peer
	StepObserve                   // each logged write's lock and version words
	StepAct                       // undo images, guarded unlocks
	StepIntentRelease             // traditional scheme: the intents' locks
	StepTruncate                  // every log area invalidated
	StepIntentFloor               // traditional scheme: the intent floors
	numSteps
)

// Stats reports what one compute recovery did. VTime is the modelled
// duration of the pass up to the end of the stray-lock notification — the
// paper's "recovery latency" (Table 2), what a transaction that meets an
// unlogged stray lock waits for — and Settled is the clock when act's last
// unlock landed, what one that meets a logged transaction's lock waits
// for. Steps is where the pass's time went, per doorbell: the entries up
// to StepNotify in posting order sum to VTime, those up to StepAct to
// Settled (ScanRecoverCompute's VTime is its steps and its scan; it
// notifies no one), and the trailing ones are charged after both.
type Stats struct {
	LoggedTxs       int
	RolledForward   int
	RolledBack      int
	StrayLocksFreed int // traditional scheme / scan recovery only
	LogBytesRead    int // bytes the log READs brought back
	LogTailReads    int // log areas that held more than the prefix READ
	VTime           time.Duration
	Settled         time.Duration
	WallTime        time.Duration
	Steps           [numSteps]time.Duration
}

// Manager executes recoveries. One instance serves the whole cluster;
// RecoverCompute may be re-invoked for the same node (idempotent).
type Manager struct {
	cfg Config
	// view is the cluster's current placement and announcement (DESIGN.md
	// §13). Every transition is computed here, from this value, and
	// installed on the live peers before mu is released, so peers see
	// transitions in one order and a peer joining through SetPeer misses none.
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

	// cut, when set, is asked before each verb of a pass and after its last
	// (post), and around its notification: true stops the pass there, as a
	// crash would. Nil but under fault injection (SetCut).
	cut func(s Step, landed int) bool
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

// Update is the one way the view changes: the cluster's view becomes
// step(view) — the manager first, so recovery decisions always see the
// view transactions run against — and every live peer but skip installs
// it. A step that changes ring membership needs the peers Paused by the
// caller (core.ComputeNode.Install). A step that keeps the stray-lock
// announcement is a placement change and marks each crashed peer moved;
// one that changes the announcement changes nothing else.
func (m *Manager) Update(step func(*place.View) *place.View, skip ...rdma.NodeID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	next := step(m.view)
	placed := next.SameStrays(m.view)
	m.view = next
	for _, p := range m.cfg.Peers {
		switch {
		case slices.Contains(skip, p.ID()):
		case !p.Crashed():
			p.Install(next)
		case placed:
			m.moved[p.ID()] = true
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

// SetCut installs fn as the passes' cut hook, or removes it (nil): it is
// asked before each verb of a pass and after its last, and before and
// after its notification; true stops the pass there, as its recovery
// coordinator's death would, and RecoverCompute returns rdma.ErrCrashed.
// A pass with a hook posts its ops one at a time. For fault injection: a
// re-run of the pass repairs what a cut left (§3.2.3).
func (m *Manager) SetCut(fn func(s Step, landed int) bool) {
	m.opMu.Lock()
	defer m.opMu.Unlock()
	m.cut = fn
}

// announce is the stray-lock notification for ev, a view transition
// installed on every live peer but the failed node (a soft-failed one is
// a fenced zombie): ev's coordinator-ids, and the logged words still to
// settle — ev.Node's own (words; none once its act has landed) in place
// of those it announced before, and any other failed node's whose pass
// was cut between its notification and its act. It returns the payload's
// size in bytes: a 2-byte id each, an 8-byte word each.
func (m *Manager) announce(ev fdetect.Event, words []uint64) (size int) {
	m.Update(func(v *place.View) *place.View {
		logged := append(slices.DeleteFunc(v.Logged(), func(w uint64) bool {
			return slices.Contains(ev.Coords, kvlayout.LockOwner(w))
		}), words...)
		size = 2*len(ev.Coords) + 8*len(logged)
		return v.WithStrays(ev.Coords, logged)
	}, ev.Node)
	return size
}

// endpoint returns a fresh verb handle for the recovery coordinator,
// charging clk.
func (m *Manager) endpoint(clk *rdma.VClock) *rdma.Endpoint {
	return m.cfg.Fabric.Endpoint(m.cfg.RCNode).WithClock(clk)
}

// pass is one recovery of one failure event: its verb handle, on its own
// virtual clock, and what it did. Every doorbell goes through post.
type pass struct {
	m     *Manager
	ev    fdetect.Event
	ep    rdma.Endpoint // by value, so the handle stays off the heap
	wall  time.Time
	stats Stats
}

// open starts a recovery of ev under the operation lock (the caller
// releases it) with §3.2.2's step 2, active-link termination (Cor1): before
// any transaction state is touched, the suspect — failed or falsely
// suspected — loses its access to memory.
func (m *Manager) open(ev fdetect.Event) pass {
	m.opMu.Lock()
	for _, ms := range m.Mems() {
		ms.RevokeLink(ev.Node)
	}
	return pass{m: m, ev: ev, ep: *m.endpoint(new(rdma.VClock)), wall: time.Now()} //pandora:wallclock Stats.WallTime is a host-side diagnostic; the protocol-visible latency is Stats.VTime
}

// notify is the pass's stray-lock notification (§3.2.2 step 4, Cor4),
// carrying logged, the words of its logged transactions still to settle:
// one message to every live compute node, charged to StepNotify as one
// dependent round of its payload on the pass's clock. VTime ends with it.
// Manager.cut is asked before it (landed 0) and after it (landed 1).
func (p *pass) notify(logged []uint64) error {
	cut := p.m.cut
	if cut != nil && cut(StepNotify, 0) {
		return rdma.ErrCrashed
	}
	took := p.m.cfg.Fabric.Latency().Verb(p.m.announce(p.ev, logged))
	p.ep.Clock().Advance(took)
	p.stats.Steps[StepNotify] += took
	p.stats.VTime = p.ep.Clock().Now()
	if cut != nil && cut(StepNotify, 1) {
		return rdma.ErrCrashed
	}
	return nil
}

// done returns the pass's stats with its wall time.
func (p *pass) done() Stats {
	p.stats.WallTime = time.Since(p.wall) //pandora:wallclock host-side diagnostic only
	return p.stats
}

// post is the pass's one post site: b goes out as one doorbell of step s,
// its clock delta charged to Steps[s] and recorded as one
// PhaseRecoveryStep sample (sharded by the failed node's id). Per-op
// errors are the caller's to read; an empty batch posts and records
// nothing. With Manager.cut set the ops go one at a time.
func (p *pass) post(s Step, b *rdma.OpBatch) error {
	ops, clk, cut := b.Ops(), p.ep.Clock(), p.m.cut
	if len(ops) == 0 {
		return nil
	}
	start, each := clk.Now(), len(ops)
	if cut != nil {
		each = 1
	}
	for i := 0; i < len(ops); i += each {
		if cut != nil && cut(s, i) {
			return rdma.ErrCrashed
		}
		_ = p.ep.Do(ops[i : i+each]...)
	}
	if cut != nil && cut(s, len(ops)) {
		return rdma.ErrCrashed
	}
	took := clk.Now() - start
	p.stats.Steps[s] += took
	p.m.cfg.Metrics.RecordPhase(metrics.PhaseRecoveryStep, uint64(p.ev.Node), took)
	return nil
}

// strayTx is one Logged-Stray-Tx reconstructed from the failed node's
// logs.
type strayTx struct {
	coord     kvlayout.CoordID
	coordSlot int
	txID      uint64
	writes    []kvlayout.LogWrite
}

// RecoverCompute runs the full compute-failure recovery for ev
// (§3.2.2): (2) active-link termination, (3) the log read, (4) the stray-
// lock notification with the logged transactions' lock words, then their
// roll forward or back, a second notification that leaves their words
// out, and the log truncation. FORD-mode and the traditional scheme
// notify once, after their log recovery, as the paper's baselines do.
// Step (1), detection, already happened — ev came from the FD.
func (m *Manager) RecoverCompute(ev fdetect.Event) (Stats, error) {
	p := m.open(ev)
	defer m.opMu.Unlock()
	logs, txs, err := p.readLogged()
	if err != nil {
		return p.stats, err
	}
	// Cor4 lets survivors steal only NotLogged-Stray-Tx locks. The log
	// read has just named every logged transaction, so the notification
	// goes now, carrying their words: survivors steal the others at once
	// and treat these as live locks until act has released them
	// (DESIGN.md §4b "Logged words travel with the notification").
	early := m.cfg.Protocol == core.ProtocolPandora
	if early {
		if err := p.notify(loggedWords(txs)); err != nil {
			return p.stats, err
		}
	}
	if err := p.settleLogged(logs, txs); err != nil {
		return p.stats, err
	}
	if !early {
		if err := p.notify(nil); err != nil {
			return p.stats, err
		}
	} else if len(txs) > 0 {
		// Free on the clock: act released each logged word by CAS, so no
		// survivor waits for this message but to steal a word act missed.
		m.announce(ev, nil)
	}
	if err := p.trail(logs); err != nil {
		return p.stats, err
	}
	return p.done(), nil
}

// loggedWords returns the lock word each of txs took (core's Tx.lockWord).
func loggedWords(txs []strayTx) []uint64 {
	words := make([]uint64, len(txs))
	for i, tx := range txs {
		words[i] = kvlayout.LockWord(tx.coord, uint32(tx.txID))
	}
	return words
}

// logNodes returns the memory servers whose log regions must be read for
// the failed compute node.
func (m *Manager) logNodes(failed rdma.NodeID) []rdma.NodeID {
	if m.cfg.Protocol == core.ProtocolFORD {
		return m.Ring().Nodes() // per-object logs live on the object replicas
	}
	return m.Ring().LogServers(failed)
}

// readLogged reads the failed node's logs and reconstructs its
// Logged-Stray-Txs from them.
func (p *pass) readLogged() ([]nodeLogs, []strayTx, error) {
	logs, err := p.readLogs()
	if err != nil {
		return nil, nil, err
	}
	txs := p.m.reconstruct(logs, p.ev)
	p.stats.LoggedTxs = len(txs)
	return logs, txs, nil
}

// settleLogged settles txs, all in one pass, and stamps Settled; under
// the traditional scheme it then releases the intent locks.
func (p *pass) settleLogged(logs []nodeLogs, txs []strayTx) error {
	m := p.m
	// The undo's lock-word guard is off where the words may be lost, and in
	// FORD-mode, which believes its logs as the baseline does: Table 1's C2
	// bugs are stale logs believed; a guard would hide them.
	m.mu.Lock()
	guard := m.cfg.Protocol != core.ProtocolFORD && !m.moved[p.ev.Node]
	m.mu.Unlock()
	if err := p.settle(txs, guard); err != nil {
		return err
	}
	p.stats.Settled = p.ep.Clock().Now()
	if m.cfg.Protocol != core.ProtocolTradLog {
		return nil
	}
	// The traditional scheme has no PILL: stray locks of not-logged
	// transactions are released here, from the lock-intent logs, which is
	// what makes its recovery slower than Pandora's.
	return p.releaseIntentLocks(logs)
}

// trail is a pass's trailing part, posted after act and the last
// notification: no transaction waits for it. It truncates every log of
// the failed node, and under the traditional scheme raises every intent
// floor, so a re-executed recovery finds nothing to redo (§3.2.3). A
// re-run that finds a log this part did not reach is still safe: act
// released every logged lock by a guarded CAS, notified survivors stole
// only unlogged ones, and the re-run undoes only under the dead
// transaction's own lock word (DESIGN.md §4b "Logged words travel with
// the notification").
func (p *pass) trail(logs []nodeLogs) error {
	if err := p.truncateAll(); err != nil || p.m.cfg.Protocol != core.ProtocolTradLog {
		return err
	}
	return p.raiseIntentFloors(logs)
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
func (p *pass) readLogs() ([]nodeLogs, error) {
	m, ev, stats := p.m, p.ev, &p.stats
	region := kvlayout.LogRegionID(ev.Node)
	var logs []nodeLogs
	for _, n := range m.logNodes(ev.Node) {
		if !m.cfg.Fabric.IsDown(n) && m.cfg.Fabric.LookupRegion(n, region) != nil {
			logs = append(logs, nodeLogs{node: n})
		}
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
	if err := p.post(StepLogPrefix, b); err != nil {
		return nil, err
	}

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

	// Doorbell 2 — the tails, if any.
	stats.LogTailReads = len(tails)
	b.Reset()
	for _, r := range tails {
		b.AddRead(r.at, (*r.img)[kvlayout.LogPrefixSize:])
	}
	if err := p.post(StepLogTail, b); err != nil {
		return nil, err
	}
	for i, op := range b.Ops() {
		if op.Err != nil {
			lost[tails[i].node] = true
			continue
		}
		stats.LogBytesRead += len(op.Buf)
	}

	// Surviving copies suffice; a server that died mid-read contributes none.
	kept := logs[:0]
	for i, l := range logs {
		if !lost[i] {
			kept = append(kept, l)
		}
	}
	if len(kept) == 0 && len(logs) > 0 {
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
	for slot, coord := range ev.Coords[:min(len(ev.Coords), m.cfg.CoordsPerNode)] {
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
// locks in one pass of two doorbells, however many there are: they hold
// disjoint lock sets, so nothing orders them against each other
// (DESIGN.md §4b "Log recovery is one pass"). Per-op errors are tolerated
// throughout — the verb struck a server that died mid-pass, and what this
// pass missed a re-executed one or a stealer repairs. guard:
// the lock words are still where the dead transactions took them.
func (p *pass) settle(txs []strayTx, guard bool) error {
	m, ring := p.m, p.m.Ring()
	// Doorbell 1 — observe, per logged write, the version word on every live
	// replica (commit needed only those); on the partition's first replica,
	// where the transaction locked, the READ starts one word earlier, at the lock.
	type logged struct {
		tx    int // index into txs
		w     kvlayout.LogWrite
		reads []*rdma.Op // per live replica, the live primary first
		word  uint64     // the lock word the transaction took (core's Tx.lockWord)
		held  bool       // the word is still on the write
	}
	version := func(op *rdma.Op) uint64 { return kvlayout.Uint64(op.Buf[len(op.Buf)-8:]) }
	var writes []logged
	obs := rdma.GetBatch()
	defer obs.Put()
	for t, tx := range txs {
		for _, w := range tx.writes {
			l := logged{tx: t, w: w, word: kvlayout.LockWord(tx.coord, uint32(tx.txID))}
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
	if err := p.post(StepObserve, obs); err != nil {
		return err
	}

	// Roll forward iff every live replica of every write carries the logged
	// new version: the client may have been commit-acked (Cor3), so the
	// updates stay. Otherwise a commit-ack is impossible and undoing is safe
	// (an abort-ack needs nothing updated, and then nothing is undone). Only
	// writes still under the dead transaction's lock vote: once an earlier
	// pass released one, a live commit may have moved its version, to
	// NewVersion even (versions step by one). Held too: a free lock over an
	// old primary (that pass, torn: it undoes before it unlocks) and no lock
	// word to go by (guard off, first replica dead, READ failed).
	verdict := make([]struct{ held, back bool }, len(txs))
	for i := range writes {
		l, own := &writes[i], writes[i].reads[0]
		l.held = !guard || own.Err != nil || len(own.Buf) != 16 || kvlayout.Uint64(own.Buf) == l.word ||
			kvlayout.Uint64(own.Buf) == 0 && version(own) == l.w.OldVersion
		v := &verdict[l.tx]
		v.held = v.held || l.held
		for _, op := range l.reads {
			v.back = v.back || l.held && op.Err == nil && version(op) != l.w.NewVersion
		}
	}
	for i := range verdict {
		if v := &verdict[i]; v.back || !v.held { // none held: back, which undoes nothing
			v.back = true
			p.stats.RolledBack++
		} else {
			p.stats.RolledForward++
		}
	}

	// Doorbell 2 — act, in coordSlot order, per write: the undo image on the
	// replicas that carry the new version, then the unlock CAS guarded by the
	// transaction's own lock word — re-execution and races with live
	// transactions release nothing.
	act := rdma.GetBatch()
	defer act.Put()
	for _, l := range writes {
		own := l.reads[0]
		if verdict[l.tx].back && l.held {
			image := kvlayout.RollbackImage(m.cfg.Schema[l.w.Table], l.w)
			for _, op := range l.reads {
				if op.Err == nil && version(op) == l.w.NewVersion {
					act.AddWrite(m.slotWord(op.Addr.Node, l.w, kvlayout.SlotVersionOff), image)
				}
			}
		}
		act.AddCAS(m.slotWord(own.Addr.Node, l.w, kvlayout.SlotLockOff), l.word, 0)
	}
	return p.post(StepAct, act)
}

// truncateAll invalidates every log area of the failed node on every
// log node: one parallel round of 8-byte writes.
func (p *pass) truncateAll() error {
	m, ev := p.m, p.ev
	region := kvlayout.LogRegionID(ev.Node)
	b := rdma.GetBatch()
	defer b.Put()
	for _, n := range m.logNodes(ev.Node) {
		if m.cfg.Fabric.IsDown(n) || m.cfg.Fabric.LookupRegion(n, region) == nil {
			continue
		}
		for slot := range min(len(ev.Coords), m.cfg.CoordsPerNode) {
			b.AddWrite(rdma.Addr{Node: n, Region: region, Offset: kvlayout.LogAreaOffset(slot) + kvlayout.TxLogOff}, kvlayout.TruncateWord[:])
		}
	}
	return p.post(StepTruncate, b)
}

// latestIntents returns coordinator slot's latest transaction's lock
// intents; of two copies of them, the one an intent WRITE did not miss.
func latestIntents(logs []nodeLogs, slot int) []kvlayout.LockIntent {
	var intents []kvlayout.LockIntent
	for _, l := range logs {
		got := kvlayout.DecodeLockIntents(l.areas[slot].intents)
		if len(got) > 0 && (len(intents) == 0 || got[0].TxID > intents[0].TxID ||
			got[0].TxID == intents[0].TxID && len(got) > len(intents)) {
			intents = got
		}
	}
	return intents
}

// releaseIntentLocks implements the traditional scheme's stray-lock
// release: from each coordinator's lock-intent log, the latest (not-logged)
// transaction's locks are CAS-released, every coordinator's in one
// doorbell. Each CAS is guarded by the dead transaction's own lock word, so
// a pass cut before raiseIntentFloors releases nothing on re-execution it
// should not.
func (p *pass) releaseIntentLocks(logs []nodeLogs) error {
	m, ev, ring := p.m, p.ev, p.m.Ring()
	live := func(n rdma.NodeID) bool { return !m.cfg.Fabric.IsDown(n) }
	cas := rdma.GetBatch()
	defer cas.Put()
	for slot, coord := range ev.Coords[:min(len(ev.Coords), m.cfg.CoordsPerNode)] {
		intents := latestIntents(logs, slot)
		for _, li := range intents {
			if primary, ok := ring.Primary(li.Partition, live); ok {
				w := kvlayout.LogWrite{Table: li.Table, Partition: li.Partition, Slot: li.Slot}
				cas.AddCAS(m.slotWord(primary, w, kvlayout.SlotLockOff), kvlayout.LockWord(coord, uint32(intents[0].TxID)), 0)
			}
		}
	}
	if err := p.post(StepIntentRelease, cas); err != nil {
		return err
	}
	for _, op := range cas.Ops() {
		if op.Err == nil && op.Swapped {
			p.stats.StrayLocksFreed++
		}
	}
	return nil
}

// raiseIntentFloors raises every coordinator's lock-intent floor to its
// latest transaction's id, on every log server, in one doorbell, so a
// re-executed pass releases no intent lock again.
func (p *pass) raiseIntentFloors(logs []nodeLogs) error {
	m, ev := p.m, p.ev
	floors := rdma.GetBatch()
	defer floors.Put()
	for slot := range min(len(ev.Coords), m.cfg.CoordsPerNode) {
		intents := latestIntents(logs, slot)
		if len(intents) == 0 {
			continue
		}
		floor := floors.Bytes(8)
		kvlayout.PutUint64(floor, intents[0].TxID)
		for _, l := range logs {
			floors.AddWrite(rdma.Addr{Node: l.node, Region: kvlayout.LogRegionID(ev.Node), Offset: kvlayout.LogAreaOffset(slot) + kvlayout.LockLogOff}, floor)
		}
	}
	return p.post(StepIntentFloor, floors)
}
