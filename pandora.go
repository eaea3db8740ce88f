// Package pandora is an in-process reproduction of Pandora — "Fast,
// Highly Available, and Recoverable Transactions on Disaggregated Data
// Stores" (EDBT 2025) — a fully one-sided transactional protocol for
// disaggregated key-value stores with fast, non-blocking, correct
// recovery from independent compute and memory failures.
//
// A Cluster wires together simulated memory servers (passive memory
// reachable through one-sided RDMA verbs), compute servers running the
// transactional protocol, a failure detector, and the recovery manager.
// Applications open a Session on a coordinator and run transactions:
//
//	c, err := pandora.New(pandora.Config{
//		Tables: []pandora.TableSpec{{Name: "accounts", ValueSize: 16, Capacity: 10000}},
//	})
//	...
//	s := c.Session(0, 0)
//	tx := s.Begin()
//	v, _ := tx.Read("accounts", 42)
//	_ = tx.Write("accounts", 42, newBalance)
//	err = tx.Commit()
//
// Transactions are strictly serializable. Crashing a compute node
// (Cluster.FailCompute) exercises the paper's recovery path: locks of
// the failed node become stealable (PILL), its logged transactions are
// rolled forward or back, and the surviving nodes keep executing
// throughout.
package pandora

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"pandora/internal/cache"
	"pandora/internal/core"
	"pandora/internal/fdetect"
	"pandora/internal/kvlayout"
	"pandora/internal/memnode"
	"pandora/internal/metrics"
	"pandora/internal/place"
	"pandora/internal/quorum"
	"pandora/internal/rdma"
	"pandora/internal/reconfig"
	"pandora/internal/recovery"
)

// NodeID identifies a node on the simulated RDMA fabric.
type NodeID = rdma.NodeID

// Key is an 8-byte object key.
type Key = kvlayout.Key

// Protocol selects the transactional protocol variant.
type Protocol = core.Protocol

// Protocol variants re-exported from the engine.
const (
	ProtocolPandora = core.ProtocolPandora
	ProtocolFORD    = core.ProtocolFORD
	ProtocolTradLog = core.ProtocolTradLog
)

// Bugs re-exports the seeded Table-1 bug toggles for the litmus tooling.
type Bugs = core.Bugs

// RecoveryStats re-exports per-recovery statistics.
type RecoveryStats = recovery.Stats

// Metrics is a point-in-time snapshot of the cluster's always-on
// observability registry: per-phase latency histograms (virtual time),
// the typed abort taxonomy, and per-destination fabric verb counters.
type Metrics = metrics.Snapshot

// AbortKind is the typed abort-reason taxonomy.
type AbortKind = metrics.AbortReason

// Abort kinds re-exported from the metrics taxonomy.
const (
	AbortValidationVersion = metrics.AbortValidationVersion
	AbortLockConflict      = metrics.AbortLockConflict
	AbortSteal             = metrics.AbortSteal
	AbortFault             = metrics.AbortFault
	AbortCacheStale        = metrics.AbortCacheStale
	AbortOther             = metrics.AbortOther
	AbortReconfig          = metrics.AbortReconfig
)

// AbortKindOf extracts the typed abort reason from a transaction error.
// ok is false when the error is not an abort.
func AbortKindOf(err error) (kind AbortKind, ok bool) { return core.AbortKindOf(err) }

// TableSpec declares one table of the store.
type TableSpec struct {
	Name string
	// ValueSize is the fixed value size in bytes (the paper's benchmarks
	// use 672/48/16/40 B).
	ValueSize int
	// Capacity is the number of keys the table must hold. Each partition
	// gets ⌈(p + 4√p) / 0.4⌉ + 32 slots, p = Capacity/Partitions + 1, so
	// even the most loaded partition stays under 40 % full at Capacity.
	Capacity int
}

// Config configures a Cluster. The zero value of each field gets a
// sensible default matching the paper's testbed shape (2 memory + 2
// compute nodes, f+1 = 2).
type Config struct {
	MemoryNodes         int
	ComputeNodes        int
	CoordinatorsPerNode int
	// Replication is f+1, the number of replicas per partition and log.
	Replication int
	Partitions  uint32
	Tables      []TableSpec

	Protocol        Protocol
	DisablePILL     bool
	StallOnConflict bool
	// SeedBugs enables the Table-1 FORD bugs for litmus validation.
	SeedBugs Bugs

	// ModelLatency attaches the paper-testbed latency model (2 µs RTT,
	// 100 Gbps) so virtual clocks measure realistic verb costs.
	ModelLatency bool

	// LossProb and DupProb inject transport-level message loss and
	// duplication (§2.1's failure model). The RC transport masks both —
	// protocol semantics are unaffected; retransmissions are charged to
	// virtual clocks and counted.
	LossProb float64
	DupProb  float64

	// LiveFD runs timeout-based failure detection (§3.2.2 step 1) with
	// FDTimeout (default 5 ms). Without it, failures are injected
	// deterministically via FailCompute/FailMemory.
	LiveFD    bool
	FDTimeout time.Duration

	// VerbTimeout bounds how long any coordinator verb may be held up by
	// a stalled or slow link (StallLink/SlowLink) before failing with
	// rdma.ErrVerbTimeout. The transaction then aborts (or retries its
	// cleanup with backoff) and reports the suspect memory node to the
	// FD — a gray failure degrades to abort-and-retry, never a wedged
	// coordinator. Zero means verbs wait forever (the pre-deadline
	// behaviour; fine when no link faults are injected).
	VerbTimeout time.Duration
	// SuspectThreshold is the number of coordinator suspicion reports at
	// which the FD declares a memory node failed even though it is still
	// up (gray-failure escalation). 0 = default (4); negative
	// disables escalation.
	SuspectThreshold int
	// FDReplicas > 1 runs the distributed failure detector over a quorum
	// ensemble (§3.2.4). Must be odd.
	FDReplicas int

	// Persistence models NVM on the memory servers (§7): commits make
	// the undo log durable before applying and the data durable before
	// acknowledging, via FORD's selective one-sided flush scheme. A
	// memory server's power failure (PowerFailMemory) then loses only
	// unacknowledged writes. Off by default — the paper's default is
	// battery-backed DRAM, where no flushing is needed.
	Persistence bool

	// NoAutoRecover disables automatic recovery on failure events; the
	// caller drives the recovery manager directly.
	NoAutoRecover bool

	// ReadCacheSize sizes each coordinator's validated read cache, in
	// entries. 0 selects the default size; negative disables the cache —
	// the no-cache baseline read-path experiments compare against. A
	// cache hit serves the value compute-side with zero fabric round
	// trips; OCC validation re-reads the version at commit, so a stale
	// hit costs an abort, never a wrong result (DESIGN.md §11).
	ReadCacheSize int
}

func (c *Config) fillDefaults() error {
	if c.MemoryNodes == 0 {
		c.MemoryNodes = 2
	}
	if c.ComputeNodes == 0 {
		c.ComputeNodes = 2
	}
	if c.CoordinatorsPerNode == 0 {
		c.CoordinatorsPerNode = 2
	}
	if c.Replication == 0 {
		c.Replication = 2
	}
	if c.Partitions == 0 {
		c.Partitions = 16
	}
	if len(c.Tables) == 0 {
		return fmt.Errorf("pandora: config needs at least one table")
	}
	if c.Replication > c.MemoryNodes {
		return fmt.Errorf("pandora: replication %d exceeds memory nodes %d", c.Replication, c.MemoryNodes)
	}
	return nil
}

// Fabric node-id layout.
const (
	memNodeBase     = rdma.NodeID(1000)
	rcNodeID        = rdma.NodeID(900)
	reconfigNodeID  = rdma.NodeID(910)
	reconfigNodeID2 = rdma.NodeID(911) // standby coordinator for ReconfigRecover
)

// Cluster is a running DKVS.
type Cluster struct {
	cfg    Config
	fab    *rdma.Fabric
	schema []kvlayout.Table
	mems   []*memnode.Server
	fd     *fdetect.Detector
	store  *quorum.Store
	mgr    *recovery.Manager
	met    *metrics.Registry
	rc     *reconfig.Coordinator
	rc2    *reconfig.Coordinator

	mu      sync.Mutex
	nodes   []*core.ComputeNode
	nextMem rdma.NodeID
	// reconfigHook, when set, fires between journaled migration steps
	// (chaos crash injection).
	reconfigHook func(reconfig.StepEvent) error
	tableID      map[string]kvlayout.TableID
	lastRec      map[rdma.NodeID]RecoveryStats
	// recWake is closed and replaced (under mu) whenever a recovery
	// record lands; waitRecovery blocks on it instead of polling.
	recWake chan struct{}
	closed  bool
}

// maxLoadFactor is the load partitionSlots keeps every partition of a
// full table under. At 40 % a linear-probing chain stays short: simulated
// loads of 12.5k–82k keys per partition displace no key more than 24
// slots from home, against kvlayout.ProbeLimit's 64.
const maxLoadFactor = 0.4

// partitionSlots returns the slots each partition of a table of capacity
// keys is provisioned with. Partition assignment is hashed, so a
// partition's key count spreads around the mean p with a standard
// deviation under √p; p + 4√p bounds the heaviest partition, sized at
// maxLoadFactor, and the fixed 32 slots keep tiny tables' chains short.
func partitionSlots(capacity int, partitions uint32) uint64 {
	p := float64(capacity/int(partitions) + 1)
	return uint64(math.Ceil((p+4*math.Sqrt(p))/maxLoadFactor)) + 32
}

// New builds and starts a cluster.
func New(cfg Config) (*Cluster, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	var lat rdma.LatencyModel
	if cfg.ModelLatency {
		lat = rdma.DefaultLatency()
	}
	c := &Cluster{
		cfg:     cfg,
		fab:     rdma.NewFabric(lat),
		met:     metrics.New(),
		tableID: make(map[string]kvlayout.TableID),
		lastRec: make(map[rdma.NodeID]RecoveryStats),
		recWake: make(chan struct{}),
	}
	c.fab.SetMetrics(c.met)
	if cfg.LossProb > 0 || cfg.DupProb > 0 {
		c.fab.SetFaults(rdma.FaultModel{LossProb: cfg.LossProb, DupProb: cfg.DupProb, Seed: 1})
	}
	if cfg.Persistence {
		c.fab.EnablePersistence()
	}
	for i, ts := range cfg.Tables {
		if ts.ValueSize <= 0 || ts.Capacity <= 0 {
			return nil, fmt.Errorf("pandora: table %q needs positive ValueSize and Capacity", ts.Name)
		}
		if _, dup := c.tableID[ts.Name]; dup {
			return nil, fmt.Errorf("pandora: duplicate table %q", ts.Name)
		}
		slots := partitionSlots(ts.Capacity, cfg.Partitions)
		if slots > core.MaxSlots {
			return nil, fmt.Errorf("pandora: table %q needs %d slots per partition, more than %d", ts.Name, slots, uint64(core.MaxSlots))
		}
		c.schema = append(c.schema, kvlayout.Table{
			ID:        kvlayout.TableID(i),
			ValueSize: ts.ValueSize,
			Slots:     slots,
		})
		c.tableID[ts.Name] = kvlayout.TableID(i)
	}

	memIDs := make([]rdma.NodeID, cfg.MemoryNodes)
	for i := range memIDs {
		memIDs[i] = memNodeBase + rdma.NodeID(i)
	}
	ring := place.New(memIDs, cfg.Replication, cfg.Partitions)
	for _, id := range memIDs {
		c.mems = append(c.mems, memnode.NewServer(c.fab, id, ring, c.schema))
	}

	if cfg.FDReplicas > 1 {
		c.store = quorum.NewStore(cfg.FDReplicas)
	}
	c.fd = fdetect.New(fdetect.Config{
		Timeout:          cfg.FDTimeout,
		Replicas:         max(1, cfg.FDReplicas),
		Store:            c.store,
		SuspectThreshold: cfg.SuspectThreshold,
		// A compute process is alive until it crashes, a memory server
		// until it goes down: the sweep reads both fabric flags.
		Alive: func(n rdma.NodeID) bool { return !c.fab.IsCrashed(n) && !c.fab.IsDown(n) },
	})
	for _, id := range memIDs {
		c.fd.RegisterMemory(id)
	}

	opts := c.engineOptions()
	var peers []recovery.ComputePeer
	view := place.NewView(ring)
	for i := 0; i < cfg.ComputeNodes; i++ {
		nodeID := rdma.NodeID(i)
		ids, err := c.fd.RegisterCompute(nodeID, cfg.CoordinatorsPerNode)
		if err != nil {
			return nil, err
		}
		cn := core.NewComputeNode(c.fab, nodeID, view, c.schema, ids, opts)
		cn.SetSuspectReporter(func(n rdma.NodeID) { c.fd.Suspect(n) })
		for _, m := range c.mems {
			m.EnsureLogRegion(nodeID, cfg.CoordinatorsPerNode)
		}
		c.nodes = append(c.nodes, cn)
		peers = append(peers, cn)
	}

	c.fab.AddNode(rcNodeID)
	c.mgr = recovery.NewManager(recovery.Config{
		Fabric:        c.fab,
		Ring:          ring,
		Schema:        c.schema,
		Mems:          c.mems,
		Peers:         peers,
		Protocol:      cfg.Protocol,
		CoordsPerNode: cfg.CoordinatorsPerNode,
		RCNode:        rcNodeID,
		Metrics:       c.met,
	})

	c.nextMem = memNodeBase + rdma.NodeID(cfg.MemoryNodes)
	rcCfg := reconfig.Config{
		Fabric:  c.fab,
		Schema:  c.schema,
		Mgr:     c.mgr,
		Node:    reconfigNodeID,
		Metrics: c.met,
		OnStep:  c.fireReconfigHook,
	}
	c.rc = reconfig.NewCoordinator(rcCfg)
	// The standby coordinator drives ReconfigRecover from its own fabric
	// node, modelling a second live process taking over an orphaned
	// migration; it never fires the chaos hook (the crash already
	// happened).
	rcCfg.Node, rcCfg.OnStep = reconfigNodeID2, nil
	c.rc2 = reconfig.NewCoordinator(rcCfg)

	if !cfg.NoAutoRecover {
		c.fd.Subscribe(c.onFailure)
	}
	if cfg.LiveFD {
		c.fd.Start()
	}
	return c, nil
}

// onFailure is the FD subscription driving automatic recovery. A pass whose
// recovery coordinator died (rdma.ErrCrashed) is run again at once (§3.2.3);
// one cut again the manager finishes before its next operation.
func (c *Cluster) onFailure(ev fdetect.Event) {
	switch ev.Kind {
	case fdetect.Compute:
		stats, err := c.mgr.RecoverCompute(ev)
		if errors.Is(err, rdma.ErrCrashed) {
			stats, err = c.mgr.RecoverCompute(ev)
		}
		if err == nil {
			c.mu.Lock()
			c.lastRec[ev.Node] = stats
			close(c.recWake)
			c.recWake = make(chan struct{})
			c.mu.Unlock()
		}
	case fdetect.Memory:
		// Fence first: a gray-failed node (declared failed by suspicion
		// escalation while still serving) is taken down before recovery
		// reconfigures around it. This both prevents a zombie memory
		// server from serving stale primaries and converts verbs still
		// retrying toward it into ErrNodeDown — which transactions
		// tolerate — so in-flight work drains and the stop-the-world
		// pause in RecoverMemory can proceed.
		if srv := c.memByID(ev.Node); srv != nil && !srv.Down() {
			srv.Crash()
		}
		_ = c.mgr.RecoverMemory(ev)
	}
}

// Close shuts the cluster down.
func (c *Cluster) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	if c.cfg.LiveFD {
		c.fd.Stop()
	}
}

// engineOptions is the core.Options every compute node of the cluster
// runs with — New's nodes and RestartCompute's alike.
func (c *Cluster) engineOptions() core.Options {
	return core.Options{
		Protocol:        c.cfg.Protocol,
		Bugs:            c.cfg.SeedBugs,
		DisablePILL:     c.cfg.DisablePILL,
		StallOnConflict: c.cfg.StallOnConflict,
		Persist:         c.cfg.Persistence,
		VerbTimeout:     c.cfg.VerbTimeout,
		ReadCacheSize:   c.cfg.ReadCacheSize,
		Metrics:         c.met,
	}
}

// KV is one preloaded key-value pair.
type KV struct {
	Key   Key
	Value []byte
}

// Load bulk-loads items into a table before (or between) runs. Items are
// loaded on every replica of their partition: one counting pass sorts
// them by partition, keeping item order within each, and then every
// memory server loads its own replicas on its own goroutine. Each
// region is written by one goroutine in item order, so the layout does
// not depend on scheduling.
func (c *Cluster) Load(table string, items []KV) error {
	id, ok := c.tableID[table]
	if !ok {
		return fmt.Errorf("pandora: unknown table %q", table)
	}
	ring := c.mgr.Ring()
	part := make([]uint32, len(items))
	start := make([]int, ring.Partitions()+1)
	for i, kv := range items {
		part[i] = ring.Partition(kv.Key)
		start[part[i]+1]++
	}
	for p := 1; p < len(start); p++ {
		start[p] += start[p-1]
	}
	sorted := make([]memnode.Item, len(items))
	next := append([]int(nil), start...)
	for i, kv := range items {
		sorted[next[part[i]]] = memnode.Item{Key: kv.Key, Value: kv.Value}
		next[part[i]]++
	}

	mems := c.memList()
	jobs := make([][]uint32, len(mems))
	for p := uint32(0); p < ring.Partitions(); p++ {
		if start[p] == start[p+1] {
			continue
		}
		for _, rep := range ring.Replicas(p) {
			i := slices.IndexFunc(mems, func(m *memnode.Server) bool { return m.ID() == rep })
			if i < 0 {
				return fmt.Errorf("pandora: no memory server %d", rep)
			}
			jobs[i] = append(jobs[i], p)
		}
	}
	errs := make([]error, len(mems))
	var wg sync.WaitGroup
	for i, parts := range jobs {
		if len(parts) == 0 {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, p := range parts {
				if _, err := mems[i].Preload(id, p, sorted[start[p]:start[p+1]]); err != nil {
					errs[i] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// LoadN preloads keys 0..n-1 with values produced by value(k).
func (c *Cluster) LoadN(table string, n int, value func(Key) []byte) error {
	items := make([]KV, n)
	for i := range items {
		items[i] = KV{Key: Key(i), Value: value(Key(i))}
	}
	return c.Load(table, items)
}

func (c *Cluster) memByID(id rdma.NodeID) *memnode.Server {
	for _, m := range c.memList() {
		if m.ID() == id {
			return m
		}
	}
	return nil
}

// memList snapshots the memory-server set under the cluster lock
// (Rereplicate swaps entries concurrently with loads and audits).
func (c *Cluster) memList() []*memnode.Server {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*memnode.Server(nil), c.mems...)
}

// mem returns memory server i (current instance, post-Rereplicate
// aware).
func (c *Cluster) mem(i int) *memnode.Server {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mems[i]
}

// TableID resolves a table name; it panics on unknown names (a
// programming error).
func (c *Cluster) TableID(name string) kvlayout.TableID {
	id, ok := c.tableID[name]
	if !ok {
		panic(fmt.Sprintf("pandora: unknown table %q", name))
	}
	return id
}

// ComputeNodes returns the number of compute nodes.
func (c *Cluster) ComputeNodes() int { return len(c.nodes) }

// MemoryNodes returns the number of memory nodes.
func (c *Cluster) MemoryNodes() int { return len(c.mems) }

// CoordinatorsPerNode returns the configured coordinator count.
func (c *Cluster) CoordinatorsPerNode() int { return c.cfg.CoordinatorsPerNode }

// node returns compute node i (current instance, post-restart aware).
func (c *Cluster) node(i int) *core.ComputeNode {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes[i]
}

// Engine exposes the underlying compute node for advanced use (crash
// injection in the litmus framework, clock attachment in benches).
func (c *Cluster) Engine(node int) *core.ComputeNode { return c.node(node) }

// CacheStats is the per-coordinator validated read cache counter set
// (hits, misses, puts, invalidations, evictions).
type CacheStats = cache.Stats

// ReadCacheStats returns one coordinator's validated read cache
// counters (all zero when the cache is disabled via a negative
// Config.ReadCacheSize).
func (c *Cluster) ReadCacheStats(node, coord int) CacheStats {
	return c.node(node).Coordinator(coord).ReadCacheStats()
}

// AttachClock attaches a fresh virtual clock to a coordinator and
// returns it; subsequent transactions on that session charge modelled
// network time to it (requires ModelLatency for non-zero charges).
func (c *Cluster) AttachClock(node, coord int) *rdma.VClock {
	clk := &rdma.VClock{}
	c.node(node).Coordinator(coord).WithClock(clk)
	return clk
}

// MetricsSnapshot returns a consistent point-in-time copy of the
// cluster's metrics registry: phase latency histograms with
// p50/p95/p99, abort counts by typed reason, and per-(node, verb)
// fabric counters. Snapshots can be diffed with Sub to isolate one
// experiment's contribution.
func (c *Cluster) MetricsSnapshot() Metrics { return c.met.Snapshot() }

// MetricsRegistry exposes the live registry for wiring into auxiliary
// components (e.g. a manually driven recovery manager).
func (c *Cluster) MetricsRegistry() *metrics.Registry { return c.met }

// Recovery exposes the recovery manager.
func (c *Cluster) Recovery() *recovery.Manager { return c.mgr }

// Detector exposes the failure detector.
func (c *Cluster) Detector() *fdetect.Detector { return c.fd }

// ConsistencyReport is the result of CheckConsistency.
type ConsistencyReport struct {
	// DuplicateKeys lists keys present in more than one slot of a
	// partition (must never happen).
	DuplicateKeys []Key
	// DivergentKeys lists keys whose replicas disagree on value or
	// version (only meaningful on a quiescent cluster).
	DivergentKeys []Key
	// LockedSlots counts slots with held locks (non-zero on a quiescent
	// cluster indicates stray locks).
	LockedSlots int
	// StrayLocks counts the subset of LockedSlots whose owner the placement
	// view announces failed. These are legitimate residue of failures
	// (PILL steals or the recycling scan reclaims them); a quiescent
	// cluster must have LockedSlots == StrayLocks, and zero of both
	// after RecycleCoordinatorIDs.
	StrayLocks int
	// Locks names every slot LockedSlots counts, in scan order.
	Locks []LockedSlot
	// Keys is the number of distinct present keys found.
	Keys int
}

// LockedSlot is one slot CheckConsistency found locked.
type LockedSlot struct {
	Memory    rdma.NodeID // the memory server scanned
	Partition uint32
	Slot      uint64
	// Key is the key the slot carries — committed, or claimed by an
	// in-flight insert — and KeyField the raw key field it was read from.
	Key      Key
	KeyField uint64
	Word     uint64           // the lock word
	Owner    kvlayout.CoordID // the coordinator the word names
	// Failed reports that the placement view announces the owner failed: a
	// stray lock, PILL's to steal, or a logged word still to settle.
	Failed bool
}

func (l LockedSlot) String() string {
	key := fmt.Sprintf("key %d", l.Key)
	switch {
	case l.KeyField == 0 || l.KeyField == kvlayout.TombstoneKeyField:
		key = fmt.Sprintf("no key (key field %#x)", l.KeyField)
	case kvlayout.IsClaim(l.KeyField):
		key = fmt.Sprintf("claim of key %d", l.Key)
	}
	return fmt.Sprintf("memory %d partition %d slot %d: %s, lock word %#x, owner coordinator %d (failed %t)",
		l.Memory, l.Partition, l.Slot, key, l.Word, l.Owner, l.Failed)
}

// CheckConsistency host-scans every replica of a table and verifies the
// structural invariants: no key occupies two slots of a partition, and
// all live replicas agree byte-for-byte on version and value. Run it on
// a quiescent cluster (tests, post-recovery audits).
func (c *Cluster) CheckConsistency(table string) (ConsistencyReport, error) {
	id, ok := c.tableID[table]
	if !ok {
		return ConsistencyReport{}, fmt.Errorf("pandora: unknown table %q", table)
	}
	var rep ConsistencyReport
	view := c.mgr.View()
	ring, failed := view.Ring(), view.FailedIDs()
	for p := uint32(0); p < ring.Partitions(); p++ {
		type state struct {
			version uint64
			value   string
			slots   int
		}
		perReplica := make(map[rdma.NodeID]map[Key]state)
		for _, n := range ring.Replicas(p) {
			if c.fab.IsDown(n) {
				continue
			}
			srv := c.memByID(n)
			seen := make(map[Key]state)
			err := srv.ScanSlots(id, p, func(slot uint64, sl kvlayout.Slot, kf uint64) {
				if kvlayout.IsLocked(sl.Lock) {
					owner := kvlayout.LockOwner(sl.Lock)
					l := LockedSlot{Memory: n, Partition: p, Slot: slot, Key: sl.Key, KeyField: kf,
						Word: sl.Lock, Owner: owner, Failed: slices.Contains(failed, owner)}
					if kvlayout.IsClaim(kf) {
						l.Key = kvlayout.ClaimKey(kf)
					}
					rep.Locks = append(rep.Locks, l)
					rep.LockedSlots++
					if l.Failed {
						rep.StrayLocks++
					}
				}
				if !sl.Present {
					return
				}
				st := seen[sl.Key]
				st.slots++
				st.version = sl.Version
				st.value = string(sl.Value)
				seen[sl.Key] = st
			})
			if err != nil {
				return rep, err
			}
			perReplica[n] = seen
		}
		// Duplicate slots within one replica.
		var primarySeen map[Key]state
		for _, seen := range perReplica {
			for k, st := range seen {
				if st.slots > 1 {
					rep.DuplicateKeys = append(rep.DuplicateKeys, k)
				}
			}
			if primarySeen == nil {
				primarySeen = seen
			}
		}
		// Replica divergence.
		for k, st := range primarySeen {
			rep.Keys++
			for _, seen := range perReplica {
				o, ok := seen[k]
				if !ok || o.version != st.version || o.value != st.value {
					rep.DivergentKeys = append(rep.DivergentKeys, k)
					break
				}
			}
		}
	}
	return rep, nil
}
