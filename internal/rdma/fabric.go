package rdma

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"pandora/internal/metrics"
)

// Fabric is the switched network connecting every node's NIC. It owns
// node state (registered regions, liveness, revocation sets) and hands
// out endpoints.
type Fabric struct {
	mu    sync.RWMutex
	nodes map[NodeID]*nodeState
	lat   LatencyModel

	// handles resolves a verb's (node, region) to its node state and
	// region with one atomic load and one map read (Endpoint.lookup). The
	// map is immutable; RegisterRegion, the only event that adds a
	// handle, republishes a copy under mu. Nodes and regions are never
	// removed, so a handle never goes stale, and rights are not in it.
	handles atomic.Pointer[map[uint64]handleRef]

	// faults optionally injects transport-level loss/duplication, masked
	// by the RC transport (see FaultModel). Atomic so the hot path reads
	// it lock-free.
	faults atomic.Pointer[faultState]

	// links holds per-(src,dst) fault rules: partitions, stalls and
	// slowdowns that the RC transport cannot mask (see links.go).
	links linkTable

	// persist models NVM on memory nodes (see persist.go).
	persist atomic.Bool

	// met optionally counts every posted verb (issued / retried /
	// deadline-expired / faulted, per destination node). Atomic so the
	// verb path pays one load and a nil check when detached.
	met atomic.Pointer[metrics.Registry]
}

// SetMetrics attaches (or, with nil, detaches) the verb-counter sink.
func (f *Fabric) SetMetrics(m *metrics.Registry) { f.met.Store(m) }

// countVerb reports one posted verb: issued always; retried when the
// transport rolled retransmissions (fault > 0); the outcome from the
// completion error — a deadline expiry counts as such, every other
// error (partition, node down, revocation, crash, missing region) as
// faulted. No-op when no sink is attached.
func (f *Fabric) countVerb(lane uint32, op *Op, fault time.Duration) {
	m := f.met.Load()
	if m == nil {
		return
	}
	outcome := metrics.VerbOK
	switch {
	case op.Err == nil:
	case errors.Is(op.Err, ErrVerbTimeout):
		outcome = metrics.VerbDeadlineExpired
	default:
		outcome = metrics.VerbFaulted
	}
	m.CountVerbFrom(lane, uint16(op.Addr.Node), metrics.Verb(op.Kind), fault > 0, outcome)
}

// handleRef is one entry of Fabric.handles.
type handleRef struct {
	ns *nodeState
	r  *Region
}

func handleKey(node NodeID, region RegionID) uint64 {
	return uint64(node)<<32 | uint64(region)
}

// nodeState carries one node's fabric-visible state. Each node also
// owns one shard of the in-flight verb barrier: every verb targeting
// the node holds verbs.RLock for its whole execution (rights check +
// memory operation), and state transitions that must fence in-flight
// work — revocation (active-link termination), node crash/down — take
// the write side, which waits for outstanding verbs to land, exactly as
// a real QP transition to the error state flushes outstanding work
// requests. Sharding the barrier per node means verbs to different
// memory nodes never contend on one global lock, while a fence still
// linearizes against every verb that could touch the fenced node.
type nodeState struct {
	verbs laneRW

	mu      sync.RWMutex // guards regions and revoked
	regions map[RegionID]*Region
	// revoked holds the endpoints whose access rights to this node have
	// been terminated.
	revoked map[NodeID]bool

	// down/crashed/nrevoked are read lock-free on the verb path; they
	// are only written under verbs.Lock (the fence), which is what makes
	// the transition visible to — and ordered against — every in-flight
	// verb.
	down     atomic.Bool
	crashed  atomic.Bool // for compute endpoints: local crash flag
	nrevoked atomic.Int32
}

// isRevoked reports whether from's rights to this node are terminated.
// Callers check nrevoked first so the common no-revocations case costs
// one atomic load.
func (ns *nodeState) isRevoked(from NodeID) bool {
	ns.mu.RLock()
	ok := ns.revoked[from]
	ns.mu.RUnlock()
	return ok
}

// NewFabric creates a fabric with the given latency model. A zero-value
// LatencyModel charges no time.
func NewFabric(lat LatencyModel) *Fabric {
	f := &Fabric{nodes: make(map[NodeID]*nodeState), lat: lat}
	f.handles.Store(&map[uint64]handleRef{})
	f.links.init()
	return f
}

// Latency returns the fabric's latency model.
func (f *Fabric) Latency() LatencyModel { return f.lat }

func newNodeState() *nodeState {
	return &nodeState{
		regions: make(map[RegionID]*Region),
		revoked: make(map[NodeID]bool),
	}
}

// AddNode attaches a node to the fabric. It panics if the id is already
// in use, which indicates a wiring bug.
func (f *Fabric) AddNode(id NodeID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.nodes[id]; ok {
		panic(fmt.Sprintf("rdma: node %d already attached", id))
	}
	f.nodes[id] = newNodeState()
}

// EnsureNode attaches a node if it is not already attached. Used when a
// restarted compute server rejoins under its existing fabric identity.
func (f *Fabric) EnsureNode(id NodeID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.nodes[id]; ok {
		return
	}
	f.nodes[id] = newNodeState()
}

func (f *Fabric) node(id NodeID) *nodeState {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.nodes[id]
}

// RegisterRegion registers a memory region of the given size on a node
// and returns it for host-local access.
func (f *Fabric) RegisterRegion(node NodeID, id RegionID, size int) *Region {
	r := NewRegion(size) // allocated before taking mu, which every node lookup shares
	f.mu.Lock()
	defer f.mu.Unlock()
	ns := f.nodes[node]
	if ns == nil {
		panic(fmt.Sprintf("rdma: register region on unknown node %d", node))
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if _, ok := ns.regions[id]; ok {
		panic(fmt.Sprintf("rdma: region %d already registered on node %d", id, node))
	}
	ns.regions[id] = r
	next := maps.Clone(*f.handles.Load())
	next[handleKey(node, id)] = handleRef{ns: ns, r: r}
	f.handles.Store(&next)
	return r
}

// LookupRegion returns a previously registered region, or nil.
func (f *Fabric) LookupRegion(node NodeID, id RegionID) *Region {
	ns := f.node(node)
	if ns == nil {
		return nil
	}
	ns.mu.RLock()
	defer ns.mu.RUnlock()
	return ns.regions[id]
}

// Revoke terminates endpoint from's access rights to the memory of node
// target ("active-link termination", Cor1). Idempotent.
func (f *Fabric) Revoke(target, from NodeID) {
	ns := f.node(target)
	if ns == nil {
		return
	}
	ns.verbs.Lock() // fence: wait for in-flight verbs to target, then cut rights
	ns.mu.Lock()
	if !ns.revoked[from] {
		ns.revoked[from] = true
		ns.nrevoked.Add(1)
	}
	ns.mu.Unlock()
	ns.verbs.Unlock()
}

// Restore re-grants previously revoked rights, used when a falsely
// suspected node rejoins with a fresh identity.
func (f *Fabric) Restore(target, from NodeID) {
	ns := f.node(target)
	if ns == nil {
		return
	}
	ns.mu.Lock()
	if ns.revoked[from] {
		delete(ns.revoked, from)
		ns.nrevoked.Add(-1)
	}
	ns.mu.Unlock()
}

// SetDown marks a node failed (true) or live (false). Verbs targeting a
// down node fail with ErrNodeDown; its memory contents are preserved so
// that a restarted node can resume (we model fail-stop of the server
// process, and replacement nodes start from fresh regions).
func (f *Fabric) SetDown(node NodeID, down bool) {
	ns := f.node(node)
	if ns == nil {
		return
	}
	ns.verbs.Lock() // fence in-flight verbs to this node across the transition
	ns.down.Store(down)
	ns.verbs.Unlock()
	// Verbs parked on a stalled link to this node must observe the
	// transition (a dead target unblocks them with ErrNodeDown).
	f.links.broadcast()
}

// IsDown reports whether the node is marked failed.
func (f *Fabric) IsDown(node NodeID) bool {
	ns := f.node(node)
	if ns == nil {
		return true
	}
	return ns.down.Load()
}

// SetCrashed marks a (compute) node's local process crashed. Endpoints
// of a crashed node refuse to post verbs with ErrCrashed.
//
// The crash flag is issuer-side: the node's in-flight verbs may target
// any memory node, so the fence must cover every barrier shard, not
// just one. fenceAll acquires the shards in ascending node order (verbs
// hold only a single shard's read side, so this cannot deadlock) and
// guarantees that when SetCrashed returns, all of the crashed node's
// outstanding verbs have landed and no new one can pass the rights
// check.
func (f *Fabric) SetCrashed(node NodeID, crashed bool) {
	ns := f.node(node)
	if ns == nil {
		return
	}
	fenced := f.fenceAll()
	ns.crashed.Store(crashed)
	unfence(fenced)
	// A crashed issuer's verbs parked on stalled links die with
	// ErrCrashed rather than outliving the process.
	f.links.broadcast()
}

// IsCrashed reports whether the node's local process is crashed.
func (f *Fabric) IsCrashed(node NodeID) bool {
	ns := f.node(node)
	if ns == nil {
		return true
	}
	return ns.crashed.Load()
}

// fenceAll write-locks every node's barrier shard in ascending node
// order and returns them for unfence. Verb execution holds at most one
// shard (its target's) read-locked and never blocks while holding it on
// anything but leaf locks, so a globally ordered sweep cannot deadlock.
func (f *Fabric) fenceAll() []*nodeState {
	f.mu.RLock()
	ids := make([]NodeID, 0, len(f.nodes))
	for id := range f.nodes {
		ids = append(ids, id)
	}
	f.mu.RUnlock()
	slices.Sort(ids)
	states := make([]*nodeState, len(ids))
	for i, id := range ids {
		states[i] = f.node(id)
	}
	for _, ns := range states {
		ns.verbs.Lock()
	}
	return states
}

func unfence(states []*nodeState) {
	for i := len(states) - 1; i >= 0; i-- {
		states[i].verbs.Unlock()
	}
}
