package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"pandora/internal/cache"
	"pandora/internal/fdetect"
	"pandora/internal/kvlayout"
	"pandora/internal/place"
	"pandora/internal/rdma"
)

// CrashPoint identifies a protocol step at which a fault injector may
// crash the compute node. The litmus framework injects crashes "after
// any operation" (§5) by triggering on these points.
type CrashPoint int

// Crash points, in protocol order.
const (
	PointBeforeLock CrashPoint = iota
	PointAfterLock
	PointAfterExecRead
	PointAfterFORDLog
	PointAfterValidation
	PointAfterLog
	PointAfterApplyOne // after applying the write to one replica
	PointAfterApplyAll
	PointAfterAck
	PointAfterUnlock
	PointAfterTruncate
	// Reserved: the start of the deleted asynchronous commit-back drain.
	// The slot stays so no later point is renumbered — the values are
	// part of the chaos CLI surface, and proptest repro files store
	// crash_point as an integer.
	_
	// PointAfterRead fires when a Read, or one ReadRange chunk, has
	// returned — the execution-phase boundary where the litmus scheduler
	// interleaves transactions. Appended at the end for the same reason.
	PointAfterRead
)

// CrashInjector decides whether the node crashes at a protocol point.
// Returning true fail-stops the whole compute node immediately. It runs
// on the goroutine posting the stage, which waits while it blocks: the
// litmus scheduler parks transactions there.
type CrashInjector func(coord kvlayout.CoordID, point CrashPoint) bool

// ComputeNode is one compute server: it hosts a set of transaction
// coordinators, the node-local failed-ids bitset, the address cache,
// and the heartbeat loop toward the failure detector.
type ComputeNode struct {
	fab    *rdma.Fabric
	id     rdma.NodeID
	schema []kvlayout.Table
	opts   Options
	// plan is the protocol as this node runs it: fixedPlan(opts.Protocol),
	// rewritten by opts.Bugs (bugs.go).
	plan plan

	// place is everything the node knows about placement — ring, dead
	// memory servers, partitions mid-cutover, its own log servers — as one
	// immutable value replaced whole by Install (DESIGN.md §13). A
	// transaction loads it per lookup and never pins it.
	place atomic.Pointer[placement]
	// failed is the node-local failed-ids set PILL consults. Its one
	// writer is NotifyStrayLocks, which bumps cacheEpoch beside the store.
	failed *fdetect.Bitset

	// cacheEpoch stamps every validated-read-cache entry; any event that
	// could silently change committed state out from under cached values
	// (recovery roll-back announced via stray-lock notification, a memory
	// server dying or returning, a membership change) bumps it, turning
	// every older entry into a miss. Per-key staleness needs no epoch: OCC
	// validation catches it (DESIGN.md §11).
	cacheEpoch atomic.Uint64

	// addrs is the address cache: per table, a key's resolved location
	// packed as partition<<32 | slot (a table has at most MaxSlots slots).
	addrMu sync.RWMutex
	addrs  []map[kvlayout.Key]uint64

	coords []*Coordinator

	// pause is held (read) by every running transaction; memory-failure
	// reconfiguration takes the write side to stop the world (§3.2.5).
	pause   sync.RWMutex
	crashed atomic.Bool

	// injector is nil unless a test or chaos run scripts crashes; the
	// stage executor reads it once per stage (stage.go).
	injector atomic.Pointer[CrashInjector]

	// suspectFn, when set, receives the id of a memory node whose link
	// faulted a verb (timeout or partition) — the coordinator's report
	// to the failure detector's suspicion counter.
	suspectMu sync.RWMutex
	suspectFn func(rdma.NodeID)

	hbStop chan struct{}
	hbWG   sync.WaitGroup

	// stallPoll is the retry interval of the stalling path; tests lower
	// it.
	stallPoll time.Duration
}

// objRef pins an object's physical location.
type objRef struct {
	table     kvlayout.TableID
	key       kvlayout.Key
	partition uint32
	slot      uint64
}

// placement is an installed view plus what this node derives from it.
type placement struct {
	*place.View
	// logServers are the node's f+1 designated log servers under the
	// view's ring. Intermediate migration rings pin log placement, so they
	// only move with a membership change, installed under Pause.
	logServers []rdma.NodeID
}

// NewComputeNode attaches a compute node to the fabric with view as its
// placement. The coordinator ids must come from the failure detector's
// RegisterCompute so they are globally unique.
func NewComputeNode(fab *rdma.Fabric, id rdma.NodeID, view *place.View, schema []kvlayout.Table, coordIDs []kvlayout.CoordID, opts Options) *ComputeNode {
	cn := &ComputeNode{
		fab:       fab,
		id:        id,
		schema:    schema,
		opts:      opts,
		plan:      seedBugs(fixedPlan(opts.Protocol), opts),
		failed:    fdetect.NewBitset(),
		addrs:     newAddrs(len(schema)),
		hbStop:    make(chan struct{}),
		stallPoll: 20 * time.Microsecond,
	}
	cn.place.Store(&placement{View: view, logServers: view.Ring().LogServers(id)})
	// EnsureNode rather than AddNode: a restarted compute server rejoins
	// under its existing fabric identity (with fresh coordinator-ids).
	fab.EnsureNode(id)
	// Every coordinator endpoint is gated on THIS incarnation's crash
	// flag: after a crash + restart, the fabric node id comes back up
	// for the new incarnation, but the old incarnation's in-flight verbs
	// must never resurrect (a real restart is a new process).
	alive := func() bool { return !cn.crashed.Load() }
	for slot, cid := range coordIDs {
		ep := fab.Endpoint(id).WithGate(alive).WithTimeout(opts.VerbTimeout).WithLane(uint32(cid))
		co := &Coordinator{
			node: cn,
			id:   cid,
			slot: slot,
			ep:   ep,
		}
		if opts.ReadCacheSize >= 0 {
			co.rcache = cache.New(opts.ReadCacheSize)
		}
		cn.coords = append(cn.coords, co)
	}
	return cn
}

// ID returns the compute node's fabric id.
func (cn *ComputeNode) ID() rdma.NodeID { return cn.id }

// Options returns the node's protocol options.
func (cn *ComputeNode) Options() Options { return cn.opts }

// Coordinators returns the node's transaction coordinators.
func (cn *ComputeNode) Coordinators() []*Coordinator { return cn.coords }

// Coordinator returns coordinator i.
func (cn *ComputeNode) Coordinator(i int) *Coordinator { return cn.coords[i] }

// Ring returns the ring of the node's current placement view.
func (cn *ComputeNode) Ring() *place.Ring { return cn.place.Load().Ring() }

// SetPersist toggles the NVM flush discipline (Options.Persist). Call
// only while the node is quiescent.
func (cn *ComputeNode) SetPersist(on bool) {
	cn.opts.Persist = on
}

// SetAsyncCommitBack does nothing and stores nothing: every acked
// commit's tail is posted at the ack and paid by the coordinator's next
// doorbell (DESIGN.md §16). It stays only for its remaining caller, the
// commit probe at benchmark/probes.go:358-361.
//
// Deprecated: there is one post-ack path; the call has no effect.
func (cn *ComputeNode) SetAsyncCommitBack(bool) {}

// SetUnfusedTail toggles the pre-fusion per-phase commit tail
// (Options.UnfusedCommitTail), the commitpipe experiment's baseline.
// Call only while the node is quiescent.
func (cn *ComputeNode) SetUnfusedTail(on bool) {
	cn.opts.UnfusedCommitTail = on
}

// FlushDrains does nothing: there is no drain queue to flush. A posted
// commit tail has landed when Commit returns; only its charge is left
// for the coordinator's next doorbell. It stays only for its remaining
// callers, benchmark/probes.go:360 and benchmark/run.go:397-398.
//
// Deprecated: there is no drain; the call has no effect.
func (cn *ComputeNode) FlushDrains() {}

// SetInjector installs a crash injector (nil removes it). With an
// injector installed the stage executor offers it every crash point its
// stages declare and runs the segments that have an each-verb point
// verb-at-a-time, so a crash can land between any two of their verbs
// (stage.go).
func (cn *ComputeNode) SetInjector(inj CrashInjector) {
	if inj == nil {
		cn.injector.Store(nil)
		return
	}
	cn.injector.Store(&inj)
}

// SetSuspectReporter installs the callback coordinators use to report a
// memory node whose link faulted a verb (nil removes it). The cluster
// wires this to the failure detector's suspicion counter.
func (cn *ComputeNode) SetSuspectReporter(fn func(rdma.NodeID)) {
	cn.suspectMu.Lock()
	cn.suspectFn = fn
	cn.suspectMu.Unlock()
}

// reportSuspect forwards a suspected memory node to the installed
// reporter, if any.
func (cn *ComputeNode) reportSuspect(n rdma.NodeID) {
	cn.suspectMu.RLock()
	fn := cn.suspectFn
	cn.suspectMu.RUnlock()
	if fn != nil {
		fn(n)
	}
}

// Crash fail-stops the compute node: all coordinators stop issuing
// verbs, heartbeats cease. Memory-side state (locks, logs) survives —
// that is the whole problem recovery solves.
func (cn *ComputeNode) Crash() {
	cn.crashed.Store(true)
	cn.fab.SetCrashed(cn.id, true)
}

// Crashed reports whether the node has crashed.
func (cn *ComputeNode) Crashed() bool { return cn.crashed.Load() }

// Restart clears the crash flag. A restarted node must re-register with
// the FD for fresh coordinator-ids before resuming transactions; this is
// handled at the cluster layer.
func (cn *ComputeNode) Restart() {
	cn.crashed.Store(false)
	cn.fab.SetCrashed(cn.id, false)
}

// offer presents crash point p (none if zero) to inj (none if nil) and,
// if it fires, crashes the node. It returns true when the node is (now)
// crashed.
func (cn *ComputeNode) offer(inj *CrashInjector, coord kvlayout.CoordID, p point) bool {
	if cn.crashed.Load() {
		return true
	}
	if inj != nil && p != 0 && (*inj)(coord, CrashPoint(p-1)) {
		cn.Crash()
		return true
	}
	return false
}

// NotifyStrayLocks is the stray-lock notification of §3.2.2 step 4: the
// recovery manager announces the failed coordinator-ids; this node's
// transactions may steal their locks from now on.
func (cn *ComputeNode) NotifyStrayLocks(ids []kvlayout.CoordID) {
	for _, id := range ids {
		cn.failed.Set(id)
	}
	// The announcement follows log recovery, which may have rolled
	// applied-but-undecided writes back: cached values read before the
	// failure must stop hitting until revalidated.
	cn.cacheEpoch.Add(1)
}

// Install replaces the node's placement view — the only way it changes.
// The recovery manager computes every transition and installs the result
// on every live node (DESIGN.md §13). What the node drops follows from
// what changed: a ring with different members (re-replication onto a
// replacement, a migration's final view) moves slot locations and log
// servers, so the caller must hold Pause and the address cache goes;
// that, or a different dead set — a promoted backup or a restarted NVM
// server may serve an image older than cached values — bumps the cache
// epoch. Marks and a migration's per-partition rings drop nothing: a
// cutover copies slot images byte-identically.
func (cn *ComputeNode) Install(v *place.View) {
	old := cn.place.Swap(&placement{View: v, logServers: v.Ring().LogServers(cn.id)})
	moved := !slices.Equal(old.Ring().Members(), v.Ring().Members())
	if moved {
		addrs := newAddrs(len(cn.schema))
		cn.addrMu.Lock()
		cn.addrs = addrs
		cn.addrMu.Unlock()
	}
	if moved || !slices.Equal(old.DeadNodes(), v.DeadNodes()) {
		cn.cacheEpoch.Add(1)
	}
}

// Pause stops the world on this node: it waits for in-flight
// transactions to finish and blocks new ones until Resume.
func (cn *ComputeNode) Pause() { cn.pause.Lock() }

// Resume lifts a Pause.
func (cn *ComputeNode) Resume() { cn.pause.Unlock() }

// StartHeartbeats launches the heartbeat loop toward the FD at the given
// interval. The loop stops when the node crashes or StopHeartbeats is
// called.
func (cn *ComputeNode) StartHeartbeats(d *fdetect.Detector, interval time.Duration) {
	cn.hbWG.Add(1)
	go func() {
		defer cn.hbWG.Done()
		t := time.NewTicker(interval) //pandora:wallclock heartbeats pace a live failure detector; chaos runs drive detection via explicit Report calls
		defer t.Stop()
		for {
			select {
			case <-cn.hbStop:
				return
			case <-t.C:
				if cn.crashed.Load() {
					return
				}
				d.Heartbeat(cn.id)
			}
		}
	}()
}

// StopHeartbeats terminates the heartbeat loop.
func (cn *ComputeNode) StopHeartbeats() {
	select {
	case <-cn.hbStop:
	default:
		close(cn.hbStop)
	}
	cn.hbWG.Wait()
}

// replicasFor returns a partition's replicas, current primary first, per
// the node's placement view. A partition marked mid-cutover fails with
// ErrPartitionMigrating: its placement is about to change, and
// committing against the old replicas could strand the write on a
// superseded copy.
func (cn *ComputeNode) replicasFor(partition uint32) ([]rdma.NodeID, error) {
	v := cn.place.Load()
	if reps := v.Replicas(partition); reps != nil {
		return reps, nil
	}
	if v.Migrating(partition) {
		return nil, fmt.Errorf("%w: partition %d (placement epoch %d)", ErrPartitionMigrating, partition, v.Ring().Epoch())
	}
	return nil, fmt.Errorf("core: no live replica for partition %d", partition)
}

// Coordinator executes transactions one at a time over one-sided verbs.
// The paper's "outstanding transactions per compute node" (Table 2) is
// the number of coordinators.
type Coordinator struct {
	node *ComputeNode
	id   kvlayout.CoordID
	slot int // index of this coordinator's log area within the node's log region
	// ep is the transaction goroutine's endpoint; the lock doorbells a
	// transaction posts at Write are outstanding on it until Commit, and
	// a committed tail posted at the ack until the next doorbell.
	ep        *rdma.Endpoint
	txCounter uint64
	// rcache is the validated read cache (nil when disabled). Owned by
	// this coordinator's transaction goroutine; global invalidation
	// flows through the node's cacheEpoch instead of touching it.
	rcache *cache.Cache
	// scratch backs the running transaction's sets and buffers (DESIGN.md
	// §18). Its memory is allocated on first use, not here: most
	// coordinators of a restarted node never run a transaction.
	scratch txScratch
}

// ID returns the coordinator's unique coordinator-id.
func (co *Coordinator) ID() kvlayout.CoordID { return co.id }

// LogServers returns the f+1 designated log servers of this
// coordinator's compute node.
func (co *Coordinator) LogServers() []rdma.NodeID {
	return slices.Clone(co.node.place.Load().logServers)
}

// Node returns the owning compute node.
func (co *Coordinator) Node() *ComputeNode { return co.node }

// WithClock makes the coordinator charge verb latencies to clk (used by
// latency-shaped experiments); nil disables charging.
func (co *Coordinator) WithClock(clk *rdma.VClock) {
	co.ep = co.ep.WithClock(clk)
}

// Outstanding reports whether the coordinator's endpoint holds doorbells
// posted and not yet paid for: a committed tail, posted at the ack for
// the next doorbell to pay (DESIGN.md §16). Call from the coordinator's
// own goroutine or while it is quiescent.
func (co *Coordinator) Outstanding() bool { return co.ep.Outstanding() }

// ReadCacheStats returns the coordinator's validated-read-cache
// counters (zero value when the cache is disabled). Call from the
// coordinator's own goroutine or while it is quiescent.
func (co *Coordinator) ReadCacheStats() cache.Stats {
	if co.rcache == nil {
		return cache.Stats{}
	}
	return co.rcache.Stats()
}
