package rdma

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Endpoint is a node's NIC-side handle for issuing one-sided verbs. A
// transaction coordinator (or recovery coordinator) typically owns one
// endpoint and, optionally, one virtual clock.
//
// Queue pairs are modelled per destination node: verbs issued in one Do
// batch are grouped by target, each group is applied in posting order
// (the reliable-connection in-order guarantee per (src,dst) pair), and
// groups to distinct nodes may execute concurrently — exactly the
// doorbell-batch parallelism the protocol's 1.5-RTT commit relies on.
// Calls made sequentially from one goroutine likewise retain posting
// order by construction.
type Endpoint struct {
	fab  *Fabric
	node NodeID
	// lane is this endpoint's reader lane on every barrier, region lock
	// and verb counter it touches (see laneRW): its node's, unless
	// WithLane picked another.
	lane uint32
	// self is the issuer's node state; the crash flag checked on every
	// verb lives here. The pointer is stable for the fabric's lifetime.
	self *nodeState
	// cache memoises (node, region) → handle lookups; shared by the
	// WithClock/WithGate/WithTimeout copies of this endpoint. Held by
	// pointer because those copies are value copies and the cache
	// contains an atomic.
	cache *handleCache
	clock *VClock
	// gate, when set, must return true for verbs to be posted. Compute
	// incarnations use it so that a *restarted* node (same fabric id,
	// new process) cannot resurrect the crashed incarnation's in-flight
	// verbs: the old endpoints stay dead even after the node id comes
	// back up.
	gate func() bool
	// timeout, when positive, bounds how long a verb may be held by a
	// stalled or slow link before failing with ErrVerbTimeout (wrapped
	// in a LinkError). Zero means wait forever — the pre-deadline
	// behaviour.
	timeout time.Duration
}

// Endpoint returns a verb-issuing handle for the given local node.
func (f *Fabric) Endpoint(node NodeID) *Endpoint {
	ns := f.node(node)
	if ns == nil {
		panic("rdma: endpoint for unattached node")
	}
	return &Endpoint{fab: f, node: node, lane: laneOf(uint32(node)), self: ns, cache: &handleCache{}}
}

// WithClock returns a copy of the endpoint charging verb latencies to
// clk. Passing nil disables charging.
func (ep *Endpoint) WithClock(clk *VClock) *Endpoint {
	cp := *ep
	cp.clock = clk
	return &cp
}

// WithLane returns a copy of the endpoint on the lane of key. Endpoints
// that issue verbs concurrently from one node (its coordinators) pass
// keys that tell them apart, such as their coordinator ids.
func (ep *Endpoint) WithLane(key uint32) *Endpoint {
	cp := *ep
	cp.lane = laneOf(key)
	return &cp
}

// WithGate returns a copy of the endpoint that refuses to post verbs
// (with ErrCrashed) whenever alive returns false.
func (ep *Endpoint) WithGate(alive func() bool) *Endpoint {
	cp := *ep
	cp.gate = alive
	return &cp
}

// WithTimeout returns a copy of the endpoint whose verbs fail with
// ErrVerbTimeout (wrapped in a LinkError) instead of hanging when a
// stalled or slow link would delay them past d. Zero disables the
// deadline.
func (ep *Endpoint) WithTimeout(d time.Duration) *Endpoint {
	cp := *ep
	cp.timeout = d
	return &cp
}

// Timeout returns the endpoint's verb deadline (zero = none).
func (ep *Endpoint) Timeout() time.Duration { return ep.timeout }

// gateCheck enforces the incarnation gate.
func (ep *Endpoint) gateCheck() error {
	if ep.gate != nil && !ep.gate() {
		return ErrCrashed
	}
	return nil
}

// Clock returns the endpoint's virtual clock, which may be nil.
func (ep *Endpoint) Clock() *VClock { return ep.clock }

// Node returns the local node id of this endpoint.
func (ep *Endpoint) Node() NodeID { return ep.node }

// Fabric returns the fabric the endpoint is attached to.
func (ep *Endpoint) Fabric() *Fabric { return ep.fab }

// admit gates the verb through the link rules BEFORE the verb barrier,
// so a verb parked on a stalled link never blocks fabric transitions.
func (ep *Endpoint) admit(dst NodeID, n int) (time.Duration, error) {
	return ep.fab.admit(ep.node, dst, ep.timeout, n)
}

// handleCache memoises (node, region) → (*nodeState, *Region) so the
// verb hot path resolves its target with one atomic load and one map
// read instead of three locked map lookups. Both pointers are stable
// for the fabric's lifetime (nodes and regions are never removed), so a
// snapshot can never yield a wrong handle — but rights (down, revoked,
// crashed) are deliberately NOT cached: they are re-read on every verb
// under the target's barrier shard, which is what linearizes them
// against fences. The fabric epoch, bumped on every revoke/fence/
// liveness transition, additionally invalidates the whole snapshot so
// an endpoint never runs on handles resolved before a fence.
type handleCache struct {
	snap atomic.Pointer[handleSnap]
}

type handleSnap struct {
	epoch   uint64
	handles map[uint64]handleRef
}

type handleRef struct {
	ns *nodeState
	r  *Region
}

func handleKey(node NodeID, region RegionID) uint64 {
	return uint64(node)<<32 | uint64(region)
}

// lookup resolves the target node and region, consulting the cache
// first. ns is nil for unknown nodes; r is nil for unregistered regions
// (never cached negatively, so a region registered later is found).
func (ep *Endpoint) lookup(node NodeID, region RegionID) (*nodeState, *Region) {
	epoch := ep.fab.epoch.Load()
	if snap := ep.cache.snap.Load(); snap != nil && snap.epoch == epoch {
		if h, ok := snap.handles[handleKey(node, region)]; ok {
			return h.ns, h.r
		}
	}
	return ep.lookupSlow(node, region, epoch)
}

func (ep *Endpoint) lookupSlow(node NodeID, region RegionID, epoch uint64) (*nodeState, *Region) {
	ns := ep.fab.node(node)
	if ns == nil {
		return nil, nil
	}
	ns.mu.RLock()
	r := ns.regions[region]
	ns.mu.RUnlock()
	if r == nil {
		return ns, nil
	}
	// Copy-on-write refresh. A concurrent refresh may overwrite ours;
	// that only costs the loser another slow lookup later.
	next := &handleSnap{epoch: epoch, handles: make(map[uint64]handleRef, 8)}
	if old := ep.cache.snap.Load(); old != nil && old.epoch == epoch {
		for k, v := range old.handles {
			next.handles[k] = v
		}
	}
	next.handles[handleKey(node, region)] = handleRef{ns: ns, r: r}
	ep.cache.snap.Store(next)
	return ns, r
}

// OpKind names a verb within a batch.
type OpKind int

// Verb kinds.
const (
	OpRead OpKind = iota
	OpWrite
	OpCAS
	OpFAA
	// OpFlush is the selective one-sided persistence flush (persist.go);
	// Delta carries the byte count to flush at Addr.
	OpFlush
)

// Op describes one verb in a batch. Results are written back into the
// Op: Buf for reads, Old/Swapped for CAS, Old for FAA, and Err for the
// per-op completion status.
type Op struct {
	Kind         OpKind
	Addr         Addr
	Buf          []byte // READ destination or WRITE source
	Expect, Swap uint64 // CAS operands
	Delta        uint64 // FAA operand / OpFlush byte count
	Old          uint64 // CAS/FAA result
	Swapped      bool   // CAS result
	Err          error  // per-op completion status
}

// size returns the op's payload byte count for latency purposes.
func (op *Op) size() int {
	switch op.Kind {
	case OpRead, OpWrite:
		return len(op.Buf)
	case OpFlush:
		// A flush forces Delta bytes out of the NIC cache into the
		// durable medium; charging it as a fixed 8-byte verb
		// undercharged every multi-byte flush.
		return int(op.Delta)
	default:
		return 8
	}
}

// faultInline tells post to roll the verb's transport faults itself;
// parallel batches pre-roll instead (see doParallel) and pass the draw.
const faultInline = time.Duration(-1)

// post executes one verb: link admission, the target's barrier shard,
// the incarnation gate, the rights check, then the memory operation. It
// returns the verb's modelled duration; op.Err carries the completion
// status. Admission and gate failures charge (and roll) nothing; every
// later outcome, error or not, costs a full verb — the packet went out.
func (ep *Endpoint) post(op *Op, fault time.Duration) time.Duration {
	n := op.size()
	extra, err := ep.admit(op.Addr.Node, n)
	if err != nil {
		op.Err = err
		ep.fab.countVerb(ep.lane, op, 0)
		return 0
	}
	ns, r := ep.lookup(op.Addr.Node, op.Addr.Region)
	if ns != nil {
		ns.verbs.RLock(ep.lane)
		defer ns.verbs.RUnlock(ep.lane)
	}
	if err := ep.gateCheck(); err != nil {
		op.Err = err
		ep.fab.countVerb(ep.lane, op, 0)
		return 0
	}
	if fault < 0 {
		fault = ep.fab.transportFaults(n)
	}
	d := ep.fab.lat.Verb(n) + fault + extra
	switch {
	case ep.self.crashed.Load():
		op.Err = ErrCrashed
	case ns == nil || ns.down.Load():
		op.Err = ErrNodeDown
	case ns.nrevoked.Load() > 0 && ns.isRevoked(ep.node):
		op.Err = ErrRevoked
	case r == nil:
		op.Err = ErrNoRegion
	default:
		switch op.Kind {
		case OpRead:
			op.Err = r.read(ep.lane, op.Addr.Offset, op.Buf)
		case OpWrite:
			op.Err = r.write(ep.lane, op.Addr.Offset, op.Buf)
		case OpCAS:
			op.Old, op.Err = r.cas(ep.lane, op.Addr.Offset, op.Expect, op.Swap)
			op.Swapped = op.Err == nil && op.Old == op.Expect
		case OpFAA:
			op.Old, op.Err = r.faa(ep.lane, op.Addr.Offset, op.Delta)
		case OpFlush:
			op.Err = r.flush(ep.lane, op.Addr.Offset, int(op.Delta))
		default:
			op.Err = ErrNoRegion
		}
	}
	ep.fab.countVerb(ep.lane, op, fault)
	return d
}

// Read issues a one-sided READ of len(dst) bytes at addr.
func (ep *Endpoint) Read(addr Addr, dst []byte) error {
	op := Op{Kind: OpRead, Addr: addr, Buf: dst}
	d := ep.post(&op, faultInline)
	if op.Err != nil {
		return op.Err
	}
	ep.clock.Advance(d)
	return nil
}

// Write issues a one-sided WRITE of src at addr.
func (ep *Endpoint) Write(addr Addr, src []byte) error {
	op := Op{Kind: OpWrite, Addr: addr, Buf: src}
	d := ep.post(&op, faultInline)
	if op.Err != nil {
		return op.Err
	}
	ep.clock.Advance(d)
	return nil
}

// CAS issues a one-sided 8-byte compare-and-swap at addr. It returns the
// previous value and whether the swap was applied.
func (ep *Endpoint) CAS(addr Addr, expect, swap uint64) (old uint64, swapped bool, err error) {
	op := Op{Kind: OpCAS, Addr: addr, Expect: expect, Swap: swap}
	d := ep.post(&op, faultInline)
	if op.Err != nil {
		return 0, false, op.Err
	}
	ep.clock.Advance(d)
	return op.Old, op.Swapped, nil
}

// FAA issues a one-sided 8-byte fetch-and-add at addr and returns the
// previous value.
func (ep *Endpoint) FAA(addr Addr, delta uint64) (uint64, error) {
	op := Op{Kind: OpFAA, Addr: addr, Delta: delta}
	d := ep.post(&op, faultInline)
	if op.Err != nil {
		return 0, op.Err
	}
	ep.clock.Advance(d)
	return op.Old, nil
}

// parallelMinBytes gates goroutine fan-out: below it (or to a single
// destination) a batch runs inline on the sharded serial path, because
// per-group dispatch overhead exceeds the memory work it would overlap.
// Commit-sized control batches (lock CASes, validation reads) stay
// inline; replica/log payload fan-out crosses the threshold.
const parallelMinBytes = 8 << 10

// Do issues ops concurrently (one doorbell batch, or parallel QPs to
// distinct nodes) and waits for all completions. Ops are grouped per
// destination node and applied in posting order within each group, so
// RC in-order delivery per (src,dst) queue pair holds; groups to
// different nodes may run in parallel. The virtual clock is charged the
// pipelined completion time — the maximum over destination groups of
// pipelineDuration — regardless of how the ops were scheduled. It
// returns the first per-op error in posting order, if any; all ops are
// attempted regardless.
func (ep *Endpoint) Do(ops ...*Op) error {
	if len(ops) < 2 {
		return ep.doSerial(ops)
	}
	total := 0
	multi := false
	first := ops[0].Addr.Node
	for _, op := range ops {
		total += op.size()
		if op.Addr.Node != first {
			multi = true
		}
	}
	if !multi || total < parallelMinBytes {
		return ep.doSerial(ops)
	}
	return ep.doParallel(ops)
}

// pipelineDuration models a multi-verb posting list on one queue pair.
// The NIC posts the whole list back to back, so the verbs pipeline on
// the wire: the chain completes after one round trip plus the
// serialized payload/occupancy time of every verb — Σd − (k−1)·BaseRTT
// — and never sooner than the slowest verb alone (slow-link and
// retransmit surcharges are inside the individual d's and are not
// overlapped away). This is what makes doorbell fusion (§16) pay:
// chaining a flush behind its write costs the flush's transfer time,
// not a second round trip, while a separate doorbell costs a full RTT.
func pipelineDuration(k int, sumD, maxD, rtt time.Duration) time.Duration {
	if k <= 1 {
		return maxD
	}
	d := sumD - time.Duration(k-1)*rtt
	if d < maxD {
		return maxD
	}
	return d
}

// doSerial applies the batch inline in posting order. Charging (per-QP
// pipelining, first error, every op attempted) is identical to the
// parallel path: the schedule is an execution detail, never a semantic.
func (ep *Endpoint) doSerial(ops []*Op) error {
	type nodeAgg struct {
		node NodeID
		cnt  int
		sum  time.Duration
		max  time.Duration
	}
	aggs := make([]nodeAgg, 0, 8)
	var first error
	for _, op := range ops {
		d := ep.post(op, faultInline)
		if op.Err != nil && first == nil {
			first = op.Err
		}
		j := -1
		for i := range aggs {
			if aggs[i].node == op.Addr.Node {
				j = i
				break
			}
		}
		if j < 0 {
			aggs = append(aggs, nodeAgg{node: op.Addr.Node})
			j = len(aggs) - 1
		}
		aggs[j].cnt++
		aggs[j].sum += d
		if d > aggs[j].max {
			aggs[j].max = d
		}
	}
	rtt := ep.fab.lat.BaseRTT
	var maxD time.Duration
	for i := range aggs {
		if d := pipelineDuration(aggs[i].cnt, aggs[i].sum, aggs[i].max, rtt); d > maxD {
			maxD = d
		}
	}
	ep.clock.Advance(maxD)
	return first
}

// doState is the pooled scratch for one parallel Do: per-destination
// groups, the pre-rolled fault draws, and the join. Reused via doPool
// so the fan-out path allocates nothing in steady state.
type doState struct {
	wg     sync.WaitGroup
	faults []time.Duration
	groups []doGroup
}

// doGroup is one destination node's slice of a batch — one queue pair's
// posting list.
type doGroup struct {
	ds   *doState
	ep   *Endpoint
	ops  []*Op
	idx  []int32 // indices into ops, in posting order
	node NodeID
	maxD time.Duration
}

var doPool = sync.Pool{New: func() any { return new(doState) }}

// The shared QP worker pool. Lazily started, sized to the machine, and
// process-wide: fabrics come and go by the hundreds in tests, so the
// workers belong to the package, not the fabric. Submission never
// blocks — if every worker is busy (or parked on a stalled link), the
// submitter runs the group inline, which also makes deadlock through
// pool exhaustion impossible.
var (
	workerOnce sync.Once
	workerCh   chan *doGroup
)

func startWorkers() {
	n := runtime.GOMAXPROCS(0)
	if n < 4 {
		n = 4
	}
	workerCh = make(chan *doGroup, 4*n)
	for i := 0; i < n; i++ {
		go func() {
			for g := range workerCh {
				g.run()
			}
		}()
	}
}

func (g *doGroup) run() {
	g.exec()
	g.ds.wg.Done()
}

func (g *doGroup) exec() {
	var maxD, sumD time.Duration
	for _, i := range g.idx {
		d := g.ep.post(g.ops[i], g.ds.faults[i])
		sumD += d
		if d > maxD {
			maxD = d
		}
	}
	g.maxD = pipelineDuration(len(g.idx), sumD, maxD, g.ep.fab.lat.BaseRTT)
}

func (ds *doState) newGroup(node NodeID) int {
	if len(ds.groups) < cap(ds.groups) {
		ds.groups = ds.groups[:len(ds.groups)+1]
	} else {
		ds.groups = append(ds.groups, doGroup{})
	}
	g := &ds.groups[len(ds.groups)-1]
	g.node = node
	g.idx = g.idx[:0]
	g.maxD = 0
	return len(ds.groups) - 1
}

func (ep *Endpoint) doParallel(ops []*Op) error {
	ds := doPool.Get().(*doState)

	// Pre-roll the transport-fault PRNG in posting order: groups execute
	// concurrently, so rolling inside them would make the draw sequence
	// — and with it virtual time — schedule-dependent. Pre-rolling keeps
	// "same seed, same workload → same clock" true under parallelism.
	ds.faults = ds.faults[:0]
	if ep.fab.faults.Load() != nil {
		for _, op := range ops {
			ds.faults = append(ds.faults, ep.fab.transportFaults(op.size()))
		}
	} else {
		for range ops {
			ds.faults = append(ds.faults, 0)
		}
	}

	// Group per destination node, preserving posting order inside each
	// group (the per-QP in-order guarantee).
	ds.groups = ds.groups[:0]
	for i, op := range ops {
		gi := -1
		for j := range ds.groups {
			if ds.groups[j].node == op.Addr.Node {
				gi = j
				break
			}
		}
		if gi < 0 {
			gi = ds.newGroup(op.Addr.Node)
		}
		g := &ds.groups[gi]
		g.idx = append(g.idx, int32(i))
	}
	for j := range ds.groups {
		ds.groups[j].ds = ds
		ds.groups[j].ep = ep
		ds.groups[j].ops = ops
	}

	// Fan out: the calling goroutine keeps the first group for itself;
	// the rest go to the worker pool, running inline when no worker is
	// free.
	workerOnce.Do(startWorkers)
	ds.wg.Add(len(ds.groups) - 1)
	for j := 1; j < len(ds.groups); j++ {
		g := &ds.groups[j]
		select {
		case workerCh <- g:
		default:
			g.run()
		}
	}
	ds.groups[0].exec()
	ds.wg.Wait()

	var maxD time.Duration
	for j := range ds.groups {
		if ds.groups[j].maxD > maxD {
			maxD = ds.groups[j].maxD
		}
	}
	var first error
	for _, op := range ops {
		if op.Err != nil {
			first = op.Err
			break
		}
	}
	ep.clock.Advance(maxD)
	for j := range ds.groups {
		ds.groups[j].ep = nil
		ds.groups[j].ops = nil
	}
	doPool.Put(ds)
	return first
}

// DoSeq issues ops as a dependent chain (each awaits the previous
// completion) and charges the sum of durations. It stops at the first
// error.
func (ep *Endpoint) DoSeq(ops ...*Op) error {
	for _, op := range ops {
		d := ep.post(op, faultInline)
		ep.clock.Advance(d)
		if op.Err != nil {
			return op.Err
		}
	}
	return nil
}
