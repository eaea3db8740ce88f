package rdma

import "time"

// Endpoint is a node's NIC-side handle for issuing one-sided verbs. A
// transaction coordinator (or recovery coordinator) typically owns one
// endpoint and, optionally, one virtual clock.
//
// Queue pairs are modelled per destination node. On the host a Do batch
// is applied on the caller's goroutine in posting order, which keeps the
// reliable-connection in-order guarantee per (src,dst) pair; on the
// clock the pairs to distinct nodes run side by side — the doorbell-batch
// parallelism the protocol's 1.5-RTT commit relies on. An endpoint holds
// no per-target state: it resolves handles through the fabric's table,
// so a fresh endpoint, a With* copy and one that lived through a fence
// all behave alike.
type Endpoint struct {
	fab  *Fabric
	node NodeID
	// lane is this endpoint's reader lane on every barrier and verb
	// counter it touches (see laneRW): its node's, unless WithLane picked
	// another.
	lane uint32
	// self is the issuer's node state; the crash flag checked on every
	// verb lives here. The pointer is stable for the fabric's lifetime.
	self  *nodeState
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
	// out is what Post has rung and no Wait or Do has charged yet, per
	// destination queue pair. Only the goroutine that posts on the
	// endpoint may use it, so an endpoint other goroutines share must
	// never post. With* copies start empty.
	out []qpCharge
}

// Endpoint returns a verb-issuing handle for the given local node.
func (f *Fabric) Endpoint(node NodeID) *Endpoint {
	ns := f.node(node)
	if ns == nil {
		panic("rdma: endpoint for unattached node")
	}
	return &Endpoint{fab: f, node: node, lane: laneOf(uint32(node)), self: ns}
}

// copy returns a copy of the endpoint with nothing outstanding.
func (ep *Endpoint) copy() *Endpoint {
	cp := *ep
	cp.out = nil
	return &cp
}

// WithClock returns a copy of the endpoint charging verb latencies to
// clk. Passing nil disables charging.
func (ep *Endpoint) WithClock(clk *VClock) *Endpoint {
	cp := ep.copy()
	cp.clock = clk
	return cp
}

// WithLane returns a copy of the endpoint on the lane of key. Endpoints
// that issue verbs concurrently from one node (its coordinators) pass
// keys that tell them apart, such as their coordinator ids.
func (ep *Endpoint) WithLane(key uint32) *Endpoint {
	cp := ep.copy()
	cp.lane = laneOf(key)
	return cp
}

// WithGate returns a copy of the endpoint that refuses to post verbs
// (with ErrCrashed) whenever alive returns false.
func (ep *Endpoint) WithGate(alive func() bool) *Endpoint {
	cp := ep.copy()
	cp.gate = alive
	return cp
}

// WithTimeout returns a copy of the endpoint whose verbs fail with
// ErrVerbTimeout (wrapped in a LinkError) instead of hanging when a
// stalled or slow link would delay them past d. Zero disables the
// deadline.
func (ep *Endpoint) WithTimeout(d time.Duration) *Endpoint {
	cp := ep.copy()
	cp.timeout = d
	return cp
}

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

// admit gates the verb through the link rules BEFORE the verb barrier,
// so a verb parked on a stalled link never blocks fabric transitions.
func (ep *Endpoint) admit(dst NodeID, n int) (time.Duration, error) {
	return ep.fab.admit(ep.node, dst, ep.timeout, n)
}

// lookup resolves the target node and region through the fabric's
// handle table: one atomic load and one map read. ns is nil for unknown
// nodes, r for unregistered regions. Rights (down, revoked, crashed) are
// not part of a handle: post re-reads them on every verb under the
// target's barrier shard, which is what linearizes them against fences.
func (ep *Endpoint) lookup(node NodeID, region RegionID) (*nodeState, *Region) {
	if h, ok := (*ep.fab.handles.Load())[handleKey(node, region)]; ok {
		return h.ns, h.r
	}
	return ep.fab.node(node), nil
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

// post executes one verb: link admission, the target's barrier shard,
// the incarnation gate, the rights check, then the memory operation. It
// returns the verb's modelled duration; op.Err carries the completion
// status. Admission and gate failures charge (and roll) nothing; every
// later outcome, error or not, costs a full verb — the packet went out.
func (ep *Endpoint) post(op *Op) time.Duration {
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
	fault := ep.fab.transportFaults(n)
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
			op.Err = r.read(op.Addr.Offset, op.Buf)
		case OpWrite:
			op.Err = r.write(op.Addr.Offset, op.Buf)
		case OpCAS:
			op.Old, op.Err = r.cas(op.Addr.Offset, op.Expect, op.Swap)
			op.Swapped = op.Err == nil && op.Old == op.Expect
		case OpFAA:
			op.Old, op.Err = r.faa(op.Addr.Offset, op.Delta)
		case OpFlush:
			op.Err = r.flush(op.Addr.Offset, int(op.Delta))
		default:
			op.Err = ErrNoRegion
		}
	}
	ep.fab.countVerb(ep.lane, op, fault)
	return d
}

// verb posts one op and charges it, failed or not: post returns what
// the attempt cost. The single-verb wrappers are this. While doorbells
// are outstanding it is a Do of one op, which charges the union.
func (ep *Endpoint) verb(op *Op) error {
	if len(ep.out) > 0 {
		return ep.Do(op)
	}
	ep.clock.Advance(ep.post(op))
	return op.Err
}

// Read issues a one-sided READ of len(dst) bytes at addr.
func (ep *Endpoint) Read(addr Addr, dst []byte) error {
	return ep.verb(&Op{Kind: OpRead, Addr: addr, Buf: dst})
}

// Write issues a one-sided WRITE of src at addr.
func (ep *Endpoint) Write(addr Addr, src []byte) error {
	return ep.verb(&Op{Kind: OpWrite, Addr: addr, Buf: src})
}

// CAS issues a one-sided 8-byte compare-and-swap at addr. It returns the
// previous value and whether the swap was applied.
func (ep *Endpoint) CAS(addr Addr, expect, swap uint64) (old uint64, swapped bool, err error) {
	op := Op{Kind: OpCAS, Addr: addr, Expect: expect, Swap: swap}
	if err := ep.verb(&op); err != nil {
		return 0, false, err
	}
	return op.Old, op.Swapped, nil
}

// FAA issues a one-sided 8-byte fetch-and-add at addr and returns the
// previous value.
func (ep *Endpoint) FAA(addr Addr, delta uint64) (uint64, error) {
	op := Op{Kind: OpFAA, Addr: addr, Delta: delta}
	if err := ep.verb(&op); err != nil {
		return 0, err
	}
	return op.Old, nil
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

// qpCharge is one destination queue pair's share of the doorbells
// charged together: how many verbs, and the sum and maximum of their
// modelled durations.
type qpCharge struct {
	node NodeID
	cnt  int
	sum  time.Duration
	max  time.Duration
}

// ring posts ops inline in posting order, adds each verb's modelled
// duration to its destination's charge in aggs, and returns aggs and the
// first per-op error in posting order. All ops are attempted regardless.
func (ep *Endpoint) ring(aggs []qpCharge, ops []*Op) ([]qpCharge, error) {
	var first error
	for _, op := range ops {
		d := ep.post(op)
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
			aggs = append(aggs, qpCharge{node: op.Addr.Node})
			j = len(aggs) - 1
		}
		aggs[j].cnt++
		aggs[j].sum += d
		if d > aggs[j].max {
			aggs[j].max = d
		}
	}
	return aggs, first
}

// charge is the pipelined completion time of the doorbells in aggs taken
// as one: the maximum over destination queue pairs of pipelineDuration,
// as the pairs to distinct nodes run side by side on the model.
func (ep *Endpoint) charge(aggs []qpCharge) time.Duration {
	rtt := ep.fab.lat.BaseRTT
	var maxD time.Duration
	for i := range aggs {
		if d := pipelineDuration(aggs[i].cnt, aggs[i].sum, aggs[i].max, rtt); d > maxD {
			maxD = d
		}
	}
	return maxD
}

// Post issues ops as one doorbell batch, exactly as Do does — the verbs
// land before it returns, and it returns the first per-op error in
// posting order — but does not wait for it: the doorbell's charge joins
// the endpoint's outstanding set and the virtual clock does not move
// until the next Wait or Do. The caller must not act on what the ops
// brought back before then: on the model the completions have not
// arrived. Only the goroutine that owns the endpoint may post on it.
func (ep *Endpoint) Post(ops ...*Op) error {
	var err error
	ep.out, err = ep.ring(ep.out, ops)
	return err
}

// Wait charges everything outstanding as one doorbell — the union of
// the posted batches, per destination queue pair — and empties the set.
// With nothing outstanding it charges nothing.
func (ep *Endpoint) Wait() {
	if len(ep.out) > 0 {
		ep.clock.Advance(ep.charge(ep.out))
		ep.out = ep.out[:0]
	}
}

// Outstanding reports whether Post has rung doorbells that no Wait or
// Do has charged yet. Ask from the goroutine that owns the endpoint, or
// while it is quiescent.
func (ep *Endpoint) Outstanding() bool { return len(ep.out) > 0 }

// Do issues ops as one doorbell batch and returns when all have
// completed: Post, then Wait. The ops are posted inline in posting
// order, so RC in-order delivery per (src,dst) queue pair holds; a verb
// parked on a stalled link holds up the ops behind it. The virtual clock
// is charged the pipelined completion time (charge) of ops together with
// whatever was still outstanding, so a Do behind a Post charges the
// union once; with nothing outstanding it charges ops alone. It returns
// the first per-op error of ops in posting order, if any; all ops are
// attempted regardless.
func (ep *Endpoint) Do(ops ...*Op) error {
	if len(ep.out) > 0 {
		err := ep.Post(ops...)
		ep.Wait()
		return err
	}
	aggs, err := ep.ring(make([]qpCharge, 0, 8), ops)
	ep.clock.Advance(ep.charge(aggs))
	return err
}
