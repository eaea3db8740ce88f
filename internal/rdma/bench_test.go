package rdma

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// ---------------------------------------------------------------------------
// Reference copy of the seed engine's execution path.
//
// The types below replicate, faithfully and in full, the hot path of the
// engine this package first shipped: one global in-flight verb barrier,
// per-op map lookups under two RWMutexes, and flat 64-byte stripe locks
// taken through a closure-returning lockRange. BenchmarkDoFanout runs
// the same batch through both engines, so what the sharded state buys
// is measured in-tree, not against a number in a doc.
// ---------------------------------------------------------------------------

type oldRegion struct {
	buf     []byte
	stripes []sync.Mutex
}

func newOldRegion(size int) *oldRegion {
	return &oldRegion{
		buf:     make([]byte, size),
		stripes: make([]sync.Mutex, (size+stripeBytes-1)/stripeBytes+1),
	}
}

func (r *oldRegion) lockRange(off uint64, n int) func() {
	first := int(off) / stripeBytes
	last := (int(off) + n - 1) / stripeBytes
	for i := first; i <= last; i++ {
		r.stripes[i].Lock()
	}
	return func() {
		for i := last; i >= first; i-- {
			r.stripes[i].Unlock()
		}
	}
}

func (r *oldRegion) checkBounds(off uint64, n int) error {
	if n < 0 || off > uint64(len(r.buf)) || uint64(n) > uint64(len(r.buf))-off {
		return ErrOutOfBounds
	}
	return nil
}

func (r *oldRegion) read(off uint64, dst []byte) error {
	if err := r.checkBounds(off, len(dst)); err != nil {
		return err
	}
	if len(dst) == 0 {
		return nil
	}
	unlock := r.lockRange(off, len(dst))
	copy(dst, r.buf[off:])
	unlock()
	return nil
}

func (r *oldRegion) write(off uint64, src []byte) error {
	if err := r.checkBounds(off, len(src)); err != nil {
		return err
	}
	if len(src) == 0 {
		return nil
	}
	unlock := r.lockRange(off, len(src))
	copy(r.buf[off:], src)
	unlock()
	return nil
}

func (r *oldRegion) cas(off uint64, expect, swap uint64) (uint64, error) {
	if off%8 != 0 {
		return 0, ErrUnaligned
	}
	if err := r.checkBounds(off, 8); err != nil {
		return 0, err
	}
	unlock := r.lockRange(off, 8)
	defer unlock()
	old := binary.LittleEndian.Uint64(r.buf[off:])
	if old == expect {
		binary.LittleEndian.PutUint64(r.buf[off:], swap)
	}
	return old, nil
}

type oldNodeState struct {
	mu      sync.RWMutex
	regions map[RegionID]*oldRegion
	down    bool
	revoked map[NodeID]bool
	crashed bool
}

type oldFabric struct {
	mu    sync.RWMutex
	nodes map[NodeID]*oldNodeState
	lat   LatencyModel
	verbs sync.RWMutex // single global barrier shared by every node
}

func newOldFabric(lat LatencyModel) *oldFabric {
	return &oldFabric{nodes: make(map[NodeID]*oldNodeState), lat: lat}
}

func (f *oldFabric) addNode(id NodeID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.nodes[id] = &oldNodeState{
		regions: make(map[RegionID]*oldRegion),
		revoked: make(map[NodeID]bool),
	}
}

func (f *oldFabric) registerRegion(node NodeID, id RegionID, size int) {
	ns := f.node(node)
	ns.mu.Lock()
	ns.regions[id] = newOldRegion(size)
	ns.mu.Unlock()
}

func (f *oldFabric) node(id NodeID) *oldNodeState {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.nodes[id]
}

func (f *oldFabric) check(target, from NodeID) (*oldNodeState, error) {
	if self := f.node(from); self != nil {
		self.mu.RLock()
		crashed := self.crashed
		self.mu.RUnlock()
		if crashed {
			return nil, ErrCrashed
		}
	}
	ns := f.node(target)
	if ns == nil {
		return nil, ErrNodeDown
	}
	ns.mu.RLock()
	defer ns.mu.RUnlock()
	if ns.down {
		return nil, ErrNodeDown
	}
	if ns.revoked[from] {
		return nil, ErrRevoked
	}
	return ns, nil
}

func (f *oldFabric) region(target, from NodeID, id RegionID) (*oldRegion, error) {
	ns, err := f.check(target, from)
	if err != nil {
		return nil, err
	}
	ns.mu.RLock()
	r := ns.regions[id]
	ns.mu.RUnlock()
	if r == nil {
		return nil, ErrNoRegion
	}
	return r, nil
}

type oldEndpoint struct {
	fab   *oldFabric
	node  NodeID
	clock *VClock
}

func (ep *oldEndpoint) exec(op *Op) time.Duration {
	n := op.size()
	ep.fab.verbs.RLock()
	defer ep.fab.verbs.RUnlock()
	verb := func(n int) time.Duration { return ep.fab.lat.Verb(n) }
	switch op.Kind {
	case OpRead:
		r, err := ep.fab.region(op.Addr.Node, ep.node, op.Addr.Region)
		if err == nil {
			err = r.read(op.Addr.Offset, op.Buf)
		}
		op.Err = err
		return verb(n)
	case OpWrite:
		r, err := ep.fab.region(op.Addr.Node, ep.node, op.Addr.Region)
		if err == nil {
			err = r.write(op.Addr.Offset, op.Buf)
		}
		op.Err = err
		return verb(n)
	case OpCAS:
		r, err := ep.fab.region(op.Addr.Node, ep.node, op.Addr.Region)
		if err == nil {
			op.Old, err = r.cas(op.Addr.Offset, op.Expect, op.Swap)
			op.Swapped = err == nil && op.Old == op.Expect
		}
		op.Err = err
		return verb(n)
	default:
		op.Err = ErrNoRegion
		return 0
	}
}

func (ep *oldEndpoint) Do(ops ...*Op) error {
	var maxD time.Duration
	var first error
	for _, op := range ops {
		d := ep.exec(op)
		if d > maxD {
			maxD = d
		}
		if op.Err != nil && first == nil {
			first = op.Err
		}
	}
	ep.clock.Advance(maxD)
	return first
}

// ---------------------------------------------------------------------------
// Benchmarks
// ---------------------------------------------------------------------------

func benchFabric(b *testing.B, nodes int, regionSize int) *Fabric {
	b.Helper()
	f := NewFabric(LatencyModel{})
	f.AddNode(0)
	for i := 1; i <= nodes; i++ {
		f.AddNode(NodeID(i))
		f.RegisterRegion(NodeID(i), 0, regionSize)
	}
	return f
}

func benchOldFabric(nodes int, regionSize int) *oldFabric {
	f := newOldFabric(LatencyModel{})
	f.addNode(0)
	for i := 1; i <= nodes; i++ {
		f.addNode(NodeID(i))
		f.registerRegion(NodeID(i), 0, regionSize)
	}
	return f
}

func fanoutOps(nodes, size int) []*Op {
	payload := make([]byte, size)
	ops := make([]*Op, nodes)
	for i := range ops {
		ops[i] = &Op{Kind: OpWrite, Addr: Addr{Node: NodeID(i + 1)}, Buf: payload}
	}
	return ops
}

// BenchmarkDoFanout measures an 8-way multi-node WRITE batch (32 KiB per
// node, far wider than any verb a transaction sends) on the seed engine
// and on this one, in the same process. Both post the batch inline; they
// share the Op type, the latency model, and the batch shape, so the
// ratio is the engine overhead alone. The seed engine walks 512 stripe
// mutexes per op; this one takes its region's whole lock table, 64
// entries, so the op's cost is the copy plus a fixed lock walk.
func BenchmarkDoFanout(b *testing.B) {
	const nodes, size = 8, 32 << 10
	b.Run("engine=old-serial", func(b *testing.B) {
		f := benchOldFabric(nodes, 1<<20)
		ep := &oldEndpoint{fab: f, node: 0}
		ops := fanoutOps(nodes, size)
		b.SetBytes(int64(nodes * size))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := ep.Do(ops...); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("engine=new", func(b *testing.B) {
		f := benchFabric(b, nodes, 1<<20)
		ep := f.Endpoint(0)
		ops := fanoutOps(nodes, size)
		b.SetBytes(int64(nodes * size))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := ep.Do(ops...); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDoMixedContention issues small 8-node fan-outs from several
// goroutines at once, each on its own reader lane as core gives each
// coordinator, and each writing its own 128 bytes (two stripes) of every
// node, as two coordinators' lock words are disjoint: the sharded
// barrier, its lanes and the regions' lock tables are what keep the
// endpoints out of each other's way. Goroutine g's stripes map to
// entries 2g and 2g+1, so up to 32 goroutines share no entry.
func BenchmarkDoMixedContention(b *testing.B) {
	const span = 128
	f := benchFabric(b, 8, 1<<20)
	var lanes atomic.Uint32
	b.RunParallel(func(pb *testing.PB) {
		g := lanes.Add(1) - 1
		ep := f.Endpoint(0).WithLane(g)
		payload := make([]byte, span)
		ops := make([]*Op, 8)
		for i := range ops {
			ops[i] = &Op{Kind: OpWrite, Addr: Addr{Node: NodeID(i + 1), Offset: uint64(g) * span}, Buf: payload}
		}
		for pb.Next() {
			if err := ep.Do(ops...); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDoSmallBatchAllocs is the small-batch shape with ops built ad
// hoc per iteration, for comparison with the pooled variant. Do hands
// its ops to nobody, so the literals stay on the stack (0 allocs/op; 5
// while a dispatcher could receive them).
func BenchmarkDoSmallBatchAllocs(b *testing.B) {
	f := benchFabric(b, 3, 1<<16)
	ep := f.Endpoint(0)
	buf := make([]byte, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ops := []*Op{
			{Kind: OpCAS, Addr: Addr{Node: 1}, Expect: 0, Swap: 1},
			{Kind: OpRead, Addr: Addr{Node: 2}, Buf: buf},
			{Kind: OpWrite, Addr: Addr{Node: 3}, Buf: buf},
		}
		if err := ep.Do(ops...); err != nil {
			b.Fatal(err)
		}
		ops[0].Kind = OpWrite
		ops[0].Buf = buf[:8]
		if err := ep.Do(ops[0]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDoSmallBatchPooled is the same work built through an OpBatch —
// the commit hot path's shape. Steady state must be allocation-free.
func BenchmarkDoSmallBatchPooled(b *testing.B) {
	f := benchFabric(b, 3, 1<<16)
	ep := f.Endpoint(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := GetBatch()
		batch.AddCAS(Addr{Node: 1}, 0, 1)
		batch.AddRead(Addr{Node: 2}, batch.Bytes(16))
		batch.AddWrite(Addr{Node: 3}, batch.Bytes(16))
		if err := ep.Do(batch.Ops()...); err != nil {
			b.Fatal(err)
		}
		batch.Put()
	}
}
