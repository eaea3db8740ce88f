package metrics

import (
	"sync"
	"sync/atomic"
)

// verbCounters is one (node, verb) counter cell.
type verbCounters struct {
	issued  atomic.Uint64
	retried atomic.Uint64
	expired atomic.Uint64
	faulted atomic.Uint64
}

// verbLanes is the number of issuer lanes a destination's counters are
// spread over.
const verbLanes = 8

// verbLane is one issuer lane of a destination's counters, one cell per
// verb, followed by at least a cache line of padding: blocks are aligned
// to 8 bytes, not 64, and two lanes must not meet in one line.
type verbLane struct {
	counters [NumVerbs]verbCounters
	_        [64 + (64-NumVerbs*32%64)%64]byte
}

// verbBlock holds one destination node's counters. Every verb of every
// endpoint counts here, so the cells are spread over lanes picked by the
// issuer: endpoints on different lanes never write one cache line. (The
// leading pad keeps lane 0 off the block's first byte, which indexing
// through a *verbBlock loads as its nil check.) A cell's value is the
// sum over the lanes.
type verbBlock struct {
	_     [64]byte
	lanes [verbLanes]verbLane
}

// sum adds verb v's cells up.
func (b *verbBlock) sum(v Verb) (issued, retried, expired, faulted uint64) {
	for i := range b.lanes {
		c := &b.lanes[i].counters[v]
		issued += c.issued.Load()
		retried += c.retried.Load()
		expired += c.expired.Load()
		faulted += c.faulted.Load()
	}
	return
}

// verbTab is the immutable registration table: nodes sorted ascending,
// blocks parallel to nodes. Lookups binary-search without locking; a
// new node installs a copied table under the mutex (copy-on-write).
// The node population is tiny (one entry per cluster node) and fixed
// after warm-up, so copies are rare and lookups stay allocation-free.
type verbTab struct {
	nodes  []uint16
	blocks []*verbBlock
}

// find binary-searches for node; the loop is hand-rolled because
// sort.Search's closure may escape and this is the per-verb hot path.
func (t *verbTab) find(node uint16) *verbBlock {
	lo, hi := 0, len(t.nodes)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case t.nodes[mid] < node:
			lo = mid + 1
		case t.nodes[mid] > node:
			hi = mid
		default:
			return t.blocks[mid]
		}
	}
	return nil
}

// verbTable is the mutable wrapper: an atomic pointer to the current
// immutable table plus the insertion lock.
type verbTable struct {
	tab atomic.Pointer[verbTab]
	mu  sync.Mutex
}

// block returns node's counter block, registering the node on first
// sight.
func (vt *verbTable) block(node uint16) *verbBlock {
	if t := vt.tab.Load(); t != nil {
		if b := t.find(node); b != nil {
			return b
		}
	}
	return vt.register(node)
}

// register installs node into a copied table (cold path).
func (vt *verbTable) register(node uint16) *verbBlock {
	vt.mu.Lock()
	defer vt.mu.Unlock()
	old := vt.tab.Load()
	if old != nil {
		if b := old.find(node); b != nil {
			return b // raced another register
		}
	}
	var n int
	if old != nil {
		n = len(old.nodes)
	}
	next := &verbTab{
		nodes:  make([]uint16, 0, n+1),
		blocks: make([]*verbBlock, 0, n+1),
	}
	nb := &verbBlock{}
	inserted := false
	for i := 0; i < n; i++ {
		if !inserted && node < old.nodes[i] {
			next.nodes = append(next.nodes, node)
			next.blocks = append(next.blocks, nb)
			inserted = true
		}
		next.nodes = append(next.nodes, old.nodes[i])
		next.blocks = append(next.blocks, old.blocks[i])
	}
	if !inserted {
		next.nodes = append(next.nodes, node)
		next.blocks = append(next.blocks, nb)
	}
	vt.tab.Store(next)
	return nb
}
