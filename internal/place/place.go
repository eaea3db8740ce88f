// Package place implements data placement for the DKVS: a consistent
// hashing ring that statically partitions every table across the memory
// servers (§3.2.5), assigning each partition a primary and f backups,
// plus the per-compute-node assignment of f+1 designated log servers
// (§3.1.4).
//
// Placement is pure computation over the member list. Coordinators, the
// recovery coordinator, and memory-failure handling all recompute it
// independently and must agree, so all functions here are deterministic.
//
// Reconfiguration support: a Ring carries an epoch and an explicit
// partition→replica assignment table. The hashed layout is derived once
// at construction; WithMember/WithoutMember/Substitute produce the target
// layout of a membership change, and Reassign produces the intermediate views a
// migration coordinator installs per-partition as it cuts data over.
// Members are positional and removal leaves a hole (index 0 is reserved
// as the hole sentinel, below any real memory-node id), so the surviving
// members' virtual nodes — hashed by member index — never move: adding a
// node only pulls partitions onto it, removing one only redistributes
// the partitions it held (bounded, non-gratuitous churn).
package place

import (
	"fmt"
	"slices"
	"sort"

	"pandora/internal/kvlayout"
	"pandora/internal/rdma"
)

// vnodesPerNode is the number of virtual ring points per memory server;
// enough for reasonable balance at the paper's cluster sizes.
const vnodesPerNode = 64

// Hole marks a vacated member slot. Memory-node ids are allocated from
// 1000 up, so 0 never names a real node.
const Hole rdma.NodeID = 0

type vnode struct {
	hash uint64
	node rdma.NodeID
}

// Ring is a placement over a set of memory servers. The replica
// assignment is explicit: derived from consistent hashing at
// construction, then carried verbatim through Reassign so a migration
// can move one partition at a time without re-hashing the rest.
type Ring struct {
	vnodes     []vnode       // data-placement points of the current membership
	logVnodes  []vnode       // log-placement points; pinned across a migration
	members    []rdma.NodeID // positional member list; Hole = vacated slot
	replicas   int           // f+1
	partitions uint32
	epoch      uint64
	assign     [][]rdma.NodeID // partition → replicas, primary first
}

// New builds a ring over memNodes with the given replication degree
// (f+1) and number of partitions per table. It panics on impossible
// configurations, which are wiring bugs.
func New(memNodes []rdma.NodeID, replicas int, partitions uint32) *Ring {
	r, err := Rebuild(memNodes, replicas, partitions, 0)
	if err != nil {
		panic("place: " + err.Error())
	}
	return r
}

// Rebuild constructs the hashed layout for a positional member list that
// may contain holes (Hole entries from earlier removals). The journal
// recovery path uses it to recompute a migration's source and target
// placements from the persisted member arrays.
func Rebuild(members []rdma.NodeID, replicas int, partitions uint32, epoch uint64) (*Ring, error) {
	live := 0
	for _, n := range members {
		if n != Hole {
			live++
		}
	}
	if replicas < 1 || replicas > live {
		return nil, fmt.Errorf("%d replicas over %d memory nodes", replicas, live)
	}
	if partitions == 0 {
		return nil, fmt.Errorf("zero partitions")
	}
	r := &Ring{
		members:    append([]rdma.NodeID(nil), members...),
		replicas:   replicas,
		partitions: partitions,
		epoch:      epoch,
	}
	// Virtual nodes are hashed by member *index*, not NodeID: when a
	// failed memory server is replaced by a fresh one (re-replication,
	// §3.2.5), Substitute gives the replacement the dead server's index,
	// so it takes exactly the dead server's partitions and logs and
	// nothing else moves. A hole contributes no
	// points but keeps every other member's index (and therefore hash
	// points) fixed.
	for idx, n := range r.members {
		if n == Hole {
			continue
		}
		for i := 0; i < vnodesPerNode; i++ {
			h := kvlayout.Mix64(uint64(idx)<<32 | uint64(i)<<8 | 0x5a)
			r.vnodes = append(r.vnodes, vnode{hash: h, node: n})
		}
	}
	sort.Slice(r.vnodes, func(i, j int) bool {
		if r.vnodes[i].hash != r.vnodes[j].hash {
			return r.vnodes[i].hash < r.vnodes[j].hash
		}
		return r.vnodes[i].node < r.vnodes[j].node
	})
	r.logVnodes = r.vnodes
	r.assign = make([][]rdma.NodeID, partitions)
	for p := uint32(0); p < partitions; p++ {
		r.assign[p] = r.walk(kvlayout.Mix64(uint64(p)|0xabcd<<40), r.replicas)
	}
	return r, nil
}

// clone copies r with a fresh assign table (sharing the immutable vnode
// slices) and the epoch advanced by one.
func (r *Ring) clone() *Ring {
	nr := &Ring{
		vnodes:     r.vnodes,
		logVnodes:  r.logVnodes,
		members:    append([]rdma.NodeID(nil), r.members...),
		replicas:   r.replicas,
		partitions: r.partitions,
		epoch:      r.epoch + 1,
		assign:     make([][]rdma.NodeID, len(r.assign)),
	}
	for p, reps := range r.assign {
		nr.assign[p] = append([]rdma.NodeID(nil), reps...)
	}
	return nr
}

// Substitute returns the target layout after replacing member old with
// repl (re-replication, §3.2.5): repl takes old's member slot, so every
// partition and log placed on old is placed on repl and nothing else
// moves. Like every membership change it is rebuilt from the member
// list, so a migration's per-partition overrides do not carry over; the
// migration journal keeps re-replication from starting while one is in
// flight.
func (r *Ring) Substitute(old, repl rdma.NodeID) (*Ring, error) {
	if err := r.addable(repl); err != nil {
		return nil, err
	}
	i := slices.Index(r.members, old)
	if old == Hole || i < 0 {
		return nil, fmt.Errorf("place: node %d is not a member", old)
	}
	members := slices.Clone(r.members)
	members[i] = repl
	return r.withMembers(members)
}

// WithMember returns the target layout after adding node n: n fills the
// first vacated member slot (or extends the list) and the hashed
// assignment is rebuilt. Because every surviving member keeps its index,
// the only partitions that move are those that now hash onto n.
func (r *Ring) WithMember(n rdma.NodeID) (*Ring, error) {
	if err := r.addable(n); err != nil {
		return nil, err
	}
	members := slices.Clone(r.members)
	if i := slices.Index(members, Hole); i >= 0 {
		members[i] = n
	} else {
		members = append(members, n)
	}
	return r.withMembers(members)
}

// WithoutMember returns the target layout after removing node n: its
// member slot becomes a hole, so the remaining members' hash points —
// and therefore every partition not touching n — stay where they are.
func (r *Ring) WithoutMember(n rdma.NodeID) (*Ring, error) {
	i := slices.Index(r.members, n)
	if n == Hole || i < 0 {
		return nil, fmt.Errorf("place: node %d is not a member", n)
	}
	members := slices.Clone(r.members)
	members[i] = Hole
	return r.withMembers(members)
}

// addable refuses a node that cannot join r: the hole sentinel, or a
// member already.
func (r *Ring) addable(n rdma.NodeID) error {
	if n == Hole {
		return fmt.Errorf("place: cannot add the hole sentinel")
	}
	if slices.Contains(r.members, n) {
		return fmt.Errorf("place: node %d already a member", n)
	}
	return nil
}

// withMembers is the hashed layout of a positional member list, one
// epoch past r.
func (r *Ring) withMembers(members []rdma.NodeID) (*Ring, error) {
	nr, err := Rebuild(members, r.replicas, r.partitions, r.epoch+1)
	if err != nil {
		return nil, fmt.Errorf("place: %v", err)
	}
	return nr, nil
}

// names reports whether n is a member of r or a replica of any of its
// partitions.
func (r *Ring) names(n rdma.NodeID) bool {
	return slices.Contains(r.members, n) ||
		slices.ContainsFunc(r.assign, func(reps []rdma.NodeID) bool { return slices.Contains(reps, n) })
}

// Reassign returns an intermediate migration view: identical to r except
// that one partition's replica set is overridden. The migration
// coordinator installs one of these at each partition cut-over; log
// placement and membership are carried from r unchanged, so log-server
// assignments only move at the final (paused) ring install.
func (r *Ring) Reassign(partition uint32, replicas []rdma.NodeID) *Ring {
	nr := r.clone()
	nr.assign[partition] = append([]rdma.NodeID(nil), replicas...)
	return nr
}

// Sequenced returns a copy of r whose epoch is one past cur's — used to
// install a precomputed target layout after a sequence of intermediate
// views has advanced the live epoch beyond the target's build epoch.
func (r *Ring) Sequenced(cur *Ring) *Ring {
	nr := r.clone()
	nr.epoch = cur.epoch + 1
	return nr
}

// Epoch returns the placement epoch: it increases on every derived view
// (Substitute, WithMember/WithoutMember, Reassign, Sequenced), so
// clients can cheaply detect that their placement is stale.
func (r *Ring) Epoch() uint64 { return r.epoch }

// Replication returns the replication degree f+1.
func (r *Ring) Replication() int { return r.replicas }

// Partitions returns the number of partitions per table.
func (r *Ring) Partitions() uint32 { return r.partitions }

// Nodes returns the current (live-slot) memory servers in member order.
func (r *Ring) Nodes() []rdma.NodeID {
	out := make([]rdma.NodeID, 0, len(r.members))
	for _, n := range r.members {
		if n != Hole {
			out = append(out, n)
		}
	}
	return out
}

// Members returns the positional member list, holes included — the form
// the reconfiguration journal persists so a recovery coordinator can
// Rebuild the exact layout.
func (r *Ring) Members() []rdma.NodeID { return append([]rdma.NodeID(nil), r.members...) }

// Partition returns the partition a key belongs to. All tables share the
// partitioning so that multi-table transactions over related keys keep a
// predictable layout.
func (r *Ring) Partition(k kvlayout.Key) uint32 {
	return uint32(kvlayout.Mix64(uint64(k)^0xc0ffee) % uint64(r.partitions))
}

// walk collects the first `count` distinct nodes on the ring at or after
// hash h.
func (r *Ring) walk(h uint64, count int) []rdma.NodeID {
	return walkVnodes(r.vnodes, h, count)
}

func walkVnodes(vs []vnode, h uint64, count int) []rdma.NodeID {
	idx := sort.Search(len(vs), func(i int) bool { return vs[i].hash >= h })
	out := make([]rdma.NodeID, 0, count)
	seen := make(map[rdma.NodeID]bool, count)
	for i := 0; len(out) < count && i < len(vs); i++ {
		v := vs[(idx+i)%len(vs)]
		if !seen[v.node] {
			seen[v.node] = true
			out = append(out, v.node)
		}
	}
	return out
}

// Replicas returns the f+1 memory servers holding a partition, primary
// first. The slice is the ring's own and must not be modified: a ring is
// immutable once built (every derived view is a fresh clone), which is
// what lets the transaction path hold it without a copy. Its capacity is
// clipped so an append by a caller copies instead of writing behind it.
func (r *Ring) Replicas(partition uint32) []rdma.NodeID {
	return slices.Clip(r.assign[partition])
}

// Primary returns the partition's primary among live nodes: the first
// replica for which alive returns true (§3.2.5, deterministic new-primary
// calculation). ok is false when every replica is dead.
func (r *Ring) Primary(partition uint32, alive func(rdma.NodeID) bool) (rdma.NodeID, bool) {
	for _, n := range r.assign[partition] {
		if alive == nil || alive(n) {
			return n, true
		}
	}
	return 0, false
}

// LogServers returns the f+1 designated log servers for a compute node
// (§3.1.4): all of one compute node's transaction logs live on the same
// f+1 memory servers. During a migration the intermediate views keep the
// pre-migration log placement; it moves only at the final install.
func (r *Ring) LogServers(compute rdma.NodeID) []rdma.NodeID {
	return walkVnodes(r.logVnodes, kvlayout.Mix64(uint64(compute)|0xf00d<<40), r.replicas)
}
