package place

import (
	"cmp"
	"slices"

	"pandora/internal/rdma"
)

// View answers "where does partition p live right now" (§3.2.5,
// DESIGN.md §13): a ring, the memory servers known dead, and the
// partitions marked mid-cutover. A View is immutable — every With…
// method returns a fresh value and leaves its receiver as it was — so a
// holder publishes it behind one pointer and no reader can pair the ring
// of one configuration with the dead set or the marks of another.
type View struct {
	ring      *Ring
	dead      []rdma.NodeID // sorted
	migrating []uint32      // sorted
	// placed[p] is partition p's replicas with the current primary — the
	// first replica not in dead — leading and the others in ring order;
	// nil while p is migrating or has no live replica.
	placed [][]rdma.NodeID
}

// NewView is the view of a healthy cluster placed by r.
func NewView(r *Ring) *View { return newView(r, nil, nil) }

func newView(r *Ring, dead []rdma.NodeID, migrating []uint32) *View {
	v := &View{ring: r, dead: dead, migrating: migrating, placed: make([][]rdma.NodeID, r.partitions)}
	for p := range v.placed {
		if v.Migrating(uint32(p)) {
			continue
		}
		reps := r.Replicas(uint32(p))
		lead := slices.IndexFunc(reps, func(n rdma.NodeID) bool { return !v.Dead(n) })
		if lead > 0 {
			reps = slices.Clip(slices.Concat(reps[lead:lead+1], reps[:lead], reps[lead+1:]))
		}
		if lead >= 0 {
			v.placed[p] = reps
		}
	}
	return v
}

// withMember returns the sorted set with x added (in) or dropped; the
// input is shared when nothing changes and never written.
func withMember[T cmp.Ordered](set []T, x T, in bool) []T {
	i, found := slices.BinarySearch(set, x)
	switch {
	case found == in:
		return set
	case in:
		return slices.Insert(slices.Clone(set), i, x)
	}
	return slices.Delete(slices.Clone(set), i, i+1)
}

// WithRing returns the view with the ring replaced and the marks carried
// over. The dead set carries over less every server r names nowhere —
// neither a member nor any partition's replica — so the dead set is
// always a subset of the ring: a server a re-replication replaced or a
// removal dropped leaves it with the ring, while one a migration's
// override still names stays dead.
func (v *View) WithRing(r *Ring) *View {
	dead := slices.DeleteFunc(slices.Clone(v.dead), func(n rdma.NodeID) bool { return !r.names(n) })
	return newView(r, dead, v.migrating)
}

// WithDead returns the view with memory server n recorded dead, or live
// again: every partition it led is led by its next live replica, and back.
func (v *View) WithDead(n rdma.NodeID, dead bool) *View {
	return newView(v.ring, withMember(v.dead, n, dead), v.migrating)
}

// WithMigrating returns the view with partition p marked mid-cutover (no
// placement until the mark drops), or unmarked.
func (v *View) WithMigrating(p uint32, on bool) *View {
	return newView(v.ring, v.dead, withMember(v.migrating, p, on))
}

// Ring returns the view's ring.
func (v *View) Ring() *Ring { return v.ring }

// Dead reports whether the view records memory server n dead.
func (v *View) Dead(n rdma.NodeID) bool {
	_, found := slices.BinarySearch(v.dead, n)
	return found
}

// DeadNodes returns the dead set in ascending id order.
func (v *View) DeadNodes() []rdma.NodeID { return slices.Clone(v.dead) }

// Migrating reports whether partition p is marked mid-cutover.
func (v *View) Migrating(p uint32) bool {
	_, found := slices.BinarySearch(v.migrating, p)
	return found
}

// Replicas returns partition p's f+1 replicas, current primary first: the
// first replica not recorded dead leads (§3.2.5, deterministic promotion)
// and dead ones stay listed, since a commit tolerates a down replica but
// must still address every one. It is nil when p has no placement — p is
// Migrating, or else every replica is dead. The slice is the view's own
// and must not be modified; its capacity is clipped.
func (v *View) Replicas(p uint32) []rdma.NodeID { return v.placed[p] }
