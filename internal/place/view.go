package place

import (
	"cmp"
	"slices"

	"pandora/internal/kvlayout"
	"pandora/internal/rdma"
)

// View answers "where does partition p live right now" (§3.2.5,
// DESIGN.md §13): a ring, the memory servers known dead, and the
// partitions marked mid-cutover — and what the stray-lock notification
// has announced (§3.2.2 step 4): the failed coordinator-ids and the lock
// words of their logged transactions still to settle. A View is
// immutable — every With… method returns a fresh value and leaves its
// receiver as it was — so a holder publishes it behind one pointer and no
// reader can pair the ring of one configuration with the dead set, the
// marks or the announcement of another.
type View struct {
	ring      *Ring
	dead      []rdma.NodeID // sorted
	migrating []uint32      // sorted
	// placed[p] is partition p's replicas with the current primary — the
	// first replica not in dead — leading and the others in ring order;
	// nil while p is migrating or has no live replica.
	placed [][]rdma.NodeID
	// strays is the announcement, shared by every view derived from this
	// one until the next WithStrays or WithRecycled: a holder tells a new
	// announcement from an old one by this pointer (SameStrays).
	strays *strays
}

// strays is an announcement. Neither field is written once shared.
type strays struct {
	failed *kvlayout.CoordSet
	// logged holds, sorted, the lock words of failed coordinators'
	// transactions that recovery found logged and has not settled: such a
	// word is a live foreign lock, not a stray one.
	logged []uint64
}

// noStrays is the announcement of a cluster where no coordinator failed.
var noStrays = &strays{failed: new(kvlayout.CoordSet)}

// NewView is the view of a healthy cluster placed by r.
func NewView(r *Ring) *View { return newView(r, nil, nil, noStrays) }

func newView(r *Ring, dead []rdma.NodeID, migrating []uint32, s *strays) *View {
	v := &View{ring: r, dead: dead, migrating: migrating, strays: s, placed: make([][]rdma.NodeID, r.partitions)}
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
	return newView(r, dead, v.migrating, v.strays)
}

// WithDead returns the view with memory server n recorded dead, or live
// again: every partition it led is led by its next live replica, and back.
func (v *View) WithDead(n rdma.NodeID, dead bool) *View {
	return newView(v.ring, withMember(v.dead, n, dead), v.migrating, v.strays)
}

// WithMigrating returns the view with partition p marked mid-cutover (no
// placement until the mark drops), or unmarked.
func (v *View) WithMigrating(p uint32, on bool) *View {
	return newView(v.ring, v.dead, withMember(v.migrating, p, on), v.strays)
}

// WithStrays returns the view with a stray-lock notification announced:
// the coordinator-ids in ids failed, on top of those already announced,
// and logged — replacing the last announcement's words — the lock words
// of their logged transactions still to settle. The placement is shared.
func (v *View) WithStrays(ids []kvlayout.CoordID, logged []uint64) *View {
	s := &strays{failed: v.strays.failed}
	for _, id := range ids {
		if s.failed.Has(id) {
			continue
		}
		if s.failed == v.strays.failed {
			failed := *s.failed
			s.failed = &failed
		}
		s.failed.Add(id)
	}
	if len(logged) > 0 {
		s.logged = slices.Clone(logged)
		slices.Sort(s.logged)
	}
	return v.withStrays(s)
}

// Recyclable returns, ascending, the announced failed ids that no logged
// word still to settle names: those the recycling scan may free.
func (v *View) Recyclable() []kvlayout.CoordID {
	return slices.DeleteFunc(v.FailedIDs(), func(id kvlayout.CoordID) bool {
		return slices.ContainsFunc(v.strays.logged, func(w uint64) bool { return kvlayout.LockOwner(w) == id })
	})
}

// WithRecycled returns the view with ids announced failed no more: the
// recycling scan has released their every lock, and the failure detector
// may hand them out again. The logged words stay.
func (v *View) WithRecycled(ids []kvlayout.CoordID) *View {
	failed := *v.strays.failed
	for _, id := range ids {
		failed.Remove(id)
	}
	return v.withStrays(&strays{failed: &failed, logged: v.strays.logged})
}

func (v *View) withStrays(s *strays) *View {
	w := *v
	w.strays = s
	return &w
}

// Stray reports whether a held lock word is a stray lock (PILL, §3.1.2):
// its owner is announced failed and it is no logged transaction's word
// left to settle. O(1) in the failed ids.
func (v *View) Stray(word uint64) bool {
	s := v.strays
	if !s.failed.Has(kvlayout.LockOwner(word)) {
		return false
	}
	_, logged := slices.BinarySearch(s.logged, word)
	return !logged
}

// FailedIDs returns the announced failed coordinator-ids, ascending.
func (v *View) FailedIDs() []kvlayout.CoordID { return v.strays.failed.IDs() }

// Logged returns the announced logged lock words, ascending.
func (v *View) Logged() []uint64 { return slices.Clone(v.strays.logged) }

// SameStrays reports whether v and w carry the same announcement: no
// WithStrays or WithRecycled lies between them.
func (v *View) SameStrays(w *View) bool { return v.strays == w.strays }

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
