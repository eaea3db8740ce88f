package place

import (
	"slices"
	"testing"

	"pandora/internal/race"
	"pandora/internal/rdma"
)

// TestViewReplicas pins the lookup: the first replica not recorded dead
// leads, the others keep ring order (dead ones included), and a partition
// that is marked or has no live replica has no placement.
func TestViewReplicas(t *testing.T) {
	r := New(nodes(4), 3, 16)
	const p = 5
	reps := r.Replicas(p)
	a, b, c := reps[0], reps[1], reps[2]
	for _, tc := range []struct {
		name      string
		dead      []rdma.NodeID
		marked    bool
		want      []rdma.NodeID // nil: no placement
		migrating bool
	}{
		{name: "healthy", want: []rdma.NodeID{a, b, c}},
		{name: "dead backup stays in place", dead: []rdma.NodeID{b}, want: []rdma.NodeID{a, b, c}},
		{name: "dead primary: next live replica leads", dead: []rdma.NodeID{a}, want: []rdma.NodeID{b, a, c}},
		{name: "two dead: the last one leads, rest in ring order", dead: []rdma.NodeID{b, a}, want: []rdma.NodeID{c, a, b}},
		{name: "all dead: no live replica", dead: []rdma.NodeID{a, b, c}},
		{name: "marked", marked: true, migrating: true},
		{name: "marked beats dead", dead: []rdma.NodeID{a}, marked: true, migrating: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v := NewView(r)
			for _, n := range tc.dead {
				v = v.WithDead(n, true)
			}
			v = v.WithMigrating(p, tc.marked)
			if got := v.Replicas(p); !slices.Equal(got, tc.want) {
				t.Fatalf("Replicas = %v, want %v", got, tc.want)
			}
			if v.Migrating(p) != tc.migrating {
				t.Fatalf("Migrating = %v, want %v", v.Migrating(p), tc.migrating)
			}
			// Undoing every step gives the ring's own placement back.
			v = v.WithMigrating(p, false)
			for _, n := range tc.dead {
				v = v.WithDead(n, false)
			}
			if got := v.Replicas(p); !slices.Equal(got, reps) {
				t.Fatalf("after undo Replicas = %v, want %v", got, reps)
			}
			// A caller appending to the answer must not write behind it.
			if got := v.Replicas(p); cap(got) != len(got) {
				t.Fatalf("Replicas capacity %d not clipped to %d", cap(got), len(got))
			}
		})
	}
}

// TestViewWithLeavesReceiver checks every With… constructor against a
// snapshot of its receiver, including the ones that change nothing.
func TestViewWithLeavesReceiver(t *testing.T) {
	r := New(nodes(4), 2, 16)
	lead, back := r.Replicas(3)[0], r.Replicas(3)[1]
	other := r.Reassign(3, []rdma.NodeID{back, lead})
	base := NewView(r).WithDead(lead, true).WithMigrating(7, true)
	type snap struct {
		ring      *Ring
		dead      []rdma.NodeID
		migrating []bool
		placed    [][]rdma.NodeID
	}
	take := func(v *View) snap {
		s := snap{ring: v.Ring(), dead: v.DeadNodes()}
		for p := uint32(0); p < 16; p++ {
			s.migrating = append(s.migrating, v.Migrating(p))
			s.placed = append(s.placed, slices.Clone(v.Replicas(p)))
		}
		return s
	}
	same := func(a, b snap) bool {
		return a.ring == b.ring && slices.Equal(a.dead, b.dead) && slices.Equal(a.migrating, b.migrating) &&
			slices.EqualFunc(a.placed, b.placed, func(x, y []rdma.NodeID) bool { return slices.Equal(x, y) })
	}
	before := take(base)
	for name, step := range map[string]func(*View) *View{
		"WithRing":             func(v *View) *View { return v.WithRing(other) },
		"WithDead add":         func(v *View) *View { return v.WithDead(back, true) },
		"WithDead add again":   func(v *View) *View { return v.WithDead(lead, true) },
		"WithDead drop":        func(v *View) *View { return v.WithDead(lead, false) },
		"WithDead drop absent": func(v *View) *View { return v.WithDead(back, false) },
		"WithMigrating mark":   func(v *View) *View { return v.WithMigrating(2, true) },
		"WithMigrating unmark": func(v *View) *View { return v.WithMigrating(7, false) },
	} {
		next := step(base)
		if next == base {
			t.Errorf("%s returned its receiver", name)
		}
		if !same(take(base), before) {
			t.Fatalf("%s changed its receiver", name)
		}
	}
	// What carries over: a new ring keeps the dead set and the marks; one
	// node leaving the dead set leaves the others in it.
	v := base.WithDead(back, true).WithRing(other).WithDead(lead, false)
	if !slices.Equal(v.DeadNodes(), []rdma.NodeID{back}) || !v.Migrating(7) {
		t.Fatalf("dead %v, partition 7 migrating %v: want [%d], true", v.DeadNodes(), v.Migrating(7), back)
	}
	if got, want := v.Replicas(3), []rdma.NodeID{lead, back}; !slices.Equal(got, want) {
		t.Fatalf("partition 3 on the new ring = %v, want %v", got, want)
	}
}

// TestWithRingPrunesDead: a new ring keeps dead exactly the dead servers
// it still names — as a member or as any partition's replica.
func TestWithRingPrunesDead(t *testing.T) {
	r := New(ids(3), 2, 16)
	const newcomer = rdma.NodeID(2000)
	grown, err := r.WithMember(newcomer)
	if err != nil {
		t.Fatal(err)
	}
	mv := moved(r, grown)
	p, q := mv[0], mv[1]
	// An AddMemory cut partition p over onto the newcomer, which then died:
	// only p's override names it, and the next cutover (q) keeps it.
	midway := r.Reassign(p, grown.Replicas(p))
	member := r.Replicas(p)[0]
	substituted, err := r.Substitute(member, 3000)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		from     *Ring
		dead     rdma.NodeID
		to       *Ring
		stayDead bool
	}{
		{name: "absent from the new ring", from: r, dead: member, to: substituted},
		{name: "still a member", from: r, dead: member, to: r.Reassign(p, []rdma.NodeID{r.Replicas(p)[1], member}), stayDead: true},
		{name: "named only by an override", from: midway, dead: newcomer, to: midway.Reassign(q, grown.Replicas(q)), stayDead: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v := NewView(tc.from).WithDead(tc.dead, true).WithRing(tc.to)
			if v.Dead(tc.dead) != tc.stayDead {
				t.Fatalf("node %d dead = %v after WithRing, want %v", tc.dead, v.Dead(tc.dead), tc.stayDead)
			}
			for q := uint32(0); q < tc.to.Partitions(); q++ {
				if reps := v.Replicas(q); tc.stayDead && len(reps) > 0 && reps[0] == tc.dead {
					t.Fatalf("partition %d is led by dead node %d", q, tc.dead)
				}
			}
		})
	}
}

// TestPlacementLookupAllocs is the transaction path's gate: a lookup
// allocates nothing, with a healthy ring and with a dead primary alike
// (the promoted order is built once per view, not per lookup).
func TestPlacementLookupAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("AllocsPerRun is meaningless under the race detector")
	}
	r := New(nodes(3), 3, 16)
	var sink rdma.NodeID
	for name, v := range map[string]*View{
		"healthy":      NewView(r),
		"dead primary": NewView(r).WithDead(r.Replicas(0)[0], true),
	} {
		if name != "healthy" && v.Replicas(0)[0] == r.Replicas(0)[0] {
			t.Fatalf("%s: primary not promoted", name)
		}
		allocs := testing.AllocsPerRun(1000, func() {
			for p := uint32(0); p < 16; p++ {
				sink += v.Replicas(p)[0]
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per 16 lookups, want 0", name, allocs)
		}
	}
	_ = sink
}
