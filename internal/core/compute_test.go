package core

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"pandora/internal/kvlayout"
	"pandora/internal/place"
	"pandora/internal/race"
	"pandora/internal/rdma"
)

// TestInstallEpochRule pins which view transitions invalidate what
// (DESIGN.md §13): a dead-set change bumps the cache epoch; a membership
// change also drops the address cache and moves the log servers; marks
// and a migration's per-partition rings do none of it. The stray-lock
// announcement rides the table: it sets the failed ids and bumps the
// epoch, every time.
func TestInstallEpochRule(t *testing.T) {
	e := newEnv(t, envConfig{memNodes: 3, replicas: 2})
	grown, err := e.ring.WithMember(200)
	if err != nil {
		t.Fatal(err)
	}
	victim := e.ring.LogServers(0)[0]
	for _, tc := range []struct {
		name             string
		step             func(*place.View) *place.View
		announce         []kvlayout.CoordID // NotifyStrayLocks(announce) in place of Install(step(view))
		bump, dropsAddrs bool
	}{
		{name: "mark a partition", step: func(v *place.View) *place.View { return v.WithMigrating(3, true) }},
		{name: "unmark it", step: func(v *place.View) *place.View { return v.WithMigrating(3, false) }},
		{name: "per-partition ring", step: func(v *place.View) *place.View {
			return v.WithRing(v.Ring().Reassign(3, grown.Replicas(3)))
		}},
		{name: "same view again", step: func(v *place.View) *place.View { return v }},
		{name: "memory server dies", step: func(v *place.View) *place.View { return v.WithDead(victim, true) }, bump: true},
		{name: "and restarts", step: func(v *place.View) *place.View { return v.WithDead(victim, false) }, bump: true},
		// Not a view transition, but the same rule: failed ids are
		// announced after log recovery may have rolled writes back.
		{name: "stray locks announced", announce: []kvlayout.CoordID{7, 4000}, bump: true},
		{name: "and announced again", announce: []kvlayout.CoordID{7}, bump: true},
		{name: "final migration ring", step: func(v *place.View) *place.View {
			return v.WithRing(grown.Sequenced(v.Ring()))
		}, bump: true, dropsAddrs: true},
		{name: "replacement substituted", step: func(v *place.View) *place.View {
			substituted, err := v.Ring().Substitute(victim, 300)
			if err != nil {
				t.Fatal(err)
			}
			return v.WithDead(victim, true).WithRing(substituted)
		}, bump: true, dropsAddrs: true},
	} {
		cn := e.nodes[0]
		cn.cacheRef(objRef{table: 0, key: 1})
		epoch := cn.cacheEpoch.Load()
		next := cn.place.Load().View
		if tc.announce != nil {
			cn.NotifyStrayLocks(tc.announce)
		} else {
			next = tc.step(next)
			cn.Install(next)
		}
		for _, id := range tc.announce {
			if !cn.failed.Test(id) {
				t.Errorf("%s: coordinator %d not in the failed-ids set", tc.name, id)
			}
		}
		if got := cn.cacheEpoch.Load() != epoch; got != tc.bump {
			t.Errorf("%s: cache epoch bumped = %v, want %v", tc.name, got, tc.bump)
		}
		_, kept := cn.cachedRef(0, 1)
		if kept == tc.dropsAddrs {
			t.Errorf("%s: address cache kept = %v, want %v", tc.name, kept, !tc.dropsAddrs)
		}
		// The log servers always follow the installed ring; only a
		// membership change can make that a different answer.
		want := next.Ring().LogServers(cn.ID())
		if got := cn.Coordinator(1).LogServers(); !slices.Equal(got, want) {
			t.Errorf("%s: LogServers = %v, want %v", tc.name, got, want)
		}
		if moved := !slices.Equal(want, e.ring.LogServers(cn.ID())); moved && !tc.dropsAddrs {
			t.Errorf("%s: log servers moved to %v without a membership change", tc.name, want)
		}
	}
	if got := e.nodes[0].Coordinator(0).LogServers(); slices.Contains(got, victim) || !slices.Contains(got, 300) {
		t.Fatalf("after substitution LogServers = %v: want %d replaced by 300", got, victim)
	}
}

// TestInstallRacesReaders swaps two views that differ in ring AND dead
// set while eight readers look a partition up: every answer must be one
// view's answer, never one view's ring ordered by the other's dead set.
func TestInstallRacesReaders(t *testing.T) {
	e := newEnv(t, envConfig{memNodes: 3, replicas: 3})
	cn := e.nodes[0]
	const p = 4
	reps := e.ring.Replicas(p)
	a, b, c := reps[0], reps[1], reps[2]
	va := place.NewView(e.ring).WithDead(a, true)
	vb := place.NewView(e.ring.Reassign(p, []rdma.NodeID{c, b, a})).WithDead(c, true)
	wantA, wantB := []rdma.NodeID{b, a, c}, []rdma.NodeID{b, c, a}
	// The torn pairs would answer [a b c] (ring A, dead set B) and
	// [c b a] (ring B, dead set A): neither is a legal answer.
	if !slices.Equal(va.Replicas(p), wantA) || !slices.Equal(vb.Replicas(p), wantB) {
		t.Fatalf("setup: views answer %v and %v", va.Replicas(p), vb.Replicas(p))
	}
	cn.Install(va)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				got, err := cn.replicasFor(p)
				if err != nil || (!slices.Equal(got, wantA) && !slices.Equal(got, wantB)) {
					t.Errorf("replicasFor = %v, %v: belongs to neither installed view", got, err)
					return
				}
			}
		}()
	}
	for i := 0; i < 2000; i++ {
		cn.Install(va)
		cn.Install(vb)
	}
	stop.Store(true)
	wg.Wait()
}

// TestReplicasForAllocs is the node-level half of the placement gate
// (place.TestPlacementLookupAllocs covers the view): the transaction
// path's lookup allocates nothing, also while a primary is dead — the
// state in which every write entry used to allocate a reordered list.
func TestReplicasForAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("AllocsPerRun is meaningless under the race detector")
	}
	e := newEnv(t, envConfig{memNodes: 3, replicas: 3})
	cn := e.nodes[0]
	for _, state := range []string{"healthy", "dead primary"} {
		allocs := testing.AllocsPerRun(1000, func() {
			for p := uint32(0); p < 16; p++ {
				if _, err := cn.replicasFor(p); err != nil {
					t.Fatal(err)
				}
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per 16 lookups, want 0", state, allocs)
		}
		cn.Install(cn.place.Load().WithDead(e.ring.Replicas(0)[0], true))
	}
}
