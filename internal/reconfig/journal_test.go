package reconfig

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"pandora/internal/kvlayout"
	"pandora/internal/memnode"
	"pandora/internal/place"
	"pandora/internal/rdma"
	"pandora/internal/recovery"
)

// migEnv is the least a migration needs: a fabric, three memory servers
// holding a few keys, and a recovery manager with no compute peers.
type migEnv struct {
	fab    *rdma.Fabric
	schema []kvlayout.Table
	mgr    *recovery.Manager
}

func newMigEnv(t *testing.T) *migEnv {
	t.Helper()
	e := &migEnv{
		fab:    rdma.NewFabric(rdma.LatencyModel{}),
		schema: []kvlayout.Table{{ID: 0, ValueSize: 16, Slots: 64}},
	}
	ring := place.New([]rdma.NodeID{100, 101, 102}, 2, 8)
	var mems []*memnode.Server
	for _, id := range ring.Members() {
		mems = append(mems, memnode.NewServer(e.fab, id, ring, e.schema))
	}
	for k := kvlayout.Key(0); k < 32; k++ {
		p := ring.Partition(k)
		for _, srv := range mems {
			if !slices.Contains(ring.Replicas(p), srv.ID()) {
				continue
			}
			if _, err := srv.Preload(0, p, []memnode.Item{{Key: k, Value: []byte(fmt.Sprintf("value-%010d", k))}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	e.mgr = recovery.NewManager(recovery.Config{Fabric: e.fab, Ring: ring, Schema: e.schema, Mems: mems, CoordsPerNode: 1})
	return e
}

// coordinator attaches a migration coordinator on its own fabric node.
func (e *migEnv) coordinator(node rdma.NodeID, onStep func(StepEvent) error) *Coordinator {
	return NewCoordinator(Config{Fabric: e.fab, Schema: e.schema, Mgr: e.mgr, Node: node, OnStep: onStep})
}

// migration returns the arguments of Run for an add of a fresh server
// (attached first, as Cluster.AddMemory does) or a remove of member 102.
func (e *migEnv) migration(t *testing.T, kind Kind) (rdma.NodeID, *place.Ring) {
	t.Helper()
	cur := e.mgr.Ring()
	if kind == KindRemove {
		target, err := cur.WithoutMember(102)
		if err != nil {
			t.Fatal(err)
		}
		return 102, target
	}
	target, err := cur.WithMember(103)
	if err != nil {
		t.Fatal(err)
	}
	e.mgr.AddMem(memnode.NewServer(e.fab, 103, target, e.schema), place.Hole)
	return 103, target
}

// TestJournalNeverRewinds crashes the coordinator at each of the seven
// steps in turn, for an add and a remove, and lets a second coordinator
// recover twice. The journal is read back at every hook firing of both
// runs: no partition's state ever decreases, a step's hook never fires
// ahead of the journaled state that says the step was reached, and a
// complete phase never reopens. The second recovery finds nothing to do
// and writes nothing.
func TestJournalNeverRewinds(t *testing.T) {
	atLeast := map[Step]PartitionState{StepCopied: StateCopying, StepCutoverCopied: StateCutover, StepPartitionDone: StateDone}
	for _, kind := range []Kind{KindAdd, KindRemove} {
		for at := StepJournalStart; at <= StepFinalize; at++ {
			t.Run(fmt.Sprintf("%v/%v", kind, at), func(t *testing.T) {
				e := newMigEnv(t)
				observer := e.coordinator(62, nil)
				var last *image
				observe := func(ev StepEvent) {
					im := observer.readJournal()
					if im == nil {
						t.Fatalf("at %v: no journal copy decodes", ev.Step)
					}
					if last != nil {
						if im.seq < last.seq || (last.phase == phaseComplete && im.phase != phaseComplete) {
							t.Fatalf("at %v: journal went from seq %d phase %d to seq %d phase %d", ev.Step, last.seq, last.phase, im.seq, im.phase)
						}
						for p, s := range im.states {
							if s < last.states[p] {
								t.Fatalf("at %v: partition %d rewound %v → %v", ev.Step, p, last.states[p], s)
							}
						}
					}
					last = im
					if want, ok := atLeast[ev.Step]; ok && im.states[ev.Partition] < want {
						t.Fatalf("at %v: partition %d journaled %v, want at least %v", ev.Step, ev.Partition, im.states[ev.Partition], want)
					}
				}

				subject, target := e.migration(t, kind)
				crashed := false
				err := e.coordinator(60, func(ev StepEvent) error {
					observe(ev)
					if ev.Step == at && !crashed {
						crashed = true
						return ErrInterrupted
					}
					return nil
				}).Run(kind, subject, target)
				if !errors.Is(err, ErrInterrupted) {
					t.Fatalf("Run = %v, want an interruption at %v", err, at)
				}

				standby := e.coordinator(61, func(ev StepEvent) error { observe(ev); return nil })
				if did, err := standby.Recover(); !did || err != nil {
					t.Fatalf("first Recover = (%t, %v), want (true, nil)", did, err)
				}
				done := observer.readJournal()
				if done == nil || done.phase != phaseComplete {
					t.Fatalf("after Recover the journal is %+v, want complete", done)
				}
				for p, s := range done.states {
					if s != StateDone {
						t.Errorf("after Recover partition %d is %v", p, s)
					}
				}
				if !equalIDs(e.mgr.Ring().Members(), target.Members()) {
					t.Errorf("after Recover the installed members are %v, want %v", e.mgr.Ring().Members(), target.Members())
				}
				if did, err := standby.Recover(); did || err != nil {
					t.Fatalf("second Recover = (%t, %v), want (false, nil)", did, err)
				}
				if again := observer.readJournal(); again == nil || again.seq != done.seq {
					t.Fatalf("second Recover moved the journal from seq %d: %+v", done.seq, again)
				}
			})
		}
	}
}

// TestRecoverRefusesMiscountedImage: the partition count is a decoded
// word, and a flip that still fits the buffer decodes (fewer partitions,
// or more, read from the region's zero tail). Recover and every
// journaled step index states by the ring's partition numbers, so both
// must refuse such an image with an error rather than index past it.
func TestRecoverRefusesMiscountedImage(t *testing.T) {
	for _, bit := range []uint{3, 0} { // 8 partitions → 0, and → 9
		e := newMigEnv(t)
		subject, target := e.migration(t, KindAdd)
		err := e.coordinator(60, func(ev StepEvent) error {
			if ev.Step == StepCopied {
				return ErrInterrupted
			}
			return nil
		}).Run(KindAdd, subject, target)
		if !errors.Is(err, ErrInterrupted) {
			t.Fatal(err)
		}
		c := e.coordinator(61, nil)
		const countWord = 8 * 8
		for _, id := range c.journalHosts() {
			addr := rdma.Addr{Node: id, Region: kvlayout.ReconfigRegionID(), Offset: countWord}
			word := make([]byte, 8)
			if err := c.ep.Read(addr, word); err != nil {
				t.Fatal(err)
			}
			word[0] ^= 1 << bit
			if err := c.ep.Write(addr, word); err != nil {
				t.Fatal(err)
			}
		}
		im := c.readJournal()
		if im == nil || len(im.states) == 8 {
			t.Fatalf("the flipped image should still decode, with a wrong count: %+v", im)
		}
		if did, err := c.Recover(); !did || err == nil {
			t.Errorf("Recover over %d journaled partitions on an 8-partition ring = (%t, %v), want an error", len(im.states), did, err)
		}
		if _, err := c.advanceJournal(0, StateDone); err == nil {
			t.Errorf("advanceJournal over %d journaled partitions: no error", len(im.states))
		}
		if err := c.completeJournal(); err == nil {
			t.Errorf("completeJournal over %d journaled partitions: no error", len(im.states))
		}
	}
}
