package pandora_test

import (
	"encoding/binary"
	"errors"
	"slices"
	"testing"

	pandora "pandora"
	"pandora/internal/core"
	"pandora/internal/kvlayout"
	"pandora/internal/rdma"
	"pandora/internal/reconfig"
)

// readAllKeys reads keys 0..n-1 through session s and fails on any value
// other than want(k).
func readAllKeys(t *testing.T, s *pandora.Session, n int, want func(pandora.Key) uint64) {
	t.Helper()
	for k := pandora.Key(0); k < pandora.Key(n); k++ {
		if got := binary.LittleEndian.Uint64(readValidated(t, s, "kv", k)); got != want(k) {
			t.Fatalf("key %d = %d, want %d", k, got, want(k))
		}
	}
}

// assertReplaced checks that the ring names repl and not dead, and that
// no memory server is left recorded dead.
func assertReplaced(t *testing.T, c *pandora.Cluster, dead, repl pandora.NodeID) {
	t.Helper()
	nodes := c.Recovery().Ring().Nodes()
	if slices.Contains(nodes, dead) || !slices.Contains(nodes, repl) {
		t.Fatalf("ring members %v: want %d replaced by %d", nodes, dead, repl)
	}
	if dn := c.Recovery().View().DeadNodes(); len(dn) != 0 {
		t.Fatalf("dead set %v after re-replication, want empty", dn)
	}
}

func TestRereplicateRestoresRedundancy(t *testing.T) {
	const keys = 64
	c := newLoaded(t, testConfig(), keys)
	s := c.Session(0, 0)
	if err := s.Update(10, func(tx *pandora.Tx) error { return tx.Write("kv", 3, u64(333)) }); err != nil {
		t.Fatal(err)
	}

	dead := c.Recovery().Ring().Nodes()[0]
	if err := c.FailMemory(0); err != nil {
		t.Fatal(err)
	}
	// Replace the dead server with a fresh one, in its place.
	repl, err := c.Rereplicate(0)
	if err != nil {
		t.Fatal(err)
	}
	if c.MemoryIndex(repl.ID()) != 0 || c.MemoryIndex(dead) != -1 {
		t.Fatalf("replacement %d at index %d, dead %d at %d: want the replacement in the dead server's place",
			repl.ID(), c.MemoryIndex(repl.ID()), dead, c.MemoryIndex(dead))
	}
	assertReplaced(t, c, dead, repl.ID())

	// Now fail the surviving original: the replacement must serve
	// everything alone.
	if err := c.FailMemory(1); err != nil {
		t.Fatal(err)
	}
	readAllKeys(t, c.Session(1, 0), keys, func(k pandora.Key) uint64 {
		if k == 3 {
			return 333
		}
		return uint64(k) * 10
	})
	if err := s.Update(10, func(tx *pandora.Tx) error { return tx.Write("kv", 9, u64(999)) }); err != nil {
		t.Fatalf("write on the replacement: %v", err)
	}
}

// TestRollBackAfterPrimaryLoss/replaced: key 1 is applied on both
// replicas, key 2 on none, and then key 1's primary — the only holder of
// its lock word — dies and is re-replicated before the pass. The
// replacement's lock word is copied from the promoted backup, not the
// one the dead transaction took: it must not talk the pass out of
// undoing key 1 there. (The undetected and promoted rows are in
// internal/recovery.)
func TestRollBackAfterPrimaryLoss(t *testing.T) {
	t.Run("replaced", func(t *testing.T) {
		cfg := testConfig()
		cfg.MemoryNodes = 3
		c := newLoaded(t, cfg, 32)

		tx := c.Session(0, 0).Begin()
		for _, k := range []pandora.Key{1, 2} {
			if err := tx.Write("kv", k, u64(1000+uint64(k))); err != nil {
				t.Fatal(err)
			}
		}
		offers := 0
		c.Engine(0).SetInjector(func(_ kvlayout.CoordID, p core.CrashPoint) bool {
			if p == core.PointAfterApplyOne {
				offers++
			}
			return offers == 2
		})
		if err := tx.Commit(); !errors.Is(err, rdma.ErrCrashed) {
			t.Fatalf("commit err = %v, want ErrCrashed", err)
		}

		ring := c.Recovery().Ring()
		primary := c.MemoryIndex(ring.Replicas(ring.Partition(1))[0])
		if err := c.FailMemory(primary); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Rereplicate(primary); err != nil {
			t.Fatal(err)
		}

		stats, err := c.FailCompute(0)
		if err != nil {
			t.Fatal(err)
		}
		if stats.LoggedTxs != 1 || stats.RolledBack != 1 {
			t.Fatalf("stats = %+v, want the logged tx rolled back", stats)
		}
		s := c.Session(1, 0)
		for _, k := range []pandora.Key{1, 2} {
			if got := binary.LittleEndian.Uint64(readValidated(t, s, "kv", k)); got != uint64(k)*10 {
				t.Errorf("key %d = %d: a rolled-back write survived", k, got)
			}
		}
		rep, err := c.CheckConsistency("kv")
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.DivergentKeys) != 0 {
			t.Fatalf("replicas disagree on keys %v", rep.DivergentKeys)
		}
	})
}

// TestRereplicateInterrupted crashes the migration coordinator at each
// step of a re-replication. The standby's ReconfigRecover must finish it
// — every key intact, replicas agreeing, no lock left, the replacement
// on the ring and nothing recorded dead — and a second recovery must
// find nothing to do.
func TestRereplicateInterrupted(t *testing.T) {
	const keys = 64
	for _, step := range []reconfig.Step{
		reconfig.StepCopied, reconfig.StepMarked, reconfig.StepCutoverCopied,
		reconfig.StepInstalled, reconfig.StepPartitionDone, reconfig.StepFinalize,
	} {
		t.Run(step.String(), func(t *testing.T) {
			c := newLoaded(t, testConfig(), keys)
			dead := c.Recovery().Ring().Nodes()[0]
			if err := c.FailMemory(0); err != nil {
				t.Fatal(err)
			}
			c.SetReconfigHook(func(ev pandora.ReconfigStep) error {
				if ev.Step == step {
					return pandora.ErrReconfigInterrupted
				}
				return nil
			})
			repl, err := c.Rereplicate(0)
			c.SetReconfigHook(nil)
			if !errors.Is(err, pandora.ErrReconfigInterrupted) {
				t.Fatalf("Rereplicate = %v, want interrupted at %v", err, step)
			}

			did, err := c.ReconfigRecover()
			if err != nil || !did {
				t.Fatalf("ReconfigRecover = (%v, %v), want the interrupted re-replication finished", did, err)
			}
			readAllKeys(t, c.Session(0, 0), keys, func(k pandora.Key) uint64 { return uint64(k) * 10 })
			rep, err := c.CheckConsistency("kv")
			if err != nil {
				t.Fatal(err)
			}
			if rep.Keys != keys || len(rep.DivergentKeys) != 0 || len(rep.DuplicateKeys) != 0 || rep.LockedSlots != 0 {
				t.Fatalf("store after recovery: %+v", rep)
			}
			assertReplaced(t, c, dead, repl.ID())
			if did, err := c.ReconfigRecover(); did || err != nil {
				t.Fatalf("second ReconfigRecover = (%v, %v), want nothing to do", did, err)
			}
		})
	}
}

// TestRereplicateWaitsForRecovery: a re-replication is refused while an
// interrupted migration is journaled, before it attaches anything, and
// runs once ReconfigRecover has finished that migration.
func TestRereplicateWaitsForRecovery(t *testing.T) {
	const keys = 64
	c := newLoaded(t, testConfig(), keys)
	c.SetReconfigHook(func(ev pandora.ReconfigStep) error {
		if ev.Step == reconfig.StepCopied {
			return pandora.ErrReconfigInterrupted
		}
		return nil
	})
	if _, err := c.AddMemory(); !errors.Is(err, pandora.ErrReconfigInterrupted) {
		t.Fatalf("AddMemory = %v, want interrupted", err)
	}
	c.SetReconfigHook(nil)
	dead := c.Recovery().Ring().Nodes()[0]
	if err := c.FailMemory(0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Rereplicate(0); err == nil {
		t.Fatal("Rereplicate ran over a journaled migration")
	}
	if got := c.MemoryIndex(dead); got != 0 || c.MemoryNodes() != 3 {
		t.Fatalf("refused Rereplicate attached a server: dead node at index %d, %d memory nodes", got, c.MemoryNodes())
	}
	if did, err := c.ReconfigRecover(); err != nil || !did {
		t.Fatalf("ReconfigRecover = (%v, %v)", did, err)
	}
	repl, err := c.Rereplicate(0)
	if err != nil {
		t.Fatal(err)
	}
	assertReplaced(t, c, dead, repl.ID())
	readAllKeys(t, c.Session(0, 0), keys, func(k pandora.Key) uint64 { return uint64(k) * 10 })
}

// TestRereplicateIsOnline: while a re-replication copies, transactions
// commit — to the partition being copied and to one not yet moved — and
// both writes reach the replacement.
func TestRereplicateIsOnline(t *testing.T) {
	const keys = 64
	c := newLoaded(t, testConfig(), keys)
	if err := c.FailMemory(0); err != nil {
		t.Fatal(err)
	}
	ring := c.Recovery().Ring()
	written := map[pandora.Key]uint64{}
	c.SetReconfigHook(func(ev pandora.ReconfigStep) error {
		if ev.Step != reconfig.StepCopied || len(written) > 0 {
			return nil
		}
		// The first partition's copy: every other partition is unmoved.
		moving, unmoved := ^pandora.Key(0), ^pandora.Key(0)
		for k := pandora.Key(0); k < keys; k++ {
			if ring.Partition(k) == ev.Partition {
				moving = min(moving, k)
			} else {
				unmoved = min(unmoved, k)
			}
		}
		s := c.Session(0, 0)
		for _, k := range []pandora.Key{moving, unmoved} {
			tx := s.Begin()
			if err := tx.Write("kv", k, u64(7000+uint64(k))); err != nil {
				t.Errorf("write key %d mid-copy: %v", k, err)
				return nil
			}
			if err := tx.Commit(); err != nil {
				t.Errorf("commit of key %d (partition %d) during the copy of partition %d: %v", k, ring.Partition(k), ev.Partition, err)
				return nil
			}
			written[k] = 7000 + uint64(k)
		}
		return nil
	})
	_, err := c.Rereplicate(0)
	c.SetReconfigHook(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(written) != 2 {
		t.Fatalf("%d commits acknowledged during the copy, want 2", len(written))
	}

	// Fail the surviving original: both writes must be on the replacement.
	if err := c.FailMemory(1); err != nil {
		t.Fatal(err)
	}
	readAllKeys(t, c.Session(1, 0), keys, func(k pandora.Key) uint64 {
		if v, ok := written[k]; ok {
			return v
		}
		return uint64(k) * 10
	})
}
