package pandora

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"

	"pandora/internal/core"
	"pandora/internal/kvlayout"
)

// seedPartitionSlots is the sizing partitionSlots replaced: three times
// the per-partition mean plus 32, rounded up to a power of two.
func seedPartitionSlots(capacity int, partitions uint32) uint64 {
	n := uint64(3*(capacity/int(partitions)+1) + 32)
	s := uint64(8)
	for s < n {
		s <<= 1
	}
	return s
}

// TestPartitionSlotsBound checks the sizing rule over capacities from 1
// to 2²³ keys: the heaviest partition a hashed assignment plausibly
// produces, p + 4√p keys, fits in maxLoadFactor of the slots, and no
// table needs more slots than the address cache can name.
func TestPartitionSlotsBound(t *testing.T) {
	var caps []int
	for c := 1; c <= 1<<23; c <<= 1 {
		caps = append(caps, c-1, c, c+1)
	}
	caps = append(caps[1:], 4000, 200_000) // drop the 0
	for _, partitions := range []uint32{1, 4, 16, 64} {
		for _, capacity := range caps {
			slots := partitionSlots(capacity, partitions)
			p := float64(capacity/int(partitions) + 1)
			if worst := p + 4*math.Sqrt(p); worst > maxLoadFactor*float64(slots) {
				t.Errorf("capacity %d, %d partitions: %d slots hold %.0f keys above %.0f %% load", capacity, partitions, slots, worst, 100*maxLoadFactor)
			}
			if slots > core.MaxSlots {
				t.Errorf("capacity %d, %d partitions: %d slots exceed MaxSlots", capacity, partitions, slots)
			}
		}
	}
}

// TestBenchmarkShapeRegionBytes pins the gain on the repository
// benchmark's shape — 200 000 keys and the 4 096-key failover table over
// 16 partitions, two replicas — at both of its value sizes: the table
// regions take at least 40 % fewer bytes than under the seed rule. New
// must provision what partitionSlots says.
func TestBenchmarkShapeRegionBytes(t *testing.T) {
	const partitions, replication = 16, 2
	for _, valueSize := range []int{16, 40} {
		specs := []TableSpec{
			{Name: "main", ValueSize: valueSize, Capacity: 200_000},
			{Name: "fo", ValueSize: 16, Capacity: 4096},
		}
		var now, seed int
		for _, ts := range specs {
			tab := kvlayout.Table{ValueSize: ts.ValueSize, Slots: partitionSlots(ts.Capacity, partitions)}
			now += partitions * replication * tab.RegionSize()
			tab.Slots = seedPartitionSlots(ts.Capacity, partitions)
			seed += partitions * replication * tab.RegionSize()
		}
		if float64(now) > 0.6*float64(seed) {
			t.Errorf("value size %d: table regions take %d bytes, want at most 60 %% of the seed rule's %d", valueSize, now, seed)
		}
		t.Logf("value size %d: %.1f MB of table regions, seed rule %.1f MB", valueSize, float64(now)/1e6, float64(seed)/1e6)
	}

	c, err := New(Config{MemoryNodes: 2, Replication: 2, Partitions: 16, Tables: []TableSpec{{Name: "kv", ValueSize: 16, Capacity: 4000}}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got, want := c.schema[0].Slots, partitionSlots(4000, 16); got != want {
		t.Fatalf("New provisioned %d slots per partition, want %d", got, want)
	}
}

// TestFillAndChurn loads a 16-partition table to exactly its Capacity,
// then deletes and re-inserts its keys through Session.Update, TPC-C's
// neworder pattern: each transaction deletes one batch and re-inserts
// the batch the previous one deleted. Deletes leave tombstones, which
// never end a probe chain, so chains only grow; at Capacity none may
// outgrow ProbeLimit. Every key must then read back from a compute node
// whose address cache is cold, so each read walks its chain, and the
// replicas must agree.
func TestFillAndChurn(t *testing.T) {
	for _, tc := range []struct {
		capacity int
		// A round churns the keys k with k % stride == round.
		stride, rounds int
	}{
		{4096, 1, 3},
		{200_000, 64, 2},
	} {
		t.Run(fmt.Sprint(tc.capacity), func(t *testing.T) {
			c, err := New(Config{
				MemoryNodes: 3,
				Replication: 2,
				Partitions:  16,
				Tables:      []TableSpec{{Name: "kv", ValueSize: 16, Capacity: tc.capacity}},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			value := func(k Key) []byte { return []byte(fmt.Sprint(uint64(k))) }
			if err := c.LoadN("kv", tc.capacity, value); err != nil {
				t.Fatal(err)
			}

			s := c.Session(0, 0)
			const batch = 8
			for round := range tc.rounds {
				var keys []Key
				for k := round; k < tc.capacity; k += tc.stride {
					keys = append(keys, Key(k))
				}
				var prev []Key
				for lo := 0; lo < len(keys) || len(prev) > 0; lo += batch {
					cur := keys[min(lo, len(keys)):min(lo+batch, len(keys))]
					err := s.Update(10, func(tx *Tx) error {
						for _, k := range cur {
							if err := tx.Delete("kv", k); err != nil {
								return err
							}
						}
						for _, k := range prev {
							if err := tx.Insert("kv", k, value(k)); err != nil {
								return err
							}
						}
						return nil
					})
					if errors.Is(err, core.ErrTableFull) {
						t.Fatalf("round %d: re-inserting keys %v: %v", round, prev, err)
					}
					if err != nil {
						t.Fatalf("round %d: deleting keys %v, re-inserting %v: %v", round, cur, prev, err)
					}
					prev = cur
				}
			}

			cold := c.Session(1, 0)
			for lo := 0; lo < tc.capacity; lo += 16 {
				err := cold.Update(10, func(tx *Tx) error {
					for k := Key(lo); k < Key(min(lo+16, tc.capacity)); k++ {
						v, err := tx.Read("kv", k)
						if err != nil {
							return fmt.Errorf("key %d: %w", k, err)
						}
						if !bytes.HasPrefix(v, value(k)) {
							return fmt.Errorf("key %d reads %q", k, v)
						}
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			rep, err := c.CheckConsistency("kv")
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.DuplicateKeys) > 0 || len(rep.DivergentKeys) > 0 || rep.LockedSlots > 0 || rep.Keys != tc.capacity {
				t.Fatalf("consistency: %d duplicate, %d divergent keys, %d locked slots, %d keys (want %d)",
					len(rep.DuplicateKeys), len(rep.DivergentKeys), rep.LockedSlots, rep.Keys, tc.capacity)
			}
		})
	}
}
