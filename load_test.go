package pandora

import (
	"bytes"
	"testing"

	"pandora/internal/kvlayout"
	"pandora/internal/memnode"
)

// TestLoadDeterministic loads the same items into two clusters, and by
// hand, one partition and replica at a time, into a third: every table
// region on every server must be byte-equal across the three, however
// Load's per-server goroutines were scheduled.
func TestLoadDeterministic(t *testing.T) {
	cfg := Config{
		MemoryNodes: 3,
		Replication: 2,
		Partitions:  16,
		Tables: []TableSpec{
			{Name: "kv", ValueSize: 24, Capacity: 4000},
			{Name: "small", ValueSize: 8, Capacity: 300},
		},
	}
	tables := []struct {
		name string
		n    int
	}{{"kv", 4000}, {"small", 300}}
	// Values run from one to eight bytes, short of "kv"'s ValueSize.
	value := func(k Key) []byte {
		v := make([]byte, 1+int(k)%8)
		for j := range v {
			v[j] = byte(k) + byte(j)
		}
		return v
	}
	var clusters [3]*Cluster
	for i := range clusters {
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clusters[i] = c
	}
	for _, c := range clusters[:2] {
		for _, tab := range tables {
			if err := c.LoadN(tab.name, tab.n, value); err != nil {
				t.Fatal(err)
			}
		}
	}
	seq := clusters[2]
	ring := seq.mgr.Ring()
	for _, tab := range tables {
		for p := range ring.Partitions() {
			var items []memnode.Item
			for k := range tab.n {
				if ring.Partition(Key(k)) == p {
					items = append(items, memnode.Item{Key: Key(k), Value: value(Key(k))})
				}
			}
			for _, rep := range ring.Replicas(p) {
				if _, err := seq.memByID(rep).Preload(seq.tableID[tab.name], p, items); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	regions := 0
	for _, srv := range seq.memList() {
		for _, tab := range seq.schema {
			for p := range ring.Partitions() {
				if !srv.HostsPartition(tab.ID, p) {
					continue
				}
				id := kvlayout.TableRegionID(tab.ID, p)
				want := seq.fab.LookupRegion(srv.ID(), id).Local()
				for i, c := range clusters[:2] {
					if got := c.fab.LookupRegion(srv.ID(), id).Local(); !bytes.Equal(got, want) {
						t.Fatalf("cluster %d: table %d partition %d on server %d differs from the sequential load", i, tab.ID, p, srv.ID())
					}
				}
				regions++
			}
		}
	}
	if want := 2 * len(seq.schema) * int(ring.Partitions()); regions != want {
		t.Fatalf("compared %d regions, want %d", regions, want)
	}
}
