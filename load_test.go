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
// Load's per-server goroutines were scheduled. No region is a power of
// two slots, and table "wrap" homes four keys at partition 0's last
// slot, so their chain runs past the region's end into slot 0.
func TestLoadDeterministic(t *testing.T) {
	cfg := Config{
		MemoryNodes: 3,
		Replication: 2,
		Partitions:  16,
		Tables: []TableSpec{
			{Name: "kv", ValueSize: 24, Capacity: 4000},
			{Name: "small", ValueSize: 8, Capacity: 300},
			{Name: "wrap", ValueSize: 8, Capacity: 64},
		},
	}
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
	seq := clusters[2]
	ring := seq.mgr.Ring()
	wrapTab := seq.schema[seq.tableID["wrap"]]
	var homedLast []Key
	for k := Key(1 << 20); len(homedLast) < 4; k++ {
		if ring.Partition(k) == 0 && wrapTab.HomeSlot(k) == wrapTab.Slots-1 {
			homedLast = append(homedLast, k)
		}
	}
	items := func(keys ...Key) []KV {
		kvs := make([]KV, len(keys))
		for i, k := range keys {
			kvs[i] = KV{Key: k, Value: value(k)}
		}
		return kvs
	}
	upTo := func(n int) []Key {
		keys := make([]Key, n)
		for i := range keys {
			keys[i] = Key(i)
		}
		return keys
	}
	tables := []struct {
		name string
		kvs  []KV
	}{
		{"kv", items(upTo(4000)...)},
		{"small", items(upTo(300)...)},
		{"wrap", items(append(upTo(60), homedLast...)...)},
	}
	for _, c := range clusters[:2] {
		for _, tab := range tables {
			if err := c.Load(tab.name, tab.kvs); err != nil {
				t.Fatal(err)
			}
		}
	}
	wrapped := false
	for _, tab := range tables {
		id := seq.tableID[tab.name]
		for p := range ring.Partitions() {
			var part []memnode.Item
			for _, kv := range tab.kvs {
				if ring.Partition(kv.Key) == p {
					part = append(part, memnode.Item{Key: kv.Key, Value: kv.Value})
				}
			}
			for _, rep := range ring.Replicas(p) {
				slots, err := seq.memByID(rep).Preload(id, p, part)
				if err != nil {
					t.Fatal(err)
				}
				for i, it := range part {
					wrapped = wrapped || slots[i] < seq.schema[id].HomeSlot(it.Key)
				}
			}
		}
	}
	if !wrapped {
		t.Fatal("no chain wrapped past its region's last slot")
	}
	for _, tab := range seq.schema {
		if tab.Slots&(tab.Slots-1) == 0 {
			t.Fatalf("table %d has %d slots per partition, a power of two", tab.ID, tab.Slots)
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
