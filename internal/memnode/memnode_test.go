package memnode

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"pandora/internal/kvlayout"
	"pandora/internal/place"
	"pandora/internal/rdma"
)

var testSchema = []kvlayout.Table{
	{ID: 0, ValueSize: 16, Slots: 256},
	{ID: 1, ValueSize: 40, Slots: 128},
}

func newTestCluster(t *testing.T, memNodes, replicas int) (*rdma.Fabric, *place.Ring, []*Server) {
	t.Helper()
	fab := rdma.NewFabric(rdma.LatencyModel{})
	ids := make([]rdma.NodeID, memNodes)
	for i := range ids {
		ids[i] = rdma.NodeID(10 + i)
	}
	ring := place.New(ids, replicas, 8)
	servers := make([]*Server, memNodes)
	for i, id := range ids {
		servers[i] = NewServer(fab, id, ring, testSchema)
	}
	return fab, ring, servers
}

func itemsFor(n int) []Item {
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{Key: kvlayout.Key(i), Value: []byte(fmt.Sprintf("value-%04d", i))}
	}
	return items
}

func partitionItems(ring *place.Ring, items []Item) map[uint32][]Item {
	out := make(map[uint32][]Item)
	for _, it := range items {
		p := ring.Partition(it.Key)
		out[p] = append(out[p], it)
	}
	return out
}

func TestPreloadReplicasIdentical(t *testing.T) {
	fab, ring, servers := newTestCluster(t, 3, 2)
	byPart := partitionItems(ring, itemsFor(100))
	slotMaps := make(map[uint32]map[rdma.NodeID][]uint64)
	for p, items := range byPart {
		slotMaps[p] = make(map[rdma.NodeID][]uint64)
		for _, rep := range ring.Replicas(p) {
			var srv *Server
			for _, s := range servers {
				if s.ID() == rep {
					srv = s
				}
			}
			slots, err := srv.Preload(0, p, items)
			if err != nil {
				t.Fatalf("preload partition %d on %d: %v", p, rep, err)
			}
			slotMaps[p][rep] = slots
		}
	}
	// Every replica assigned identical slots.
	for p, byNode := range slotMaps {
		var ref []uint64
		for _, slots := range byNode {
			if ref == nil {
				ref = slots
				continue
			}
			for i := range ref {
				if ref[i] != slots[i] {
					t.Fatalf("partition %d: replicas disagree on slot for item %d", p, i)
				}
			}
		}
	}
	// Spot-check a value through a one-sided read.
	fab.AddNode(200)
	ep := fab.Endpoint(200)
	tab := testSchema[0]
	key := kvlayout.Key(42)
	p := ring.Partition(key)
	prim := ring.Replicas(p)[0]
	slot := slotMaps[p][prim][indexOf(byPart[p], key)]
	buf := make([]byte, tab.SlotSize())
	addr := rdma.Addr{Node: prim, Region: kvlayout.TableRegionID(0, p), Offset: tab.SlotOffset(slot)}
	if err := ep.Read(addr, buf); err != nil {
		t.Fatal(err)
	}
	s := tab.DecodeSlot(buf)
	if !s.Present || s.Key != key || s.Version != 1 || s.Lock != 0 {
		t.Fatalf("slot decodes to %+v", s)
	}
	if !bytes.HasPrefix(s.Value, []byte("value-0042")) {
		t.Fatalf("value = %q", s.Value)
	}
}

func indexOf(items []Item, k kvlayout.Key) int {
	for i, it := range items {
		if it.Key == k {
			return i
		}
	}
	return -1
}

func TestPreloadSameKeyOverwrites(t *testing.T) {
	_, ring, servers := newTestCluster(t, 2, 1)
	key := kvlayout.Key(7)
	p := ring.Partition(key)
	srv := serverFor(servers, ring.Replicas(p)[0])
	s1, err := srv.Preload(0, p, []Item{{Key: key, Value: []byte("first")}})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := srv.Preload(0, p, []Item{{Key: key, Value: []byte("second")}})
	if err != nil {
		t.Fatal(err)
	}
	if s1[0] != s2[0] {
		t.Fatalf("re-preloading a key moved it: slot %d -> %d", s1[0], s2[0])
	}
}

func serverFor(servers []*Server, id rdma.NodeID) *Server {
	for _, s := range servers {
		if s.ID() == id {
			return s
		}
	}
	return nil
}

func TestPreloadWrongPartition(t *testing.T) {
	_, ring, servers := newTestCluster(t, 3, 1)
	// Find a (server, partition) pair where the server is not a replica.
	for p := uint32(0); p < ring.Partitions(); p++ {
		prim := ring.Replicas(p)[0]
		for _, s := range servers {
			if s.ID() != prim {
				if _, err := s.Preload(0, p, itemsFor(1)); err == nil {
					t.Fatalf("preload on non-replica %d of partition %d succeeded", s.ID(), p)
				}
				return
			}
		}
	}
}

func TestPreloadValueTooLarge(t *testing.T) {
	_, ring, servers := newTestCluster(t, 2, 2)
	p := ring.Partition(1)
	srv := serverFor(servers, ring.Replicas(p)[0])
	_, err := srv.Preload(0, p, []Item{{Key: 1, Value: make([]byte, 17)}})
	if err == nil {
		t.Fatal("oversized value accepted")
	}
}

func TestLogRegionIdempotent(t *testing.T) {
	fab, _, servers := newTestCluster(t, 2, 2)
	srv := servers[0]
	srv.EnsureLogRegion(99, 4)
	srv.EnsureLogRegion(99, 8) // no-op, no panic on duplicate registration
	r := fab.LookupRegion(srv.ID(), kvlayout.LogRegionID(99))
	if r == nil {
		t.Fatal("log region not registered")
	}
	if r.Size() != 4*kvlayout.LogAreaSize {
		t.Fatalf("log region size = %d, want %d", r.Size(), 4*kvlayout.LogAreaSize)
	}
}

func TestRevokeLink(t *testing.T) {
	fab, _, servers := newTestCluster(t, 2, 2)
	fab.AddNode(99)
	servers[0].EnsureLogRegion(99, 1)
	ep := fab.Endpoint(99)
	addr := rdma.Addr{Node: servers[0].ID(), Region: kvlayout.LogRegionID(99), Offset: 0}

	if err := ep.Write(addr, []byte{1}); err != nil {
		t.Fatal(err)
	}
	servers[0].RevokeLink(99)
	if err := ep.Write(addr, []byte{2}); !errors.Is(err, rdma.ErrRevoked) {
		t.Fatalf("post-revocation write err = %v, want ErrRevoked", err)
	}
	servers[0].RestoreLink(99)
	if err := ep.Write(addr, []byte{3}); err != nil {
		t.Fatalf("post-restore write err = %v", err)
	}
}

func TestCrashRestart(t *testing.T) {
	fab, ring, servers := newTestCluster(t, 2, 2)
	fab.AddNode(99)
	ep := fab.Endpoint(99)
	p := uint32(0)
	target := ring.Replicas(p)[0]
	addr := rdma.Addr{Node: target, Region: kvlayout.TableRegionID(0, p), Offset: 0}

	srv := serverFor(servers, target)
	srv.Crash()
	if !srv.Down() {
		t.Fatal("Down() = false after Crash")
	}
	if err := ep.Read(addr, make([]byte, 8)); !errors.Is(err, rdma.ErrNodeDown) {
		t.Fatalf("read from crashed node err = %v", err)
	}
	srv.Restart()
	if err := ep.Read(addr, make([]byte, 8)); err != nil {
		t.Fatalf("read after restart err = %v", err)
	}
}

func TestScanStrayLocks(t *testing.T) {
	fab, ring, servers := newTestCluster(t, 2, 2)
	fab.AddNode(99)
	ep := fab.Endpoint(99)

	// Plant locks from coordinators 5 (failed) and 6 (alive) on two keys.
	byPart := partitionItems(ring, itemsFor(10))
	slotOf := make(map[kvlayout.Key]uint64)
	for p, items := range byPart {
		for _, rep := range ring.Replicas(p) {
			slots, err := serverFor(servers, rep).Preload(0, p, items)
			if err != nil {
				t.Fatal(err)
			}
			for i, it := range items {
				slotOf[it.Key] = slots[i]
			}
		}
	}
	tab := testSchema[0]
	lockAddr := func(k kvlayout.Key) rdma.Addr {
		p := ring.Partition(k)
		return rdma.Addr{
			Node:   ring.Replicas(p)[0],
			Region: kvlayout.TableRegionID(0, p),
			Offset: tab.SlotOffset(slotOf[k]) + kvlayout.SlotLockOff,
		}
	}
	if _, sw, err := ep.CAS(lockAddr(3), 0, kvlayout.LockWord(5, 1)); err != nil || !sw {
		t.Fatal("failed to plant lock for coord 5")
	}
	if _, sw, err := ep.CAS(lockAddr(4), 0, kvlayout.LockWord(6, 1)); err != nil || !sw {
		t.Fatal("failed to plant lock for coord 6")
	}

	failed := func(w uint64) bool { return kvlayout.LockOwner(w) == 5 }
	var found []rdma.Addr
	for _, s := range servers {
		found = append(found, s.ScanStrayLocks(failed)...)
	}
	if len(found) != 1 {
		t.Fatalf("scan found %d stray locks, want 1 (got %+v)", len(found), found)
	}
	if found[0] != lockAddr(3) {
		t.Fatalf("scan found %+v, want %+v", found[0], lockAddr(3))
	}
}
