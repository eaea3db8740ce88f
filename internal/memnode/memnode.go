// Package memnode implements the memory server of the DKVS (§2.1):
// ample passive memory exposed through one-sided RDMA plus a small set
// of wimpy cores that handle only control-path RPCs — connection setup,
// active-link termination (rights revocation), and initial data loading.
// Memory servers never traverse indexes or run transaction logic; all
// data-path access is performed by compute servers through rdma verbs.
package memnode

import (
	"fmt"
	"sync"

	"pandora/internal/kvlayout"
	"pandora/internal/place"
	"pandora/internal/rdma"
)

// Item is one key-value pair for preloading.
type Item struct {
	Key   kvlayout.Key
	Value []byte
}

type tableKey struct {
	table     kvlayout.TableID
	partition uint32
}

// Server is one memory server.
type Server struct {
	id     rdma.NodeID
	fab    *rdma.Fabric
	schema []kvlayout.Table
	ring   *place.Ring

	mu       sync.Mutex
	tables   map[tableKey]*rdma.Region
	logs     map[rdma.NodeID]*rdma.Region
	reconfig *rdma.Region
}

// NewServer attaches a memory server to the fabric and registers a table
// region for every (table, partition) this node replicates under the
// ring's placement.
func NewServer(fab *rdma.Fabric, id rdma.NodeID, ring *place.Ring, schema []kvlayout.Table) *Server {
	s := &Server{
		id:     id,
		fab:    fab,
		schema: schema,
		ring:   ring,
		tables: make(map[tableKey]*rdma.Region),
		logs:   make(map[rdma.NodeID]*rdma.Region),
	}
	fab.AddNode(id)
	for _, tab := range schema {
		for p := uint32(0); p < ring.Partitions(); p++ {
			if !s.replicates(p) {
				continue
			}
			r := fab.RegisterRegion(id, kvlayout.TableRegionID(tab.ID, p), tab.RegionSize())
			s.tables[tableKey{tab.ID, p}] = r
		}
	}
	return s
}

func (s *Server) replicates(partition uint32) bool {
	for _, n := range s.ring.Replicas(partition) {
		if n == s.id {
			return true
		}
	}
	return false
}

// ID returns the server's node id.
func (s *Server) ID() rdma.NodeID { return s.id }

// table returns the local region for (table, partition), or nil.
func (s *Server) table(id kvlayout.TableID, partition uint32) *rdma.Region {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tables[tableKey{id, partition}]
}

// EnsureLogRegion registers (idempotently) the log region this server
// hosts for a compute node, sized for coords coordinator areas. This is
// a control-path RPC issued during connection setup.
func (s *Server) EnsureLogRegion(compute rdma.NodeID, coords int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.logs[compute]; ok {
		return
	}
	size := coords * kvlayout.LogAreaSize
	s.logs[compute] = s.fab.RegisterRegion(s.id, kvlayout.LogRegionID(compute), size)
}

// EnsureTableRegion registers (idempotently) the region for (table,
// partition) and returns it. Control-path RPC issued when an online
// reconfiguration makes this server a replica of a partition it did not
// host at construction (DESIGN.md §13).
func (s *Server) EnsureTableRegion(table kvlayout.TableID, partition uint32) *rdma.Region {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := tableKey{table, partition}
	if r, ok := s.tables[k]; ok {
		return r
	}
	tab := s.schema[table]
	r := s.fab.RegisterRegion(s.id, kvlayout.TableRegionID(table, partition), tab.RegionSize())
	s.tables[k] = r
	return r
}

// HostsPartition reports whether this server currently hosts a region
// for (table, partition).
func (s *Server) HostsPartition(table kvlayout.TableID, partition uint32) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.tables[tableKey{table, partition}]
	return ok
}

// EnsureReconfigRegion registers (idempotently) this server's replica of
// the reconfiguration journal and returns it. Like transaction logs, the
// journal lives on the memory tier: the migration coordinator replicates
// whole-image writes to every live member, and recovery takes the copy
// with the highest sequence number.
func (s *Server) EnsureReconfigRegion(size int) *rdma.Region {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.reconfig == nil {
		s.reconfig = s.fab.RegisterRegion(s.id, kvlayout.ReconfigRegionID(), size)
	}
	return s.reconfig
}

// RevokeLink terminates a compute node's RDMA access rights on this
// server ("active-link termination", §3.2.2 step 2). Control-path RPC.
func (s *Server) RevokeLink(compute rdma.NodeID) { s.fab.Revoke(s.id, compute) }

// RestoreLink re-grants access, used when a falsely suspected node
// rejoins.
func (s *Server) RestoreLink(compute rdma.NodeID) { s.fab.Restore(s.id, compute) }

// Crash fail-stops the server: all verbs targeting it fail until
// Restart.
func (s *Server) Crash() { s.fab.SetDown(s.id, true) }

// Restart brings a previously crashed server back (memory intact; we
// model a process restart over battery-backed/NVM-class memory, §7).
func (s *Server) Restart() { s.fab.SetDown(s.id, false) }

// Down reports whether the server is crashed.
func (s *Server) Down() bool { return s.fab.IsDown(s.id) }

// Preload bulk-loads items into (table, partition) host-locally, before
// any verb traffic. Slots are assigned by deterministic linear probing,
// so every replica loading the same item sequence produces the identical
// layout; preloaded objects start at version 1, unlocked. Each item is
// encoded straight into the region. It returns the assigned slot
// indexes, in item order.
func (s *Server) Preload(table kvlayout.TableID, partition uint32, items []Item) ([]uint64, error) {
	region := s.table(table, partition)
	if region == nil {
		return nil, fmt.Errorf("memnode %d: not a replica of table %d partition %d", s.id, table, partition)
	}
	tab := s.schema[table]
	buf := region.Local()
	slots := make([]uint64, 0, len(items))
	for _, it := range items {
		if len(it.Value) > tab.ValueSize {
			return nil, fmt.Errorf("memnode %d: value of key %d is %d bytes, table holds %d", s.id, it.Key, len(it.Value), tab.ValueSize)
		}
		slot, ok := findSlot(tab, buf, it.Key)
		if !ok {
			return nil, fmt.Errorf("memnode %d: table %d partition %d full while loading key %d", s.id, table, partition, it.Key)
		}
		off := tab.SlotOffset(slot)
		tab.EncodeSlot(buf[off:off+tab.SlotSize()], kvlayout.Slot{
			Version: 1,
			Key:     it.Key,
			Present: true,
			Value:   it.Value,
		})
		slots = append(slots, slot)
	}
	if s.fab.Persistent() {
		region.MarkDurable() // bulk loading counts as persisted
	}
	return slots, nil
}

// findSlot walks key's probe chain to where a reader's walk stops
// (kvlayout.ChainEnds) and returns the key's slot if the chain holds
// it, else the chain's first empty slot.
func findSlot(tab kvlayout.Table, buf []byte, key kvlayout.Key) (uint64, bool) {
	home := tab.HomeSlot(key)
	firstEmpty, haveEmpty := uint64(0), false
	for i := uint64(0); i < kvlayout.ProbeLimit && i < tab.Slots; i++ {
		slot := (home + i) & (tab.Slots - 1)
		off := tab.SlotOffset(slot)
		kf := kvlayout.Uint64(buf[off+kvlayout.SlotKeyOff:])
		switch {
		case kf == kvlayout.KeyField(key):
			return slot, true
		case kf == 0 && !haveEmpty:
			firstEmpty, haveEmpty = slot, true
		}
		if kvlayout.ChainEnds(kf, kvlayout.Uint64(buf[off+kvlayout.SlotLockOff:])) {
			break
		}
	}
	return firstEmpty, haveEmpty
}

// ScanSlots iterates every slot of a hosted (table, partition) region
// host-side under the stripe locks, for diagnostics and consistency
// checking. fn receives the slot index and the decoded slot.
func (s *Server) ScanSlots(table kvlayout.TableID, partition uint32, fn func(slot uint64, sl kvlayout.Slot, rawKeyField uint64)) error {
	region := s.table(table, partition)
	if region == nil {
		return fmt.Errorf("memnode %d: not a replica of table %d partition %d", s.id, table, partition)
	}
	tab := s.schema[table]
	buf := region.Local()
	for i := uint64(0); i < tab.Slots; i++ {
		off := tab.SlotOffset(i)
		raw := buf[off : off+tab.SlotSize()]
		kf := kvlayout.Uint64(raw[kvlayout.SlotKeyOff:])
		fn(i, tab.DecodeSlot(raw), kf)
	}
	return nil
}

// ScanStrayLocks is the host-side helper for the coordinator-id
// recycling mechanism (§3.1.2): it scans this server's table regions
// under the stripe locks and returns the (region id, offset) of every
// lock word owned by a coordinator for which failed returns true. The
// caller releases them with CAS verbs, which resolves races with
// in-flight transactions.
func (s *Server) ScanStrayLocks(failed func(kvlayout.CoordID) bool) []rdma.Addr {
	s.mu.Lock()
	regions := make(map[tableKey]*rdma.Region, len(s.tables))
	for k, v := range s.tables {
		regions[k] = v
	}
	s.mu.Unlock()

	var out []rdma.Addr
	for k, region := range regions {
		tab := s.schema[k.table]
		for slot := uint64(0); slot < tab.Slots; slot++ {
			off := tab.SlotOffset(slot) + kvlayout.SlotLockOff
			w, err := region.ReadUint64(off)
			if err != nil {
				continue
			}
			if kvlayout.IsLocked(w) && failed(kvlayout.LockOwner(w)) {
				out = append(out, rdma.Addr{
					Node:   s.id,
					Region: kvlayout.TableRegionID(k.table, k.partition),
					Offset: off,
				})
			}
		}
	}
	return out
}
