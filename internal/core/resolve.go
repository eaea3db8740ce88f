package core

import (
	"fmt"

	"pandora/internal/kvlayout"
	"pandora/internal/rdma"
)

// probeWindow is the number of slots fetched per probe READ. Compute
// servers resolve a key's slot by reading windows of the probe chain
// from the primary, exactly as a one-sided hash-index traversal works.
const probeWindow = 8

// probeResult is the outcome of a probe chain traversal.
type probeResult struct {
	found bool
	ref   objRef // valid when found
	// claimed: a slot on the chain carries an in-flight insert claim for
	// exactly this key. Readers treat the key as absent; a same-key
	// inserter conflicts (or steals the slot if the claim's lock is
	// stray).
	claimed     bool
	claimedSlot uint64
	claimedLock uint64
	// free slot candidate for inserts: the first slot that is unlocked
	// and empty or tombstoned.
	haveFree bool
	freeSlot uint64
	freeKF   uint64 // the key-field value observed there (0 or tombstone)
}

// tableAddr builds the verb address of a slot field on a given replica.
func (cn *ComputeNode) tableAddr(node rdma.NodeID, ref objRef, fieldOff uint64) rdma.Addr {
	tab := cn.schema[ref.table]
	return rdma.Addr{
		Node:   node,
		Region: kvlayout.TableRegionID(ref.table, ref.partition),
		Offset: tab.SlotOffset(ref.slot) + fieldOff,
	}
}

// MaxSlots bounds a table's slots per partition: the address cache packs
// a slot index into 32 bits.
const MaxSlots = 1 << 32

// newAddrs returns an empty address cache for a schema of n tables.
func newAddrs(n int) []map[kvlayout.Key]uint64 {
	addrs := make([]map[kvlayout.Key]uint64, n)
	for i := range addrs {
		addrs[i] = make(map[kvlayout.Key]uint64)
	}
	return addrs
}

// cachedRef consults the node's address cache.
func (cn *ComputeNode) cachedRef(table kvlayout.TableID, key kvlayout.Key) (objRef, bool) {
	cn.addrMu.RLock()
	at, ok := cn.addrs[table][key]
	cn.addrMu.RUnlock()
	return objRef{table: table, key: key, partition: uint32(at >> 32), slot: at & (MaxSlots - 1)}, ok
}

// cacheRef records a resolved address.
func (cn *ComputeNode) cacheRef(ref objRef) {
	cn.addrMu.Lock()
	cn.addrs[ref.table][ref.key] = uint64(ref.partition)<<32 | ref.slot
	cn.addrMu.Unlock()
}

// dropRef invalidates a cached address (stale after a delete).
func (cn *ComputeNode) dropRef(table kvlayout.TableID, key kvlayout.Key) {
	cn.addrMu.Lock()
	delete(cn.addrs[table], key)
	cn.addrMu.Unlock()
}

// walkChain reads key's probe chain on the partition primary with
// one-sided window READs and shows each slot's key field and lock word to
// visit, until visit returns true or the chain ends.
//
// The chain ends where kvlayout.ChainEnds says: at the first slot that
// is empty and unlocked.
func (cn *ComputeNode) walkChain(ep *rdma.Endpoint, table kvlayout.TableID, key kvlayout.Key, visit func(partition uint32, slot, kf, lock uint64) bool) error {
	if int(table) >= len(cn.schema) {
		return fmt.Errorf("core: unknown table %d", table)
	}
	tab := cn.schema[table]
	partition := cn.Ring().Partition(key)
	reps, err := cn.replicasFor(partition)
	if err != nil {
		return err
	}
	region := kvlayout.TableRegionID(table, partition)
	slotSize := tab.SlotSize()
	b := rdma.GetBatch()
	defer b.Put()
	buf := b.Bytes(int(slotSize) * probeWindow)
	limit := min(kvlayout.ProbeLimit, int(tab.Slots))
	home := tab.HomeSlot(key)
	for base := 0; base < limit; base += probeWindow {
		n := min(probeWindow, limit-base)
		// A window may wrap around the region end; readSlotWindow issues
		// one READ per contiguous run.
		startSlot := (home + uint64(base)) & (tab.Slots - 1)
		if err := cn.readSlotWindow(ep, reps[0], region, tab, startSlot, buf[:uint64(n)*slotSize]); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			raw := buf[uint64(i)*slotSize : (uint64(i)+1)*slotSize]
			kf := kvlayout.Uint64(raw[kvlayout.SlotKeyOff:])
			lock := kvlayout.Uint64(raw[kvlayout.SlotLockOff:])
			if visit(partition, (startSlot+uint64(i))&(tab.Slots-1), kf, lock) || kvlayout.ChainEnds(kf, lock) {
				return nil
			}
		}
	}
	return nil
}

// probe resolves key on its probe chain: found, claimed by an in-flight
// insert, or absent with the first free slot an insert could take.
func (cn *ComputeNode) probe(ep *rdma.Endpoint, table kvlayout.TableID, key kvlayout.Key) (res probeResult, err error) {
	err = cn.walkChain(ep, table, key, func(partition uint32, slot, kf, lock uint64) bool {
		switch {
		case kf == kvlayout.KeyField(key):
			res.found = true
			res.ref = objRef{table: table, key: key, partition: partition, slot: slot}
			cn.cacheRef(res.ref)
		case kvlayout.IsClaim(kf) && kvlayout.ClaimKey(kf) == key:
			// An in-flight insert of this very key: the key is not
			// committed anywhere (the claimer probed the whole chain
			// first), so the probe can stop here.
			res.claimed = true
			res.claimedSlot = slot
			res.claimedLock = lock
		case (kf == 0 || kf == kvlayout.TombstoneKeyField) && !res.haveFree && !kvlayout.IsLocked(lock):
			res.haveFree = true
			res.freeSlot = slot
			res.freeKF = kf
		}
		return res.found || res.claimed
	})
	if err != nil {
		return probeResult{}, err
	}
	return res, nil
}

// readSlotWindow fetches n consecutive slots starting at startSlot,
// splitting the READ where the window wraps past the region end.
func (cn *ComputeNode) readSlotWindow(ep *rdma.Endpoint, node rdma.NodeID, region rdma.RegionID, tab kvlayout.Table, startSlot uint64, buf []byte) error {
	slotSize := tab.SlotSize()
	n := uint64(len(buf)) / slotSize
	first := n
	if startSlot+n > tab.Slots {
		first = tab.Slots - startSlot
	}
	b := rdma.GetBatch()
	defer b.Put()
	b.AddRead(rdma.Addr{Node: node, Region: region, Offset: tab.SlotOffset(startSlot)}, buf[:first*slotSize])
	if first < n {
		b.AddRead(rdma.Addr{Node: node, Region: region, Offset: 0}, buf[first*slotSize:])
	}
	return ep.Do(b.Ops()...)
}

// scanForKey re-walks key's probe chain and reports whether any slot
// other than skipSlot commits or claims the key. The commit protocol
// runs this for every insert during validation: two inserters that
// raced to different slots (possible when an unrelated claim on the
// chain aborts mid-race) each see the other's claim here — because a
// claim is published before validation, at least the later claimer
// observes the earlier one — so no duplicate key can ever commit.
func (cn *ComputeNode) scanForKey(ep *rdma.Endpoint, table kvlayout.TableID, key kvlayout.Key, skipSlot uint64) (dup bool, err error) {
	err = cn.walkChain(ep, table, key, func(_ uint32, slot, kf, _ uint64) bool {
		dup = slot != skipSlot && (kf == kvlayout.KeyField(key) || kvlayout.IsClaim(kf) && kvlayout.ClaimKey(kf) == key)
		return dup
	})
	return dup, err
}

// resolve returns key's pinned location, consulting the cache first and
// probing on a miss. found is false when the key is absent.
func (cn *ComputeNode) resolve(ep *rdma.Endpoint, table kvlayout.TableID, key kvlayout.Key) (objRef, bool, error) {
	if ref, ok := cn.cachedRef(table, key); ok {
		return ref, true, nil
	}
	res, err := cn.probe(ep, table, key)
	if err != nil {
		return objRef{}, false, err
	}
	return res.ref, res.found, nil
}
