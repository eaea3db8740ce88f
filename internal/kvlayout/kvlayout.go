// Package kvlayout defines the on-memory-node layout of the DKVS: the
// 8-byte lock word carrying the owner coordinator-id (the heart of
// Pandora's Implicit Lock Logging), the object slot format, table-region
// addressing, and the undo-log record format written by the logging
// phase.
//
// Everything here is deterministic byte-level encoding: compute servers
// and the recovery coordinator independently reconstruct addresses and
// interpret raw memory fetched with one-sided READs, so there is no
// room for per-process state in these computations.
package kvlayout

import (
	"pandora/internal/rdma"
)

// CoordID is the unique 16-bit coordinator identifier assigned by the
// failure detector when a coordinator is spawned (§3.1.2). It is
// embedded in every lock word the coordinator takes, which is what lets
// other transactions recognise (and steal) stray locks after a failure.
type CoordID uint16

// MaxCoordIDs is the size of the coordinator-id space and of the
// failed-ids bitset.
const MaxCoordIDs = 1 << 16

// TableID identifies a table of the store.
type TableID uint16

// Key is an 8-byte key, as in the paper's benchmarks.
type Key uint64

// Lock-word layout (8 bytes, little-endian on the wire):
//
//	bit  63     locked flag
//	bits 47..32 owner CoordID
//	bits 31..0  owner-local transaction tag (debugging/uniqueness)
//
// An unlocked word is exactly zero, so locking is CAS(0 -> word) and
// unlocking is an 8-byte WRITE of zero.
const lockedFlag = uint64(1) << 63

// LockWord builds the lock word a coordinator CASes into an object
// header.
func LockWord(owner CoordID, tag uint32) uint64 {
	return lockedFlag | uint64(owner)<<32 | uint64(tag)
}

// IsLocked reports whether the word represents a held lock.
func IsLocked(word uint64) bool { return word&lockedFlag != 0 }

// LockOwner extracts the owner coordinator-id from a held lock word.
func LockOwner(word uint64) CoordID { return CoordID(word >> 32) }

// LockTag extracts the owner-local transaction tag.
func LockTag(word uint64) uint32 { return uint32(word) }

// Slot layout within a table region:
//
//	+0   lock word (8)
//	+8   version   (8)
//	+16  key field (8; stored key+1, 0 = empty slot)
//	+24  value     (ValueSize, padded to 8)
const (
	SlotLockOff    = 0
	SlotVersionOff = 8
	SlotKeyOff     = 16
	SlotValueOff   = 24
)

// Table describes the layout of one table. All replicas of a partition
// use the identical layout, so slot indexes computed on one replica are
// valid on every other — recovery depends on this.
type Table struct {
	ID        TableID
	ValueSize int    // bytes of user value per object
	Slots     uint64 // slots per partition region; power of two
}

// SlotSize returns the byte size of one slot.
func (t Table) SlotSize() uint64 {
	return SlotValueOff + uint64(pad8(t.ValueSize))
}

// RegionSize returns the byte size of one partition region.
func (t Table) RegionSize() int { return int(t.Slots * t.SlotSize()) }

// SlotOffset returns the region offset of slot i.
func (t Table) SlotOffset(i uint64) uint64 { return i * t.SlotSize() }

// HomeSlot returns the slot index where probing for key begins.
func (t Table) HomeSlot(k Key) uint64 { return Mix64(uint64(k)) & (t.Slots - 1) }

// ProbeLimit bounds linear probing; beyond it an insert fails with
// "table full".
const ProbeLimit = 64

// ChainEnds reports whether a probe chain ends at a slot holding key
// field kf and lock word lock: the slot is empty and unlocked. A locked
// empty slot belongs to an in-flight insert and a tombstone to a
// deleted key; both keep the chain alive, so keys placed past them stay
// reachable. Readers (core's chain walk) and the bulk loader
// (memnode.Preload) stop at the same slot.
func ChainEnds(kf, lock uint64) bool { return kf == 0 && !IsLocked(lock) }

// TombstoneKeyField marks a deleted slot. Probing continues past
// tombstones (so keys placed after a later-deleted slot stay reachable)
// but stops at genuinely empty slots. Inserts may reclaim tombstones.
const TombstoneKeyField = ^uint64(0)

// ClaimFlag marks a key field as an in-flight insert claim: the
// inserting transaction has pinned the slot for its key, but the insert
// is uncommitted, so readers treat the slot as absent while probers of
// the same key see a conflict. The claim becomes a committed key field
// (flag cleared) at commit, or a tombstone on abort/rollback. Keys are
// therefore limited to 63 bits.
const ClaimFlag = uint64(1) << 63

// ClaimKeyField returns the claim encoding of a key.
func ClaimKeyField(k Key) uint64 { return ClaimFlag | (uint64(k) + 1) }

// IsClaim reports whether a key field is an in-flight insert claim.
func IsClaim(kf uint64) bool { return kf&ClaimFlag != 0 && kf != TombstoneKeyField }

// ClaimKey extracts the key from a claim field.
func ClaimKey(kf uint64) Key { return Key(kf&^ClaimFlag - 1) }

// pad8 rounds n up to a multiple of 8.
func pad8(n int) int { return (n + 7) &^ 7 }

// Mix64 is a splitmix64 finaliser used for slot hashing and partition
// selection. It must never change: addresses derived from it are
// recomputed independently by coordinators and by recovery.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Region-id scheme. Table regions encode (table, partition); log
// regions encode the owning compute node; the reconfiguration journal
// has its own flag bit.
const logRegionFlag = rdma.RegionID(1) << 31

// reconfigRegionFlag marks the reconfiguration-journal region that every
// memory server hosts during a membership migration.
const reconfigRegionFlag = rdma.RegionID(1) << 30

// TableRegionID returns the region id hosting (table, partition) on any
// replica node.
func TableRegionID(table TableID, partition uint32) rdma.RegionID {
	return rdma.RegionID(table)<<16 | rdma.RegionID(partition&0xffff)
}

// LogRegionID returns the region id of the log area that memory servers
// host for the given compute node.
func LogRegionID(computeNode rdma.NodeID) rdma.RegionID {
	return logRegionFlag | rdma.RegionID(computeNode)
}

// IsLogRegion reports whether id names a log region.
func IsLogRegion(id rdma.RegionID) bool { return id&logRegionFlag != 0 }

// ReconfigRegionID returns the region id of the reconfiguration journal
// replica a memory server hosts. Migration state is journaled on the
// memory tier exactly like transaction logs: replicated whole-image
// writes whose highest sequence number wins at recovery.
func ReconfigRegionID() rdma.RegionID { return reconfigRegionFlag }

// IsReconfigRegion reports whether id names the reconfiguration journal.
func IsReconfigRegion(id rdma.RegionID) bool {
	return id&reconfigRegionFlag != 0 && id&logRegionFlag == 0
}

// hotlockRegionFlag marks the per-partition hot-lock (ticket queue)
// region each memory server hosts next to its table partitions.
const hotlockRegionFlag = rdma.RegionID(1) << 29

// Hot-lock ticket lanes (DESIGN.md §14). A key promoted to queued mode
// keeps its authoritative lock word in the slot — PILL stealing and
// recovery are untouched — but acquirers additionally FAA a ticket pair
// in the partition's hot-lock region for FIFO ordering. Lanes are
// shared by hash: aliasing two hot keys onto one lane only couples
// their fairness, never their correctness.
//
//	lane layout (16 bytes): +0 tail ticket, +8 head ticket
const (
	HotlockLanes    = 256 // lanes per partition region; power of two
	HotlockLaneSize = 16
	HotlockTailOff  = 0
	HotlockHeadOff  = 8
)

// HotlockRegionID returns the region id of the hot-lock lane region a
// replica hosts for one partition. Every table of the partition shares
// the same lane region.
func HotlockRegionID(partition uint32) rdma.RegionID {
	return hotlockRegionFlag | rdma.RegionID(partition&0xffff)
}

// IsHotlockRegion reports whether id names a hot-lock lane region.
func IsHotlockRegion(id rdma.RegionID) bool {
	return id&hotlockRegionFlag != 0 && id&(logRegionFlag|reconfigRegionFlag) == 0
}

// HotlockRegionSize returns the byte size of one partition's lane
// region.
func HotlockRegionSize() int { return HotlockLanes * HotlockLaneSize }

// HotlockLane returns the lane index serving (table, key) within the
// partition's hot-lock region. Like HomeSlot it must never change:
// waiters, releasers, stealers, and recovery all recompute it
// independently.
func HotlockLane(table TableID, key Key) uint64 {
	return Mix64(uint64(table)<<48^uint64(key)) & (HotlockLanes - 1)
}

// HotlockLaneOffset returns the region offset of a lane.
func HotlockLaneOffset(lane uint64) uint64 { return lane * HotlockLaneSize }

// Ticket-word layout (8 bytes): bits 47..0 hold the ticket sequence;
// the top 16 bits are reserved zero. Sequences are compared after
// masking so a reserved-bit write can never wedge a lane.
const ticketSeqMask = uint64(1)<<48 - 1

// TicketSeq extracts the sequence number from a ticket word.
func TicketSeq(word uint64) uint64 { return word & ticketSeqMask }
