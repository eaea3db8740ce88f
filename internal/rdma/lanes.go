package rdma

import (
	"sync"
	"unsafe"
)

// rwLanes is the number of reader lanes of a laneRW.
const rwLanes = 8

// laneRW is a reader-sharded RWMutex: a reader holds one lane, a writer
// all of them. Every verb read-locks its target's barrier; on one
// sync.RWMutex that is an atomic add on a word every endpoint writes,
// and two coordinators on two cores spent more time passing that cache
// line back and forth than on the rest of the transaction. A lane is
// chosen by the issuing endpoint (Endpoint.lane) and lanes lie two cache
// lines apart — the allocator aligns the struct to 8 bytes, not 64 — so
// endpoints on different lanes share nothing on the read side. Nor may
// a lane start the struct: indexing lanes through a *laneRW nil-checks
// it by loading its first byte, which would make every lane's reader a
// reader of lane 0's line. Lanes are taken in index order: a reader
// never holds two of one laneRW, so writers cannot deadlock with it.
type laneRW struct {
	_     [128]byte
	lanes [rwLanes]struct {
		sync.RWMutex
		_ [128 - unsafe.Sizeof(sync.RWMutex{})]byte
	}
}

func (l *laneRW) RLock(lane uint32)   { l.lanes[lane].RLock() }
func (l *laneRW) RUnlock(lane uint32) { l.lanes[lane].RUnlock() }

func (l *laneRW) Lock() {
	for i := range l.lanes {
		l.lanes[i].Lock()
	}
}

func (l *laneRW) Unlock() {
	for i := len(l.lanes) - 1; i >= 0; i-- {
		l.lanes[i].Unlock()
	}
}

// laneOf maps a key (a node id, a coordinator id) to a lane by adding
// its two low octal digits without carry: the eight keys of an aligned
// block (one node's coordinators) get eight lanes, and so do any eight
// keys eight apart (coordinator i of successive nodes or incarnations).
func laneOf(key uint32) uint32 {
	return (key ^ key>>3) % rwLanes
}
