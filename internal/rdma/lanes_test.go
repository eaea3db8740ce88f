package rdma

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

// TestLaneLayout pins the two facts the lanes exist for. Objects are
// aligned to 8 bytes, so (a) two lanes' lock words share no cache line
// only if lanes lie at least a line plus a lock apart, and (b) lane 0
// must not hold the struct's first byte, which every `l.lanes[i]`
// through a pointer loads as its nil check. Breaking either is invisible
// to every functional test and costs two-session runs half their
// throughput.
func TestLaneLayout(t *testing.T) {
	var l laneRW
	if off := unsafe.Offsetof(l.lanes); off < 64 {
		t.Errorf("lanes start at offset %d: lane 0 shares the line the nil check reads", off)
	}
	if stride, lock := unsafe.Sizeof(l.lanes[0]), unsafe.Sizeof(sync.RWMutex{}); stride < 64+lock {
		t.Errorf("lane stride %d: two lanes' locks (%d B) can meet in one 64 B line", stride, lock)
	}
	if size := unsafe.Sizeof(VClock{}); size < 64 {
		t.Errorf("VClock is %d B: two clocks fit one cache line", size)
	}
}

// TestLaneOfSpreads: one node's coordinators (an aligned block of ids)
// and coordinator i of successive nodes or incarnations (ids 8 apart,
// from anywhere) get distinct lanes.
func TestLaneOfSpreads(t *testing.T) {
	for _, c := range []struct{ base, stride uint32 }{{40, 1}, {0, 8}, {43, 8}} {
		base, stride := c.base, c.stride
		seen := map[uint32]uint32{}
		for i := uint32(0); i < rwLanes; i++ {
			key := base + i*stride
			if prev, dup := seen[laneOf(key)]; dup {
				t.Errorf("base %d stride %d: keys %d and %d share lane %d", base, stride, prev, key, laneOf(key))
			}
			seen[laneOf(key)] = key
		}
	}
}

// TestLaneRWWriterExcludesEveryLane: a writer holds the lock against
// readers of all lanes, and readers of different lanes run together.
func TestLaneRWWriterExcludesEveryLane(t *testing.T) {
	var (
		l       laneRW
		readers atomic.Int32
		writing atomic.Bool
		stop    atomic.Bool
		wg      sync.WaitGroup
	)
	for lane := uint32(0); lane < rwLanes; lane++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				l.RLock(lane)
				readers.Add(1)
				if writing.Load() {
					t.Errorf("lane %d read-locked while a writer holds the lock", lane)
				}
				readers.Add(-1)
				l.RUnlock(lane)
				runtime.Gosched()
			}
		}()
	}
	for i := 0; i < 200; i++ {
		l.Lock()
		writing.Store(true)
		if n := readers.Load(); n != 0 {
			t.Errorf("writer holds the lock with %d readers inside", n)
		}
		writing.Store(false)
		l.Unlock()
	}
	stop.Store(true)
	wg.Wait()
}
