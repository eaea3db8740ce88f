package rdma

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

// TestLockTableLayout pins what the lock table is laid out for: no
// entry's mutex straddles a cache line or shares one with another
// entry's, and entry 0 does not share the line of buf, which every verb
// reads. Heap objects are 8-aligned, so an 8-byte mutex at an 8-aligned
// offset lies within one line. Breaking any of this is invisible to
// every functional test.
func TestLockTableLayout(t *testing.T) {
	var r Region
	if align, lock := unsafe.Alignof(r.locks[0]), unsafe.Sizeof(sync.Mutex{}); align < 8 || lock > 8 || unsafe.Offsetof(r.locks)%8 != 0 {
		t.Errorf("a %d B mutex in %d-aligned entries at offset %d: it can straddle a 64 B line", lock, align, unsafe.Offsetof(r.locks))
	}
	if stride := unsafe.Sizeof(r.locks[0]); stride < 64 {
		t.Errorf("entry stride %d: two entries can meet in one 64 B line", stride)
	}
	if gap := unsafe.Offsetof(r.locks) - (unsafe.Offsetof(r.buf) + unsafe.Sizeof(r.buf)); gap < 64 {
		t.Errorf("entry 0 starts %d B after buf: it can share buf's line", gap)
	}
}

// TestRegionLockTable: a verb is atomic against every concurrent verb
// that touches any of its bytes, whatever entries the two share. In each
// row one reader READs span while narrow writers on every lane fill the
// disjoint ranges of writes, each with one byte value; a torn write
// shows as two values inside one range.
func TestRegionLockTable(t *testing.T) {
	const stripe, n = stripeBytes, lockSlots
	type rng struct{ off, n uint64 }
	for _, tc := range []struct {
		name   string
		span   rng
		writes []rng
	}{
		{
			name: "verb of N stripes or more",
			span: rng{0, (n + 2) * stripe},
			writes: []rng{
				{0, stripe}, {stripe, 2 * stripe}, {(n - 1) * stripe, 2 * stripe},
				{(n + 1) * stripe, stripe}, {(n / 2) * stripe, 3 * stripe},
			},
		},
		{
			name: "stripe range wraps the table index",
			span: rng{(n - 2) * stripe, 4 * stripe},
			writes: []rng{
				{(n - 2) * stripe, stripe}, {(n - 1) * stripe, 2 * stripe}, {(n + 1) * stripe, stripe},
			},
		},
		{
			name:   "stripes k and k+N share an entry",
			span:   rng{(n + 3) * stripe, stripe},
			writes: []rng{{3 * stripe, stripe}, {(n + 3) * stripe, stripe}},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := NewFabric(LatencyModel{})
			f.AddNode(0)
			f.AddNode(1)
			f.RegisterRegion(1, 0, 2*n*stripe)

			var (
				stop atomic.Bool
				wg   sync.WaitGroup
			)
			for lane := uint32(0); lane < rwLanes; lane++ {
				w := tc.writes[int(lane)%len(tc.writes)]
				ep := f.Endpoint(0).WithLane(lane)
				wg.Add(1)
				go func() {
					defer wg.Done()
					buf := make([]byte, w.n)
					for v := byte(lane + 1); !stop.Load(); v += rwLanes {
						for i := range buf {
							buf[i] = v
						}
						if err := ep.Write(Addr{Node: 1, Offset: w.off}, buf); err != nil {
							t.Error(err)
							return
						}
						runtime.Gosched()
					}
				}()
			}
			reader := f.Endpoint(0)
			got := make([]byte, tc.span.n)
			for i := 0; i < 300; i++ {
				if err := reader.Read(Addr{Node: 1, Offset: tc.span.off}, got); err != nil {
					t.Fatal(err)
				}
				for _, w := range tc.writes {
					lo, hi := max(w.off, tc.span.off), min(w.off+w.n, tc.span.off+tc.span.n)
					if lo >= hi {
						continue
					}
					part := got[lo-tc.span.off : hi-tc.span.off]
					for _, b := range part {
						if b != part[0] {
							t.Fatalf("read %d: torn write at [%d, %d): %d beside %d", i, w.off, w.off+w.n, b, part[0])
						}
					}
				}
			}
			stop.Store(true)
			wg.Wait()
		})
	}
}

// TestRegionHeapOverhead: a region's locking costs a constant, not a
// share of its size. Registering S bytes may raise the live heap by S
// plus a few KiB (the lock table and the fabric's republished handle
// map), never by a per-stripe array of S/8.
func TestRegionHeapOverhead(t *testing.T) {
	const size, slack = 4 << 20, 8 << 10
	f := NewFabric(LatencyModel{})
	f.AddNode(1)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r := f.RegisterRegion(1, 0, size)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(r)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > size+slack {
		t.Errorf("registering a %d B region grew the heap by %d B: %d B beyond the region", size, grew, grew-size)
	}
}
