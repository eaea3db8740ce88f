package rdma

import (
	"encoding/binary"
	"sync"
	"unsafe"
)

// stripeBytes is the granularity of the region's locking. Real RDMA
// NICs guarantee atomicity only for 8-byte CAS/FAA; we additionally
// make every individual verb atomic, which is strictly stronger and
// therefore safe for protocols written against the weaker model.
const stripeBytes = 64

// lockSlots is the size of a region's lock table, a power of two.
// Stripe i is guarded by entry i mod lockSlots, so the table costs the
// same 4 KiB whatever the region's size, and the entries of a hot
// region's busy words stay in the cache.
const lockSlots = 64

// lockEntry is one lock-table entry, alone on its cache line. A
// sync.Mutex is 8 bytes but only 4-aligned; the zero-length uint64
// array aligns the entry to 8, as the allocator aligns the region, so a
// mutex never straddles a line, and at a 64-byte stride no two entries'
// mutexes meet in one.
type lockEntry struct {
	_ [0]uint64
	sync.Mutex
	_ [64 - unsafe.Sizeof(sync.Mutex{})]byte
}

// Region is a registered memory region hosted by a node. A verb takes
// the lock-table entries of the stripes it touches in ascending entry
// order, so every verb is applied atomically and race-free against every
// concurrent verb, from any endpoint, that touches any of its bytes.
type Region struct {
	buf []byte
	// durable is the NVM image when persistence is modelled (see
	// persist.go); nil otherwise.
	durable     []byte
	durableOnce sync.Once
	// The pad keeps entry 0 off the line that holds buf, which every
	// verb reads.
	_     [64]byte
	locks [lockSlots]lockEntry
}

// NewRegion allocates a zeroed region of the given size.
func NewRegion(size int) *Region {
	return &Region{buf: make([]byte, size)}
}

// Size returns the region size in bytes.
func (r *Region) Size() int { return len(r.buf) }

// lock takes the lock-table entries of the stripes covering [off, off+n)
// and returns the entry span unlock releases: [lo, hi], or, when hi < lo
// (the stripes wrap the table), [0, hi] and [lo, lockSlots-1], taken in
// that order. A range of lockSlots stripes or more takes every entry.
// Bounds must already be checked.
func (r *Region) lock(off uint64, n int) (lo, hi uint64) {
	first, last := off/stripeBytes, (off+uint64(n)-1)/stripeBytes
	if last-first >= lockSlots-1 {
		lo, hi = 0, lockSlots-1
	} else {
		lo, hi = first%lockSlots, last%lockSlots
	}
	if hi < lo {
		r.lockEntries(0, hi)
		r.lockEntries(lo, lockSlots-1)
	} else {
		r.lockEntries(lo, hi)
	}
	return lo, hi
}

func (r *Region) unlock(lo, hi uint64) {
	if hi < lo {
		r.unlockEntries(lo, lockSlots-1)
		r.unlockEntries(0, hi)
	} else {
		r.unlockEntries(lo, hi)
	}
}

func (r *Region) lockEntries(lo, hi uint64) {
	for i := lo; i <= hi; i++ {
		r.locks[i].Lock()
	}
}

func (r *Region) unlockEntries(lo, hi uint64) {
	for i := lo; i <= hi; i++ {
		r.locks[i].Unlock()
	}
}

func (r *Region) checkBounds(off uint64, n int) error {
	if n < 0 || off > uint64(len(r.buf)) || uint64(n) > uint64(len(r.buf))-off {
		return ErrOutOfBounds
	}
	return nil
}

// read copies n bytes at off into dst.
func (r *Region) read(off uint64, dst []byte) error {
	if err := r.checkBounds(off, len(dst)); err != nil {
		return err
	}
	if len(dst) == 0 {
		return nil
	}
	lo, hi := r.lock(off, len(dst))
	copy(dst, r.buf[off:])
	r.unlock(lo, hi)
	return nil
}

// write copies src into the region at off.
func (r *Region) write(off uint64, src []byte) error {
	if err := r.checkBounds(off, len(src)); err != nil {
		return err
	}
	if len(src) == 0 {
		return nil
	}
	lo, hi := r.lock(off, len(src))
	copy(r.buf[off:], src)
	r.unlock(lo, hi)
	return nil
}

// cas atomically compares the 8-byte little-endian word at off with
// expect and, if equal, replaces it with swap. It returns the previous
// value in either case.
func (r *Region) cas(off uint64, expect, swap uint64) (uint64, error) {
	if off%8 != 0 {
		return 0, ErrUnaligned
	}
	if err := r.checkBounds(off, 8); err != nil {
		return 0, err
	}
	lo, hi := r.lock(off, 8)
	old := binary.LittleEndian.Uint64(r.buf[off:])
	if old == expect {
		binary.LittleEndian.PutUint64(r.buf[off:], swap)
	}
	r.unlock(lo, hi)
	return old, nil
}

// faa atomically adds delta to the 8-byte little-endian word at off and
// returns the previous value.
func (r *Region) faa(off uint64, delta uint64) (uint64, error) {
	if off%8 != 0 {
		return 0, ErrUnaligned
	}
	if err := r.checkBounds(off, 8); err != nil {
		return 0, err
	}
	lo, hi := r.lock(off, 8)
	old := binary.LittleEndian.Uint64(r.buf[off:])
	binary.LittleEndian.PutUint64(r.buf[off:], old+delta)
	r.unlock(lo, hi)
	return old, nil
}

// Local returns the raw backing buffer for host-local (non-verb) access.
// It is intended for the owning memory node only, e.g. to preload data
// at setup time or to serve a host-side scan; callers must not use it
// concurrently with verb traffic unless they provide their own
// synchronisation.
func (r *Region) Local() []byte { return r.buf }

// ReadUint64 reads the 8-byte word at off under its stripe's lock.
// Helper for host-local scans that must not race with verb traffic.
func (r *Region) ReadUint64(off uint64) (uint64, error) {
	if off%8 != 0 {
		return 0, ErrUnaligned
	}
	if err := r.checkBounds(off, 8); err != nil {
		return 0, err
	}
	lo, hi := r.lock(off, 8)
	v := binary.LittleEndian.Uint64(r.buf[off:])
	r.unlock(lo, hi)
	return v, nil
}
