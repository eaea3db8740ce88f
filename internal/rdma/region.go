package rdma

import (
	"encoding/binary"
	"sync"
)

// stripeBytes is the granularity of the region's internal lock striping.
// Real RDMA NICs guarantee atomicity only for 8-byte CAS/FAA; we
// additionally make every individual verb atomic, which is strictly
// stronger and therefore safe for protocols written against the weaker
// model.
const stripeBytes = 64

// wholeOpSpan is the stripe count above which a verb takes the
// region-wide lock instead of individual stripes. Small verbs (lock
// words, slot headers, validation reads) keep fine-grained striping so
// hot CAS words on different slots never contend; bulk payloads (log
// writes, replica WRITEs, KiB-sized reads) would otherwise pay hundreds
// of stripe acquisitions per verb — the dominant cost of the old
// serial engine on large transfers.
const wholeOpSpan = 4

// Region is a registered memory region hosted by a node. All verb-level
// access goes through a two-level lock: verbs spanning at most
// wholeOpSpan stripes hold the whole-region lock shared (on the issuing
// endpoint's lane) plus their stripes exclusively; larger verbs hold the
// whole-region lock exclusively and touch no stripes. Either way each
// verb is applied atomically and race-free against concurrent verbs
// from any endpoint.
type Region struct {
	whole   laneRW
	buf     []byte
	stripes []sync.Mutex
	// durable is the NVM image when persistence is modelled (see
	// persist.go); nil otherwise.
	durable     []byte
	durableOnce sync.Once
}

// NewRegion allocates a zeroed region of the given size.
func NewRegion(size int) *Region {
	return &Region{
		buf:     make([]byte, size),
		stripes: make([]sync.Mutex, (size+stripeBytes-1)/stripeBytes+1),
	}
}

// Size returns the region size in bytes.
func (r *Region) Size() int { return len(r.buf) }

// lock acquires the stripes covering [off, off+n) — or the whole-region
// lock for wide ranges — and returns the state unlock needs. Bounds must
// already be checked.
func (r *Region) lock(lane uint32, off uint64, n int) (first, last int, whole bool) {
	first = int(off) / stripeBytes
	last = (int(off) + n - 1) / stripeBytes
	if last-first >= wholeOpSpan {
		r.whole.Lock()
		return 0, 0, true
	}
	r.whole.RLock(lane)
	for i := first; i <= last; i++ {
		r.stripes[i].Lock()
	}
	return first, last, false
}

func (r *Region) unlock(lane uint32, first, last int, whole bool) {
	if whole {
		r.whole.Unlock()
		return
	}
	for i := last; i >= first; i-- {
		r.stripes[i].Unlock()
	}
	r.whole.RUnlock(lane)
}

func (r *Region) checkBounds(off uint64, n int) error {
	if n < 0 || off > uint64(len(r.buf)) || uint64(n) > uint64(len(r.buf))-off {
		return ErrOutOfBounds
	}
	return nil
}

// read copies n bytes at off into dst.
func (r *Region) read(lane uint32, off uint64, dst []byte) error {
	if err := r.checkBounds(off, len(dst)); err != nil {
		return err
	}
	if len(dst) == 0 {
		return nil
	}
	first, last, whole := r.lock(lane, off, len(dst))
	copy(dst, r.buf[off:])
	r.unlock(lane, first, last, whole)
	return nil
}

// write copies src into the region at off.
func (r *Region) write(lane uint32, off uint64, src []byte) error {
	if err := r.checkBounds(off, len(src)); err != nil {
		return err
	}
	if len(src) == 0 {
		return nil
	}
	first, last, whole := r.lock(lane, off, len(src))
	copy(r.buf[off:], src)
	r.unlock(lane, first, last, whole)
	return nil
}

// cas atomically compares the 8-byte little-endian word at off with
// expect and, if equal, replaces it with swap. It returns the previous
// value in either case.
func (r *Region) cas(lane uint32, off uint64, expect, swap uint64) (uint64, error) {
	if off%8 != 0 {
		return 0, ErrUnaligned
	}
	if err := r.checkBounds(off, 8); err != nil {
		return 0, err
	}
	first, last, whole := r.lock(lane, off, 8)
	old := binary.LittleEndian.Uint64(r.buf[off:])
	if old == expect {
		binary.LittleEndian.PutUint64(r.buf[off:], swap)
	}
	r.unlock(lane, first, last, whole)
	return old, nil
}

// faa atomically adds delta to the 8-byte little-endian word at off and
// returns the previous value.
func (r *Region) faa(lane uint32, off uint64, delta uint64) (uint64, error) {
	if off%8 != 0 {
		return 0, ErrUnaligned
	}
	if err := r.checkBounds(off, 8); err != nil {
		return 0, err
	}
	first, last, whole := r.lock(lane, off, 8)
	old := binary.LittleEndian.Uint64(r.buf[off:])
	binary.LittleEndian.PutUint64(r.buf[off:], old+delta)
	r.unlock(lane, first, last, whole)
	return old, nil
}

// Local returns the raw backing buffer for host-local (non-verb) access.
// It is intended for the owning memory node only, e.g. to preload data
// at setup time or to serve a host-side scan; callers must not use it
// concurrently with verb traffic unless they provide their own
// synchronisation.
func (r *Region) Local() []byte { return r.buf }

// ReadUint64 reads the 8-byte word at off under the stripe lock. Helper
// for host-local scans that must not race with verb traffic.
func (r *Region) ReadUint64(off uint64) (uint64, error) {
	if off%8 != 0 {
		return 0, ErrUnaligned
	}
	if err := r.checkBounds(off, 8); err != nil {
		return 0, err
	}
	first, last, whole := r.lock(0, off, 8)
	v := binary.LittleEndian.Uint64(r.buf[off:])
	r.unlock(0, first, last, whole)
	return v, nil
}
