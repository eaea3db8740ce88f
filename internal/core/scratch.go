package core

import (
	"pandora/internal/kvlayout"
	"pandora/internal/rdma"
)

// Transaction scratch (DESIGN.md §18). A coordinator runs one
// transaction at a time, so everything a transaction stages — set
// entries, slot images, read values, padded new values, undo pre-images,
// the log-record entry list — lives in memory the coordinator owns and
// the next Begin recycles. Nothing that outlives the transaction may
// point into it: the read cache and the caller get copies, and verb
// batches carry their own arena.
type txScratch struct {
	rd slab[readEnt]
	wr slab[writeEnt]
	// reads and writes are the backing arrays of Tx.reads / Tx.writes,
	// handed back (grown) at release.
	reads  []*readEnt
	writes []*writeEnt
	arena  []byte
	used   int
	log    []kvlayout.LogWrite
	// recheck is validation's list of the read-set entries it re-reads.
	recheck []*readEnt
	// refs and at are readChunk's misses: the slots it READs, and the
	// index of each one's key in the chunk. Held here, not on readChunk's
	// stack, so that a one-key Read does not zero them on every call.
	refs [rangeChunk]objRef
	at   [rangeChunk]int
	// fetch is fetchSlots' doorbell, waited for before it returns.
	fetch rdma.OpBatch
}

const (
	scratchEnts  = 8       // first slab
	scratchBytes = 1 << 10 // first arena
	// A transaction that grew the arena past this was unusually large (every
	// entry draws on it): its memory is dropped, not pinned to the coordinator.
	scratchKeepBytes = 64 << 10
)

// slab hands out zeroed entries with stable addresses.
type slab[T any] struct {
	buf []T
	n   int
}

func (s *slab[T]) next() *T {
	if s.n == len(s.buf) {
		// Outgrown mid-transaction: entries already handed out keep the old
		// slab alive, and the next transaction starts on the larger one.
		s.buf = make([]T, max(scratchEnts, 2*len(s.buf)))
		s.n = 0
	}
	e := &s.buf[s.n]
	s.n++
	*e = *new(T)
	return e
}

// reset recycles the scratch for a new transaction. Begin calls it
// rather than release: a crashed or abandoned transaction never gets to
// hand anything back.
func (sc *txScratch) reset() {
	if len(sc.arena) > scratchKeepBytes {
		*sc = txScratch{}
	}
	sc.rd.n, sc.wr.n, sc.used = 0, 0, 0
}

// bytes returns n bytes of unspecified content, valid until the next
// Begin on this coordinator.
func (sc *txScratch) bytes(n int) []byte {
	if sc.used+n > len(sc.arena) {
		sc.arena = make([]byte, max(scratchBytes, n, 2*len(sc.arena)))
		sc.used = 0
	}
	s := sc.arena[sc.used : sc.used+n : sc.used+n]
	sc.used += n
	return s
}

// padded returns a copy of v right-padded with zeros to n bytes.
func (sc *txScratch) padded(v []byte, n int) []byte {
	out := sc.bytes(n)
	clear(out[copy(out, v):])
	return out
}
