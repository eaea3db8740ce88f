package core

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"pandora/internal/kvlayout"
	"pandora/internal/metrics"
	"pandora/internal/race"
)

// TestTxAllocs gates the engine's own allocations on a warm 1R+2W
// transaction through a reused header: the one caller-owned Read copy,
// and nothing at all inside Commit.
func TestTxAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("-race instrumentation allocates; the transaction alloc gate is enforced by the no-race lane")
	}
	e := newEnv(t, envConfig{})
	e.preload(t, 0, 64, func(k kvlayout.Key) []byte { return val16(k, 0) })
	co := e.nodes[0].Coordinator(0)
	val := val16(1, 1)
	var hdr Tx
	var k kvlayout.Key
	stage := func() *Tx {
		k = (k + 3) % 60
		tx := co.BeginIn(&hdr)
		if _, err := tx.Read(0, k); err != nil {
			t.Fatal(err)
		}
		if err := tx.Write(0, k+1, val); err != nil {
			t.Fatal(err)
		}
		if err := tx.Write(0, k+2, val); err != nil {
			t.Fatal(err)
		}
		return tx
	}
	whole := func() {
		if err := stage().Commit(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		whole()
	}
	if n := testing.AllocsPerRun(200, whole); n > 1 {
		t.Errorf("1R+2W transaction: %.0f allocs, want 1 (the Read copy)", n)
	}
	// The gate below diffs process-wide malloc counts around Commit, so it
	// sees what the verb-batch pools do behind GetBatch, and they are per
	// P: a commit that finds itself on the other P builds a batch there (5
	// mallocs) or overflows that P's private slot (1), and a collection
	// cycle inside the loop ages the batches out (2; two cycles, 9). Do as
	// AllocsPerRun does — one P — and hold collection off, then refill the
	// pools before counting.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	for i := 0; i < 4; i++ {
		whole()
	}
	var before, after runtime.MemStats
	var inCommit uint64
	for i := 0; i < 100; i++ {
		tx := stage()
		runtime.ReadMemStats(&before)
		err := tx.Commit()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		inCommit += after.Mallocs - before.Mallocs
	}
	if inCommit > 0 {
		t.Errorf("Commit of a staged 1R+2W transaction: %d allocs in 100 commits, want 0", inCommit)
	}
}

// TestAbortReasonText pins the reason strings now that abort sites pass
// typed fields and the text is built on demand.
func TestAbortReasonText(t *testing.T) {
	ref := objRef{table: 2, key: 77}
	cause := errors.New("link down")
	for _, tc := range []struct {
		info abortInfo
		want string
	}{
		{abortInfo{format: "user abort"}, "user abort"},
		{lockedBy("lock of %d/%d held by coordinator %d", ref, kvlayout.LockWord(9, 4)), "lock of 2/77 held by coordinator 9"},
		{onObject("validation: version of %d/%d moved %d -> %d", ref, 5, 6), "validation: version of 2/77 moved 5 -> 6"},
		{onObject("insert validation: key %d/%d claimed elsewhere", ref, 0, 0), "insert validation: key 2/77 claimed elsewhere"},
		{abortInfo{format: "verb failed: ", detail: cause}, "verb failed: link down"},
	} {
		err := error(&abortError{kind: metrics.AbortFault, abortInfo: tc.info})
		if got := AbortReason(err); got != tc.want {
			t.Errorf("AbortReason = %q, want %q", got, tc.want)
		}
		if got := err.Error(); got != "core: transaction aborted: "+tc.want {
			t.Errorf("Error() = %q", got)
		}
	}

	// End to end: a lock conflict names the object and the holder.
	e := newEnv(t, envConfig{})
	e.preload(t, 0, 8, func(k kvlayout.Key) []byte { return val16(k, 0) })
	holder, other := e.nodes[0].Coordinator(0), e.nodes[1].Coordinator(0)
	htx := holder.Begin()
	if err := htx.Write(0, 5, []byte("h")); err != nil {
		t.Fatal(err)
	}
	otx := other.Begin()
	if err := otx.Write(0, 5, []byte("o")); err != nil {
		t.Fatal(err)
	}
	err := otx.Commit()
	if want := fmt.Sprintf("lock of 0/5 held by coordinator %d", holder.ID()); AbortReason(err) != want {
		t.Errorf("conflict reason %q, want %q", AbortReason(err), want)
	}
	if err := htx.Abort(); err != nil {
		t.Fatal(err)
	}
}

// TestScratchGrowthKeepsEarlierMemory: memory handed out before a slab
// or the arena grows mid-transaction stays intact, reset recycles it,
// and an unusually large transaction's memory is not kept.
func TestScratchGrowthKeepsEarlierMemory(t *testing.T) {
	var sc txScratch
	sc.reset()
	var ents []*readEnt
	var bufs [][]byte
	for i := 0; i < 3*scratchEnts; i++ {
		ent := sc.rd.next()
		ent.version = uint64(i)
		ents = append(ents, ent)
		bufs = append(bufs, sc.padded([]byte{byte(i)}, scratchBytes/4))
	}
	for i := range ents {
		if ents[i].version != uint64(i) {
			t.Fatalf("entry %d overwritten by slab growth: version %d", i, ents[i].version)
		}
		if bufs[i][0] != byte(i) || !bytes.Equal(bufs[i][1:], make([]byte, scratchBytes/4-1)) {
			t.Fatalf("buffer %d overwritten by arena growth or not zero-padded", i)
		}
	}
	slab, arena := len(sc.rd.buf), len(sc.arena)
	sc.reset()
	if e := sc.rd.next(); e.version != 0 || len(sc.rd.buf) != slab || len(sc.arena) != arena {
		t.Fatalf("reset did not recycle a zeroed entry on the grown slab (%d/%d entries, %d/%d bytes)",
			len(sc.rd.buf), slab, len(sc.arena), arena)
	}
	sc.wr.next()
	sc.bytes(scratchKeepBytes + 1)
	sc.reset()
	if sc.wr.buf != nil || sc.arena != nil {
		t.Fatalf("an oversized transaction's scratch was kept: %d entries, %d bytes", len(sc.wr.buf), len(sc.arena))
	}
}
