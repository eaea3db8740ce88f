package core

import (
	"runtime"
	"testing"

	"pandora/internal/kvlayout"
	"pandora/internal/metrics"
	"pandora/internal/rdma"
)

// The coverage rule's edges (cover, lock.go; DESIGN.md §16): a read-set
// entry is skipped by validation only while a lock this transaction
// holds vouches for exactly the version it read, at exactly the slot it
// read it from.

// watchStages records the op count of every stage node cn's transactions
// post from now on, by kind, through the plan's rewrite seam.
func watchStages(cn *ComputeNode) map[stageKind][]int {
	posted := map[stageKind][]int{}
	cn.plan.rewrite = func(_ *Tx, st stage) stage {
		n := 0
		if st.b != nil {
			n = st.b.Len()
		}
		posted[st.kind] = append(posted[st.kind], n)
		return st
	}
	return posted
}

func mustAbortAs(t *testing.T, err error, want metrics.AbortReason) {
	t.Helper()
	if kind, ok := AbortKindOf(err); !ok || kind != want {
		t.Fatalf("got %v, want an abort of kind %s", err, want)
	}
}

// TestCoveredReadsSkipValidation: the plain case and its neighbour. Keys
// read and then written under the same version are covered and cost
// validation nothing; a read-only key beside them is still re-read, for
// its version and for a foreign lock.
func TestCoveredReadsSkipValidation(t *testing.T) {
	e := newEnv(t, envConfig{})
	e.preload(t, 0, 8, func(k kvlayout.Key) []byte { return val16(k, 0) })
	cn, other := e.nodes[0], e.nodes[1].Coordinator(0)
	co := cn.Coordinator(0)
	posted := watchStages(cn)

	// begin reads keys 1, 2 and 3 and writes 2 and 3.
	begin := func() *Tx {
		tx := co.Begin()
		for _, k := range []kvlayout.Key{1, 2, 3} {
			if _, err := tx.Read(0, k); err != nil {
				t.Fatal(err)
			}
		}
		for _, k := range []kvlayout.Key{2, 3} {
			if err := tx.Write(0, k, []byte("rmw")); err != nil {
				t.Fatal(err)
			}
		}
		for i, want := range []bool{false, true, true} {
			if got := tx.reads[i].covered; got != want {
				t.Fatalf("key %d covered = %t, want %t", tx.reads[i].ref.key, got, want)
			}
		}
		return tx
	}

	if err := begin().Commit(); err != nil {
		t.Fatal(err)
	}
	if got := posted[stageValidate]; len(got) != 1 || got[0] != 1 {
		t.Fatalf("validation posted %v READs, want one doorbell of one READ (key 1)", got)
	}

	// All covered: no validation doorbell at all.
	delete(posted, stageValidate)
	mustCommit(t, co, func(tx *Tx) error {
		if _, err := tx.Read(0, 2); err != nil {
			return err
		}
		return tx.Write(0, 2, []byte("alone"))
	})
	if got := posted[stageValidate]; len(got) != 0 {
		t.Fatalf("validation posted %v for a fully covered read set, want no doorbell", got)
	}

	// The read-only key's version moves under the transaction.
	tx := begin()
	mustCommit(t, other, func(tx *Tx) error { return tx.Write(0, 1, []byte("moved")) })
	mustAbortAs(t, tx.Commit(), metrics.AbortCacheStale) // key 1 was a cache hit by now

	// The read-only key is locked by a running coordinator.
	tx = begin()
	holder := other.Begin()
	if err := holder.Write(0, 1, []byte("held")); err != nil {
		t.Fatal(err)
	}
	mustAbortAs(t, tx.Commit(), metrics.AbortLockConflict)
	if err := holder.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestStaleReadsOfWrittenKeysAbortOnce: a version mismatch at the lock is
// not an abort there. Two cached reads gone stale, both keys then
// written: the entries stay uncovered, validation finds both in one
// cache-stale abort and drops both cache entries, so the one retry reads
// fresh images and commits.
func TestStaleReadsOfWrittenKeysAbortOnce(t *testing.T) {
	e := newEnv(t, envConfig{})
	e.preload(t, 0, 8, func(k kvlayout.Key) []byte { return val16(k, 0) })
	co, other := e.nodes[0].Coordinator(0), e.nodes[1].Coordinator(0)
	keys := []kvlayout.Key{2, 3}
	for _, k := range keys {
		if _, err := readKey(t, co, 0, k); err != nil { // fills co's read cache
			t.Fatal(err)
		}
		k := k
		mustCommit(t, other, func(tx *Tx) error { return tx.Write(0, k, []byte("newer")) })
	}

	aborts := 0
	for {
		tx := co.Begin()
		for _, k := range keys {
			if _, err := tx.Read(0, k); err != nil {
				t.Fatal(err)
			}
		}
		for _, k := range keys {
			if err := tx.Write(0, k, []byte("mine")); err != nil {
				t.Fatalf("write of key %d after %d aborts: %v (a stale read must not abort at the lock)", k, aborts, err)
			}
		}
		stale := aborts == 0
		for _, r := range tx.reads {
			if r.fromCache != stale || r.covered == stale {
				t.Fatalf("attempt %d, key %d: fromCache %t covered %t", aborts, r.ref.key, r.fromCache, r.covered)
			}
		}
		err := tx.Commit()
		if err == nil {
			break
		}
		mustAbortAs(t, err, metrics.AbortCacheStale)
		if aborts++; aborts > 1 {
			t.Fatal("a second abort: the first did not invalidate every stale key")
		}
	}
	if aborts != 1 {
		t.Fatalf("%d aborts, want exactly one", aborts)
	}
}

// TestMovedSlotStaysUncovered: the key is deleted, its slot reused, and
// the key re-inserted further down the chain — at a version that happens
// to equal the one read. The write locks the new slot; the read entry
// still names the old one, so it must stay uncovered and fail
// validation there.
func TestMovedSlotStaysUncovered(t *testing.T) {
	e := newEnv(t, envConfig{})
	e.preload(t, 0, 8, func(k kvlayout.Key) []byte { return val16(k, 0) })
	co, other := e.nodes[0].Coordinator(0), e.nodes[1].Coordinator(0)
	const key = kvlayout.Key(5)
	squatter := kvlayout.Key(0)
	for k := kvlayout.Key(1000); squatter == 0; k++ {
		if e.ring.Partition(k) == e.ring.Partition(key) && e.schema[0].HomeSlot(k) == e.schema[0].HomeSlot(key) {
			squatter = k
		}
	}

	tx := co.Begin()
	if _, err := tx.Read(0, key); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, other, func(tx *Tx) error { return tx.Delete(0, key) })
	mustCommit(t, other, func(tx *Tx) error { return tx.Insert(0, squatter, []byte("squat")) })
	mustCommit(t, other, func(tx *Tx) error { return tx.Insert(0, key, []byte("back")) })
	if err := tx.Write(0, key, []byte("mine")); err != nil {
		t.Fatal(err)
	}
	r, w := tx.reads[0], tx.writes[0]
	if r.ref.slot == w.ref.slot || r.version != w.oldVersion {
		t.Fatalf("read at slot %d version %d, locked slot %d version %d: want another slot, same version",
			r.ref.slot, r.version, w.ref.slot, w.oldVersion)
	}
	if r.covered {
		t.Fatal("the lock on the key's new slot covered the read of its old one")
	}
	mustAbortAs(t, tx.Commit(), metrics.AbortValidationVersion)
}

// plantStray locks key of table 0 on its primary in the name of
// coordinator 999 and announces 999 failed on cn; it returns the slot's
// address there.
func plantStray(t *testing.T, cn *ComputeNode, key kvlayout.Key) rdma.Addr {
	t.Helper()
	ep := cn.Coordinator(0).ep
	ref, found, err := cn.resolve(ep, 0, key)
	if err != nil || !found {
		t.Fatalf("resolve: %v %v", found, err)
	}
	reps, _ := cn.replicasFor(ref.partition)
	slot := cn.tableAddr(reps[0], ref, 0)
	lock := slot
	lock.Offset += kvlayout.SlotLockOff
	if _, swapped, err := ep.CAS(lock, 0, kvlayout.LockWord(999, 1)); err != nil || !swapped {
		t.Fatalf("planting the stray lock: %v %v", swapped, err)
	}
	cn.NotifyStrayLocks([]kvlayout.CoordID{999})
	return slot
}

// TestStolenLockCovers: a stolen lock covers like a CAS-taken one, by the
// image read under it — and only by that image: when the version moved
// between the read and the steal, the entry is left to validation.
func TestStolenLockCovers(t *testing.T) {
	for _, moved := range []bool{false, true} {
		e := newEnv(t, envConfig{})
		e.preload(t, 0, 8, func(k kvlayout.Key) []byte { return val16(k, 0) })
		cn := e.nodes[0]
		co := cn.Coordinator(0)
		slot := plantStray(t, cn, 3)
		posted := watchStages(cn)

		tx := co.Begin()
		if _, err := tx.Read(0, 3); err != nil { // a stray lock reads as no lock
			t.Fatal(err)
		}
		if moved {
			// What the dead owner's recovery would have done had it rolled a
			// logged write forward: the version moves under the stray word.
			var v [8]byte
			kvlayout.PutUint64(v[:], tx.reads[0].version+1)
			version := slot
			version.Offset += kvlayout.SlotVersionOff
			if err := co.ep.Write(version, v[:]); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Write(0, 3, []byte("stolen")); err != nil {
			t.Fatal(err)
		}
		if got := posted[stageSteal]; len(got) != 1 {
			t.Fatalf("moved=%t: %d steal doorbells, want 1", moved, len(got))
		}
		if !tx.writes[0].locked || tx.reads[0].covered == moved {
			t.Fatalf("moved=%t: locked %t, covered %t", moved, tx.writes[0].locked, tx.reads[0].covered)
		}
		err := tx.Commit()
		if moved {
			mustAbortAs(t, err, metrics.AbortValidationVersion)
		} else if err != nil || len(posted[stageValidate]) != 0 {
			t.Fatalf("commit under the stolen lock: %v, validation doorbells %v", err, posted[stageValidate])
		}
		if n := e.lockedSlots(t, 0); n != 0 {
			t.Fatalf("moved=%t: %d slots left locked", moved, n)
		}
	}
}

// TestRelaxedLocksCoverNothing: the seeded Relaxed Locks bug reads the
// slot without the lock and lands its CAS after validation, so nothing
// it does may spare validation a re-read — the bug must keep failing the
// way Table 1 says it does.
func TestRelaxedLocksCoverNothing(t *testing.T) {
	e := newEnv(t, envConfig{opts: Options{Bugs: Bugs{RelaxedLocks: true}}})
	e.preload(t, 0, 8, func(k kvlayout.Key) []byte { return val16(k, 0) })
	cn := e.nodes[0]
	plantStray(t, cn, 3) // lockLate's steal covers nothing either
	posted := watchStages(cn)
	tx := cn.Coordinator(0).Begin()
	for _, k := range []kvlayout.Key{2, 3} {
		if _, err := tx.Read(0, k); err != nil {
			t.Fatal(err)
		}
		if err := tx.Write(0, k, []byte("late")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for _, r := range tx.reads {
		if r.covered {
			t.Fatalf("key %d covered under RelaxedLocks", r.ref.key)
		}
	}
	if got := posted[stageValidate]; len(got) != 1 || got[0] != 2 {
		t.Fatalf("validation posted %v READs, want one doorbell of two", got)
	}
	if len(posted[stageSteal]) != 1 {
		t.Fatalf("%d steal doorbells, want lockLate's one", len(posted[stageSteal]))
	}
}

// TestStealReadFaultKeepsTheLock: the steal doorbell's CAS lands and the
// slot READ behind it link-faults. The entry must already say it holds
// the lock, so that the abort's tail releases it. Fails if steal looks at
// the stage's verdict before recording casOp.Swapped.
func TestStealReadFaultKeepsTheLock(t *testing.T) {
	e := newEnv(t, envConfig{})
	e.preload(t, 0, 8, func(k kvlayout.Key) []byte { return val16(k, 0) })
	cn := e.nodes[0]
	mem := plantStray(t, cn, 3).Node
	var other rdma.NodeID
	for _, m := range e.mems {
		if m.ID() != mem {
			other = m.ID()
		}
	}
	// Heal at the report: after the faulted READ was classified, before the
	// abort's cleanup posts the release.
	cn.SetSuspectReporter(func(rdma.NodeID) { e.fab.HealLink(cn.ID(), mem) })
	// The steal CAS parks on a stalled link; the stall is replaced by a
	// partition while it is parked and a heal of another link wakes it:
	// admitted under the stall, it lands, and the READs behind it meet the
	// partition.
	cn.plan.rewrite = func(_ *Tx, st stage) stage {
		if st.kind == stageSteal {
			stalled := e.fab.LinkStats().StalledVerbs
			e.fab.StallLink(cn.ID(), mem)
			go func() {
				for e.fab.LinkStats().StalledVerbs == stalled {
					runtime.Gosched()
				}
				e.fab.PartitionLink(cn.ID(), mem)
				e.fab.HealLink(cn.ID(), other) // no rule there: only wakes the parked CAS
			}()
		}
		return st
	}

	tx := cn.Coordinator(0).Begin()
	err := tx.Write(0, 3, []byte("stolen"))
	mustAbortAs(t, err, metrics.AbortFault)
	if !tx.AckedAbort {
		t.Fatalf("abort not acknowledged: %v", err)
	}
	if len(tx.writes) != 1 || !tx.writes[0].locked {
		t.Fatal("the entry does not record the lock its steal CAS took")
	}
	if drops := e.fab.LinkStats().PartitionDrops; drops == 0 {
		t.Fatal("no op of the steal doorbell met the partition")
	}
	if n := e.lockedSlots(t, 0); n != 0 {
		t.Fatalf("%d slots left locked: the abort tail did not release the stolen lock", n)
	}
	cn.plan.rewrite = nil
	mustCommit(t, cn.Coordinator(0), func(tx *Tx) error { return tx.Write(0, 3, []byte("again")) })
}
