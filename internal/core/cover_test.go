package core

import (
	"runtime"
	"strings"
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

// mustSettle settles the lock doorbells tx's writes posted — the step
// Commit runs first — so that a test can look at what the lock step left
// before validation runs.
func mustSettle(t *testing.T, tx *Tx) {
	t.Helper()
	if err := tx.settleLocks(); err != nil {
		t.Fatal(err)
	}
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
		mustSettle(t, tx)
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
		mustSettle(t, tx)
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

// scanRange runs ReadRange over [lo, hi] of table 0 and returns what it
// emitted, by key, with the slot's zero padding trimmed.
func scanRange(t *testing.T, tx *Tx, lo, hi kvlayout.Key) map[kvlayout.Key]string {
	t.Helper()
	got := map[kvlayout.Key]string{}
	if err := tx.ReadRange(0, lo, hi, func(k kvlayout.Key, v []byte) bool {
		got[k] = strings.TrimRight(string(v), "\x00")
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

// readOf returns the read-set entry of key in table 0.
func readOf(t *testing.T, tx *Tx, key kvlayout.Key) *readEnt {
	t.Helper()
	r := tx.findRead(0, key)
	if r == nil {
		t.Fatalf("key %d is not in the read set", key)
	}
	return r
}

// TestRangeCacheHitGoesStale: a scan still serves a key a point read
// cached, and that hit is validated like one from Tx.Read. Another
// coordinator commits the key; the scan's commit aborts cache-stale and
// drops the entry, and the retry reads the committed value through.
func TestRangeCacheHitGoesStale(t *testing.T) {
	e := newEnv(t, envConfig{})
	e.preload(t, 0, 8, func(k kvlayout.Key) []byte { return val16(k, 0) })
	co, other := e.nodes[0].Coordinator(0), e.nodes[1].Coordinator(0)
	const key = kvlayout.Key(2)
	if _, err := readKey(t, co, 0, key); err != nil { // fills co's read cache
		t.Fatal(err)
	}
	mustCommit(t, other, func(tx *Tx) error { return tx.Write(0, key, val16(key, 1)) })

	before := co.ReadCacheStats()
	tx := co.Begin()
	if got := scanRange(t, tx, 1, 3)[key]; got != string(val16(key, 0)) {
		t.Fatalf("scan read %q, want the cached %q", got, val16(key, 0))
	}
	if !readOf(t, tx, key).fromCache {
		t.Fatal("the scan did not serve the cached key from the cache")
	}
	mustAbortAs(t, tx.Commit(), metrics.AbortCacheStale)
	if d := co.ReadCacheStats().Invalidations - before.Invalidations; d != 1 {
		t.Fatalf("validation dropped %d cache entries, want the one stale key", d)
	}

	tx = co.Begin()
	if got := scanRange(t, tx, 1, 3)[key]; got != string(val16(key, 1)) {
		t.Fatalf("retry read %q, want the committed %q", got, val16(key, 1))
	}
	if readOf(t, tx, key).fromCache {
		t.Fatal("the retry was served from the dropped entry")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestRangeReadsCoveredByLocks: keys a scan read — one a cache hit, one
// fetched from the fabric and not admitted to the cache — are covered by
// the locks of a later write like keys Tx.Read returned, so validation
// re-reads only the scanned key that was not written.
func TestRangeReadsCoveredByLocks(t *testing.T) {
	e := newEnv(t, envConfig{})
	e.preload(t, 0, 8, func(k kvlayout.Key) []byte { return val16(k, 0) })
	cn := e.nodes[0]
	co := cn.Coordinator(0)
	if _, err := readKey(t, co, 0, 2); err != nil { // fills co's read cache
		t.Fatal(err)
	}
	puts := co.ReadCacheStats().Puts
	posted := watchStages(cn)

	tx := co.Begin()
	scanRange(t, tx, 1, 3)
	if d := co.ReadCacheStats().Puts - puts; d != 0 {
		t.Fatalf("the scan admitted %d keys to the read cache, want none", d)
	}
	for _, k := range []kvlayout.Key{2, 3} {
		if err := tx.Write(0, k, []byte("rmw")); err != nil {
			t.Fatal(err)
		}
	}
	mustSettle(t, tx)
	for k, want := range map[kvlayout.Key]struct{ fromCache, covered bool }{
		1: {false, false}, 2: {true, true}, 3: {false, true},
	} {
		if r := readOf(t, tx, k); r.fromCache != want.fromCache || r.covered != want.covered {
			t.Fatalf("key %d: fromCache %t covered %t, want %+v", k, r.fromCache, r.covered, want)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := posted[stageValidate]; len(got) != 1 || got[0] != 1 {
		t.Fatalf("validation posted %v READs, want one doorbell of one READ (key 1)", got)
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
	mustSettle(t, tx)
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
		if steals, locks := len(posted[stageSteal]), len(posted[stageLock]); steals != 1 || locks != 0 {
			t.Fatalf("moved=%t: %d steal and %d lock doorbells, want the read's hinted steal alone", moved, steals, locks)
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

// stealHintEnv is the setting of the steal-hint tests: keys 0..7
// preloaded, key 3 stray-locked by plantStray on node 0, whose stages are
// watched from then on.
func stealHintEnv(t *testing.T, opts Options) (*env, *Coordinator, rdma.Addr, map[stageKind][]int) {
	t.Helper()
	e := newEnv(t, envConfig{opts: opts})
	e.preload(t, 0, 8, func(k kvlayout.Key) []byte { return val16(k, 0) })
	cn := e.nodes[0]
	slot := plantStray(t, cn, 3)
	return e, cn.Coordinator(0), slot, watchStages(cn)
}

// wantLockDoorbells fails unless the watched node posted exactly steals
// steal doorbells and locks lock doorbells.
func wantLockDoorbells(t *testing.T, posted map[stageKind][]int, steals, locks int) {
	t.Helper()
	if s, l := len(posted[stageSteal]), len(posted[stageLock]); s != steals || l != locks {
		t.Fatalf("%d steal and %d lock doorbells, want %d and %d", s, l, steals, locks)
	}
}

// TestStealHintFromRead: a fabric read — Tx.Read, or ReadRange's batched
// READ — that passes over a stray lock hands the word to the write, whose
// one lock-step doorbell is the steal.
func TestStealHintFromRead(t *testing.T) {
	for _, viaRange := range []bool{false, true} {
		e, co, _, posted := stealHintEnv(t, Options{})
		tx := co.Begin()
		var err error
		if viaRange {
			err = tx.ReadRange(0, 2, 4, func(kvlayout.Key, []byte) bool { return true })
		} else {
			_, err = tx.Read(0, 3)
		}
		if err != nil {
			t.Fatal(err)
		}
		r := tx.findRead(0, 3)
		if r == nil || r.stray != kvlayout.LockWord(999, 1) {
			t.Fatalf("range=%t: the read of key 3 does not carry the stray word: %+v", viaRange, r)
		}
		if err := tx.Write(0, 3, []byte("hinted")); err != nil {
			t.Fatal(err)
		}
		wantLockDoorbells(t, posted, 1, 0)
		if !tx.writes[0].locked || !r.covered {
			t.Fatalf("range=%t: locked %t, covered %t", viaRange, tx.writes[0].locked, r.covered)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if n := e.lockedSlots(t, 0); n != 0 {
			t.Fatalf("range=%t: %d slots left locked", viaRange, n)
		}
	}
}

// readVerdict is what one read of a key left behind: its read-set entry
// (nil if none), the abort kind (NumAbortReasons if none) and the READs
// it posted.
type readVerdict struct {
	ent   *readEnt
	abort metrics.AbortReason
	reads uint64
}

// TestReadPathParity: a point Read and a one-key ReadRange are one read
// path. On each kind of slot image — a fabric hit, a cache hit, a stray
// lock, a live foreign lock, a reused slot — both leave the same read-set
// entry, abort the same way and post the same number of READs. A range
// fallback that throws the batched image away and READs the slot again
// fails the live-lock and reused-slot rows.
func TestReadPathParity(t *testing.T) {
	const key = kvlayout.Key(5)
	warm := func(t *testing.T, e *env) { // the address cache knows the key; the read cache does not
		t.Helper()
		if _, found, err := e.nodes[0].resolve(e.nodes[0].Coordinator(0).ep, 0, key); err != nil || !found {
			t.Fatalf("resolve: %v %v", found, err)
		}
	}
	none := metrics.NumAbortReasons
	rows := []struct {
		name  string
		setup func(t *testing.T, e *env)
		entry bool
		abort metrics.AbortReason
		reads uint64
	}{
		{"fabric hit", warm, true, none, 1},
		{"cache hit", func(t *testing.T, e *env) {
			if _, err := readKey(t, e.nodes[0].Coordinator(0), 0, key); err != nil {
				t.Fatal(err)
			}
		}, true, none, 0},
		{"stray lock", func(t *testing.T, e *env) { plantStray(t, e.nodes[0], key) }, true, none, 1},
		{"live lock", func(t *testing.T, e *env) {
			warm(t, e)
			if err := e.nodes[1].Coordinator(0).Begin().Write(0, key, []byte("live")); err != nil {
				t.Fatal(err)
			}
		}, false, metrics.AbortLockConflict, 1},
		{"reused slot", func(t *testing.T, e *env) {
			warm(t, e)
			// The key leaves its slot, a squatter takes it, and the key comes
			// back further down the chain: the cached ref names the squatter.
			squatter := kvlayout.Key(0)
			for k := kvlayout.Key(1000); squatter == 0; k++ {
				if e.ring.Partition(k) == e.ring.Partition(key) && e.schema[0].HomeSlot(k) == e.schema[0].HomeSlot(key) {
					squatter = k
				}
			}
			other := e.nodes[1].Coordinator(0)
			mustCommit(t, other, func(tx *Tx) error { return tx.Delete(0, key) })
			mustCommit(t, other, func(tx *Tx) error { return tx.Insert(0, squatter, []byte("squat")) })
			mustCommit(t, other, func(tx *Tx) error { return tx.Insert(0, key, []byte("back")) })
		}, true, none, 3}, // the squatter's image, the re-probe's window, the key's new slot
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var got [2]readVerdict
			for i, viaRange := range []bool{false, true} {
				e := newEnv(t, envConfig{})
				e.preload(t, 0, 8, func(k kvlayout.Key) []byte { return val16(k, 0) })
				row.setup(t, e)
				reg := metrics.New()
				e.fab.SetMetrics(reg)
				tx := e.nodes[0].Coordinator(0).Begin()
				var err error
				if viaRange {
					err = tx.ReadRange(0, key, key, func(kvlayout.Key, []byte) bool { return true })
				} else {
					_, err = tx.Read(0, key)
				}
				e.fab.SetMetrics(nil)
				got[i] = readVerdict{ent: tx.findRead(0, key), abort: none}
				if err != nil {
					kind, ok := AbortKindOf(err)
					if !ok {
						t.Fatalf("range=%t: %v", viaRange, err)
					}
					got[i].abort = kind
				}
				for _, v := range reg.Snapshot().Verbs {
					if v.Verb == "READ" {
						got[i].reads += v.Issued
					}
				}
			}
			for i, g := range got {
				if (g.ent != nil) != row.entry || g.abort != row.abort || g.reads != row.reads {
					t.Errorf("range=%t: entry %t, abort %s, %d READs; want %t, %s, %d",
						i == 1, g.ent != nil, g.abort, g.reads, row.entry, row.abort, row.reads)
				}
			}
			if p, r := got[0].ent, got[1].ent; p != nil && r != nil &&
				(p.ref != r.ref || p.version != r.version || p.stray != r.stray || p.fromCache != r.fromCache) {
				t.Errorf("point read entry %+v, one-key range entry %+v", *p, *r)
			}
		})
	}
}

// clearLock zeroes the lock word of the slot at addr, as a recovery that
// released the stray word would.
func clearLock(t *testing.T, co *Coordinator, slot rdma.Addr) {
	t.Helper()
	var zero [8]byte
	slot.Offset += kvlayout.SlotLockOff
	if err := co.ep.Write(slot, zero[:]); err != nil {
		t.Fatal(err)
	}
}

// TestStealHintLostToRelease: the stray word is released between the read
// and the write. The hinted steal loses and the ordinary lock doorbell
// takes the free word; the entry is locked and covered, and the commit
// leaves nothing locked.
func TestStealHintLostToRelease(t *testing.T) {
	e, co, slot, posted := stealHintEnv(t, Options{})
	tx := co.Begin()
	if _, err := tx.Read(0, 3); err != nil {
		t.Fatal(err)
	}
	clearLock(t, co, slot)
	if err := tx.Write(0, 3, []byte("after")); err != nil {
		t.Fatal(err)
	}
	wantLockDoorbells(t, posted, 1, 1)
	if len(tx.writes) != 1 || !tx.writes[0].locked || !tx.reads[0].covered {
		t.Fatalf("%d write entries, locked %t, covered %t", len(tx.writes), tx.writes[0].locked, tx.reads[0].covered)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := e.lockedSlots(t, 0); n != 0 {
		t.Fatalf("%d slots left locked", n)
	}
}

// TestStealHintLostToLiveOwner: between the read and the write the stray
// word is released and a running coordinator locks the key. The hinted
// steal loses, the lock doorbell meets the live owner, and the conflict
// policy aborts the transaction as a lock conflict.
func TestStealHintLostToLiveOwner(t *testing.T) {
	e, co, slot, posted := stealHintEnv(t, Options{})
	tx := co.Begin()
	if _, err := tx.Read(0, 3); err != nil {
		t.Fatal(err)
	}
	clearLock(t, co, slot)
	holder := e.nodes[1].Coordinator(0).Begin()
	if err := holder.Write(0, 3, []byte("live")); err != nil {
		t.Fatal(err)
	}
	mustAbortAs(t, tx.Write(0, 3, []byte("late")), metrics.AbortLockConflict)
	wantLockDoorbells(t, posted, 1, 1)
	if err := holder.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := e.lockedSlots(t, 0); n != 0 {
		t.Fatalf("%d slots left locked", n)
	}
}

// TestStealHintNotFromCache: a read served by the read cache saw no lock
// word, so the write finds the stray one the old way: a lock doorbell
// whose CAS fails on it, then the steal.
func TestStealHintNotFromCache(t *testing.T) {
	_, co, _, posted := stealHintEnv(t, Options{})
	warm := co.Begin()
	if _, err := warm.Read(0, 3); err != nil { // fills the cache
		t.Fatal(err)
	}
	if err := warm.Abort(); err != nil {
		t.Fatal(err)
	}
	tx := co.Begin()
	if _, err := tx.Read(0, 3); err != nil {
		t.Fatal(err)
	}
	if r := tx.reads[0]; !r.fromCache || r.stray != 0 {
		t.Fatalf("fromCache %t, stray %#x: want a cache hit without a word", r.fromCache, r.stray)
	}
	if err := tx.Write(0, 3, []byte("cached")); err != nil {
		t.Fatal(err)
	}
	mustSettle(t, tx)
	wantLockDoorbells(t, posted, 1, 1)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestStealHintOffWithoutPILL: with PILL disabled no word is stray, so
// there is no hint to give — the read aborts on the word as a lock
// conflict, and a blind write's lock doorbell does the same, with no
// steal posted.
func TestStealHintOffWithoutPILL(t *testing.T) {
	_, co, _, posted := stealHintEnv(t, Options{DisablePILL: true})
	tx := co.Begin()
	if w := tx.strayWord(kvlayout.LockWord(999, 1)); w != 0 {
		t.Fatalf("strayWord = %#x under DisablePILL, want 0", w)
	}
	_, err := tx.Read(0, 3)
	mustAbortAs(t, err, metrics.AbortLockConflict)
	blind := co.Begin()
	if err := blind.Write(0, 3, []byte("blind")); err != nil {
		t.Fatal(err)
	}
	mustAbortAs(t, blind.Commit(), metrics.AbortLockConflict)
	wantLockDoorbells(t, posted, 0, 1)
}

// TestStealHintInsertTakeover: an insert whose probe finds its key's claim
// held by a failed coordinator takes the slot over with one steal
// doorbell, the probe's word in hand, and no lock CAS failing on it.
func TestStealHintInsertTakeover(t *testing.T) {
	e := newEnv(t, envConfig{})
	cn, other := e.nodes[0], e.nodes[1].Coordinator(0)
	const key = kvlayout.Key(100)
	claimant := other.Begin()
	if err := claimant.Insert(0, key, []byte("abandoned")); err != nil {
		t.Fatal(err)
	}
	cn.NotifyStrayLocks([]kvlayout.CoordID{other.ID()})
	posted := watchStages(cn)
	co := cn.Coordinator(0)
	mustCommit(t, co, func(tx *Tx) error { return tx.Insert(0, key, []byte("taken over")) })
	wantLockDoorbells(t, posted, 1, 0)
	if n := e.lockedSlots(t, 0); n != 0 {
		t.Fatalf("%d slots left locked", n)
	}
	if v, err := readKey(t, co, 0, key); err != nil || string(v[:10]) != "taken over" {
		t.Fatalf("read after the takeover: %q, %v", v, err)
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

	// The blind write's lock doorbell, posted at Write, finds the stray
	// word; the steal follows where it settles, at Commit.
	tx := cn.Coordinator(0).Begin()
	if err := tx.Write(0, 3, []byte("stolen")); err != nil {
		t.Fatal(err)
	}
	err := tx.Commit()
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
