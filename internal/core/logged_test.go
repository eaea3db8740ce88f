package core

import (
	"testing"

	"pandora/internal/kvlayout"
	"pandora/internal/metrics"
	"pandora/internal/rdma"
)

// A failed coordinator's logged transaction, announced by recovery before
// its act: its lock word stays a live lock until a later notification
// leaves it out (DESIGN.md §4b "Logged words travel with the
// notification"). Every test below fails with the exception taken out of
// strayLock.

// loggedWord is the lock word plantLogged plants: coordinator 999's
// logged transaction 1.
var loggedWord = kvlayout.LockWord(999, 1)

// plantLogged locks key of table 0 on its primary with loggedWord and
// announces coordinator 999 failed on cn with that word logged; it returns
// the slot's address there.
func plantLogged(t *testing.T, cn *ComputeNode, key kvlayout.Key) rdma.Addr {
	t.Helper()
	slot := plantStray(t, cn, key) // 999's word, announced with nothing logged
	announce(cn, []kvlayout.CoordID{999}, []uint64{loggedWord})
	return slot
}

func loggedEnv(t *testing.T) (*env, *ComputeNode) {
	t.Helper()
	e := newEnv(t, envConfig{})
	e.preload(t, 0, 8, func(k kvlayout.Key) []byte { return val16(k, 0) })
	return e, e.nodes[0]
}

// TestLoggedWordIsForeign: the word of a logged transaction is a foreign
// lock, not a stray one, and hints no steal; another word of the same
// failed coordinator is still stray.
func TestLoggedWordIsForeign(t *testing.T) {
	_, cn := loggedEnv(t)
	plantLogged(t, cn, 3)
	tx := cn.Coordinator(0).Begin()
	if !tx.foreignLock(loggedWord) || tx.strayLock(loggedWord) {
		t.Fatalf("logged word: foreign %t, stray %t; want a live foreign lock", tx.foreignLock(loggedWord), tx.strayLock(loggedWord))
	}
	if w := tx.strayWord(loggedWord); w != 0 {
		t.Fatalf("strayWord(logged) = %#x, want 0", w)
	}
	if other := kvlayout.LockWord(999, 2); tx.foreignLock(other) || tx.strayWord(other) != other {
		t.Fatalf("unlogged word of the same coordinator: foreign %t, strayWord %#x; want stray", tx.foreignLock(other), tx.strayWord(other))
	}
	announce(cn, nil, nil) // act has landed: nothing left logged
	if tx.foreignLock(loggedWord) || tx.strayWord(loggedWord) != loggedWord {
		t.Fatal("the word is still a live lock after a notification that leaves it out")
	}
}

// TestLoggedWordRefusesReadsAndCache: a read of a slot under a logged word
// aborts as a lock conflict and admits nothing to the read cache; a
// transaction that read the key before the word was announced fails
// validation on it.
func TestLoggedWordRefusesReadsAndCache(t *testing.T) {
	e, cn := loggedEnv(t)
	co := cn.Coordinator(0)
	early := co.Begin()
	if _, err := early.Read(0, 3); err != nil {
		t.Fatal(err)
	}
	if co.rcache != nil {
		co.rcache.Invalidate(0, 3) // the next read must come from the fabric
	}
	plantLogged(t, cn, 3)

	tx := co.Begin()
	_, err := tx.Read(0, 3)
	mustAbortAs(t, err, metrics.AbortLockConflict)
	if co.rcache == nil {
		t.Fatal("the test needs the read cache")
	}
	if _, hit := co.rcache.Get(0, 3, cn.cacheEpoch.Load()); hit {
		t.Fatal("the read under a logged word was admitted to the read cache")
	}

	if err := early.Write(0, 4, []byte("derived")); err != nil {
		t.Fatal(err)
	}
	mustAbortAs(t, early.Commit(), metrics.AbortLockConflict)
	if n := e.lockedSlots(t, 0); n != 1 {
		t.Fatalf("%d slots locked, want the logged word's alone", n)
	}
}

// TestLoggedWordTakesConflictPolicy: a lock CAS that meets a logged word
// aborts as a lock conflict with no steal posted, while in the same
// transaction a word of the same coordinator that is not logged, which a
// read passed over, is stolen by the write's lock doorbell, posted at Write
// and settled at Commit with the others.
func TestLoggedWordTakesConflictPolicy(t *testing.T) {
	e, cn := loggedEnv(t)
	co := cn.Coordinator(0)
	plantLogged(t, cn, 3)
	unlogged := kvlayout.LockWord(999, 2)
	ref, _, err := cn.resolve(co.ep, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	reps, _ := cn.replicasFor(ref.partition)
	if _, swapped, err := co.ep.CAS(cn.tableAddr(reps[0], ref, kvlayout.SlotLockOff), 0, unlogged); err != nil || !swapped {
		t.Fatalf("planting the unlogged word: %v %v", swapped, err)
	}
	posted := watchStages(cn)

	blind := co.Begin()
	if err := blind.Write(0, 3, []byte("blind")); err != nil {
		t.Fatal(err)
	}
	mustAbortAs(t, blind.Commit(), metrics.AbortLockConflict)
	wantLockDoorbells(t, posted, 0, 1)

	tx := co.Begin()
	if _, err := tx.Read(0, 5); err != nil {
		t.Fatal(err)
	}
	for _, k := range []kvlayout.Key{5, 6} {
		if err := tx.Write(0, k, []byte("stolen")); err != nil {
			t.Fatal(err)
		}
	}
	if tx.writes[0].posted == nil {
		t.Fatal("the hinted steal settled at Write")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	wantLockDoorbells(t, posted, 1, 2)
	if n := e.lockedSlots(t, 0); n != 1 {
		t.Fatalf("%d slots locked, want the logged word's alone", n)
	}
}
