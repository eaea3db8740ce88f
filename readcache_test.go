package pandora_test

// Validated-read-cache behaviour through the public API: hits serve
// locally, stale hits abort at validation and are invalidated, PILL
// lock steals drop the stolen key, recovery bumps the survivor's cache
// epoch, and a negative ReadCacheSize disables the cache entirely.

import (
	"bytes"
	"testing"

	pandora "pandora"
	"pandora/internal/kvlayout"
)

func TestReadCacheHitServesLocally(t *testing.T) {
	c := newLoaded(t, testConfig(), 64)
	s := c.Session(0, 0)

	if v := readValidated(t, s, "kv", 7); !bytes.Equal(v, u64(70)) {
		t.Fatalf("first read = %v", v)
	}
	before := c.ReadCacheStats(0, 0)
	if v := readValidated(t, s, "kv", 7); !bytes.Equal(v, u64(70)) {
		t.Fatalf("second read = %v", v)
	}
	after := c.ReadCacheStats(0, 0)
	if after.Hits <= before.Hits {
		t.Fatalf("second read did not hit the cache: %+v -> %+v", before, after)
	}
}

func TestReadCacheStaleHitAbortsThenRecovers(t *testing.T) {
	c := newLoaded(t, testConfig(), 64)
	a := c.Session(0, 0)
	b := c.Session(1, 0)

	// a caches key 3 at its loaded version.
	if v := readValidated(t, a, "kv", 3); !bytes.Equal(v, u64(30)) {
		t.Fatalf("warm read = %v", v)
	}
	// b moves the version on the fabric; a's cache does not see it.
	if err := b.Update(0, func(tx *pandora.Tx) error {
		return tx.Write("kv", 3, u64(333))
	}); err != nil {
		t.Fatal(err)
	}

	// a's next read serves the stale value; validation must reject the
	// commit and invalidate the entry.
	tx := a.Begin()
	v, err := tx.Read("kv", 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v, u64(30)) {
		// The cache may already have missed (e.g. eviction); then the
		// read is fresh and there is nothing left to assert.
		t.Skipf("read was not a stale hit (got %v)", v)
	}
	if cerr := tx.Commit(); !pandora.IsAborted(cerr) {
		t.Fatalf("stale-hit commit = %v, want validation abort", cerr)
	}
	if st := c.ReadCacheStats(0, 0); st.Invalidations == 0 {
		t.Fatalf("no invalidation recorded: %+v", st)
	}
	// The retry reads through and sees b's committed value.
	if v := readValidated(t, a, "kv", 3); !bytes.Equal(v, u64(333)) {
		t.Fatalf("post-abort read = %v, want 333", v)
	}
}

func TestReadCacheInvalidatedOnLockSteal(t *testing.T) {
	c := newLoaded(t, testConfig(), 64)
	stealer := c.Session(0, 0)
	victim := c.Session(1, 0)

	// The stealer caches key 5's pre-image.
	if v := readValidated(t, stealer, "kv", 5); !bytes.Equal(v, u64(50)) {
		t.Fatalf("warm read = %v", v)
	}

	// The victim locks key 5 and goes silent (tx abandoned, lock left).
	vtx := victim.Begin()
	if err := vtx.Write("kv", 5, u64(555)); err != nil {
		t.Fatal(err)
	}

	// Announce the victim's coordinator failed on the stealer's node
	// only, with no recovery behind the announcement. The epoch bump that
	// comes with it makes the cached entry miss; Invalidations counts
	// per-key drops whatever the epoch, so it still isolates the steal.
	c.Engine(0).NotifyStrayLocks([]kvlayout.CoordID{victim.CoordinatorID()})

	before := c.ReadCacheStats(0, 0)
	// The stealer's write finds the stray lock, steals it, and must
	// drop its cached entry for the key (recovery could have rewritten
	// the slot in the general case).
	if err := stealer.Update(0, func(tx *pandora.Tx) error {
		return tx.Write("kv", 5, u64(500))
	}); err != nil {
		t.Fatal(err)
	}
	after := c.ReadCacheStats(0, 0)
	if after.Invalidations <= before.Invalidations {
		t.Fatalf("steal did not invalidate the cached key: %+v -> %+v", before, after)
	}
	if v := readValidated(t, stealer, "kv", 5); !bytes.Equal(v, u64(500)) {
		t.Fatalf("post-steal read = %v, want 500", v)
	}
}

func TestReadCacheEpochBumpOnRecovery(t *testing.T) {
	c := newLoaded(t, testConfig(), 64)
	survivor := c.Session(1, 0)

	// The survivor caches key 9.
	if v := readValidated(t, survivor, "kv", 9); !bytes.Equal(v, u64(90)) {
		t.Fatalf("warm read = %v", v)
	}

	// Node 0 fails; recovery announces stray locks to the survivors,
	// which bumps their cache epochs (log recovery may have rolled
	// committed-looking writes back — every cached version predating
	// the announcement is suspect).
	if _, err := c.FailCompute(0); err != nil {
		t.Fatal(err)
	}

	before := c.ReadCacheStats(1, 0)
	if v := readValidated(t, survivor, "kv", 9); !bytes.Equal(v, u64(90)) {
		t.Fatalf("post-recovery read = %v", v)
	}
	after := c.ReadCacheStats(1, 0)
	if after.Misses <= before.Misses {
		t.Fatalf("post-recovery read hit a pre-epoch entry: %+v -> %+v", before, after)
	}
}

func TestReadCacheDisabledBaseline(t *testing.T) {
	cfg := testConfig()
	cfg.ReadCacheSize = -1
	c := newLoaded(t, cfg, 64)
	s := c.Session(0, 0)

	for i := 0; i < 3; i++ {
		if v := readValidated(t, s, "kv", 7); !bytes.Equal(v, u64(70)) {
			t.Fatalf("read %d = %v", i, v)
		}
	}
	if st := c.ReadCacheStats(0, 0); st != (pandora.CacheStats{}) {
		t.Fatalf("disabled cache has non-zero stats: %+v", st)
	}
}
