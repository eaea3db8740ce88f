package cache

import (
	"testing"
	"unsafe"

	"pandora/internal/kvlayout"
	"pandora/internal/race"
)

func TestPutGetRoundTrip(t *testing.T) {
	c := New(64)
	c.Put(1, 42, 3, 7, 5, []byte("hello"), 0)
	v, ok := c.Get(1, 42, 0)
	if !ok {
		t.Fatal("miss after Put")
	}
	if v.Partition != 3 || v.Slot != 7 || v.Version != 5 || string(v.Value) != "hello" {
		t.Fatalf("view = %+v", v)
	}
	// Different table, same key: distinct entry.
	if _, ok := c.Get(2, 42, 0); ok {
		t.Fatal("hit on wrong table")
	}
	// Same-key Put overwrites in place — never a duplicate.
	c.Put(1, 42, 3, 7, 6, []byte("world"), 0)
	v, _ = c.Get(1, 42, 0)
	if v.Version != 6 || string(v.Value) != "world" {
		t.Fatalf("overwrite lost: %+v", v)
	}
	if st := c.Stats(); st.Evictions != 0 {
		t.Fatalf("same-key overwrite counted as eviction: %+v", st)
	}
}

func TestEpochInvalidation(t *testing.T) {
	c := New(64)
	c.Put(0, 1, 0, 0, 9, []byte("v"), 1)
	if _, ok := c.Get(0, 1, 1); !ok {
		t.Fatal("miss in the entry's own epoch")
	}
	if _, ok := c.Get(0, 1, 2); ok {
		t.Fatal("hit across an epoch bump")
	}
	// Touch with a matching version revalidates into the new epoch.
	c.Touch(0, 1, 9, 2)
	if _, ok := c.Get(0, 1, 2); !ok {
		t.Fatal("miss after Touch revalidation")
	}
	// Touch with a stale version must not revalidate.
	c.Touch(0, 1, 8, 3)
	if _, ok := c.Get(0, 1, 3); ok {
		t.Fatal("hit after version-mismatched Touch")
	}
	// A Put in the new epoch recycles the stale entry.
	c.Put(0, 1, 0, 0, 10, []byte("w"), 3)
	if v, ok := c.Get(0, 1, 3); !ok || v.Version != 10 {
		t.Fatalf("Put did not refresh stale-epoch entry: %+v ok=%v", v, ok)
	}
}

func TestInvalidate(t *testing.T) {
	c := New(64)
	c.Put(0, 5, 0, 0, 1, []byte("x"), 0)
	c.Invalidate(0, 5)
	if _, ok := c.Get(0, 5, 0); ok {
		t.Fatal("hit after Invalidate")
	}
	if st := c.Stats(); st.Invalidations != 1 {
		t.Fatalf("invalidations = %d, want 1", st.Invalidations)
	}
	// Invalidating an absent key is a no-op.
	c.Invalidate(0, 6)
	if st := c.Stats(); st.Invalidations != 1 {
		t.Fatalf("absent-key invalidate counted: %+v", st)
	}
}

// TestEvictionLRUWithinSet fills one set past associativity and checks
// the least-recently-used way is the one replaced.
func TestEvictionLRUWithinSet(t *testing.T) {
	c := New(1) // single set of setWays entries
	if c.Cap() != setWays {
		t.Fatalf("cap = %d, want %d", c.Cap(), setWays)
	}
	for k := kvlayout.Key(0); k < setWays; k++ {
		c.Put(0, k, 0, 0, 1, []byte("v"), 0)
	}
	// Touch key 0 so key 1 becomes LRU.
	if _, ok := c.Get(0, 0, 0); !ok {
		t.Fatal("warm miss")
	}
	c.Put(0, 99, 0, 0, 1, []byte("n"), 0)
	if _, ok := c.Get(0, 1, 0); ok {
		t.Fatal("LRU entry survived eviction")
	}
	if _, ok := c.Get(0, 0, 0); !ok {
		t.Fatal("recently used entry was evicted")
	}
	if _, ok := c.Get(0, 99, 0); !ok {
		t.Fatal("newly inserted entry missing")
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
}

func TestLenCounts(t *testing.T) {
	c := New(64)
	for k := kvlayout.Key(0); k < 10; k++ {
		c.Put(0, k, 0, 0, 1, []byte("v"), 0)
	}
	if c.Len() != 10 {
		t.Fatalf("len = %d, want 10", c.Len())
	}
}

// TestHitPathZeroAlloc enforces the cache-hit contract: serving a read
// from the cache performs no heap allocations (Get), and a warm
// same-capacity Put reuses the victim's value buffer.
func TestHitPathZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("-race instrumentation allocates; the cache-hit zero-alloc contract is enforced by the no-race lane")
	}
	c := New(256)
	val := make([]byte, 40)
	for k := kvlayout.Key(0); k < 100; k++ {
		c.Put(0, k, 0, uint64(k), 1, val, 0)
	}
	var sink uint64
	if n := testing.AllocsPerRun(500, func() {
		v, ok := c.Get(0, 37, 0)
		if !ok {
			t.Fatal("miss")
		}
		sink += v.Version
	}); n > 0 {
		t.Errorf("Get hit: %.1f allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(500, func() {
		c.Put(0, 37, 0, 37, 2, val, 0)
	}); n > 0 {
		t.Errorf("warm Put: %.1f allocs/op, want 0", n)
	}
	_ = sink
}

// TestEntryIs80Bytes: the evidence counts and the ghost bit live in the
// entry's padding, so a way stays 80 bytes.
func TestEntryIs80Bytes(t *testing.T) {
	if n := unsafe.Sizeof(entry{}); n != 80 {
		t.Fatalf("entry is %d bytes, want 80", n)
	}
}

// validate records n validated hits on (0, k) at the entry's version.
func validate(c *Cache, k kvlayout.Key, version uint64, n int) {
	for i := 0; i < n; i++ {
		c.Validated(0, k, version)
	}
}

// TestRefreshOnlyAfterValidatedHits: a stale hit refreshes the entry in
// place only when its validated hits outweigh it (staleWeight); an entry
// without them becomes a ghost, which keeps the new version and misses.
func TestRefreshOnlyAfterValidatedHits(t *testing.T) {
	c := New(64)
	c.Put(0, 1, 0, 0, 5, []byte("old"), 0)
	c.Stale(0, 1, 6, []byte("new"), 0)
	if _, ok := c.Get(0, 1, 0); ok {
		t.Fatal("a stale hit with no validated hit behind it was refreshed")
	}
	if st := c.Stats(); st.Ghosts != 1 || st.Invalidations != 1 || st.Refreshes != 0 {
		t.Fatalf("stats = %+v, want one ghost, counted as an invalidation", st)
	}

	c.Put(0, 2, 0, 0, 5, []byte("old"), 0)
	validate(c, 2, 5, staleWeight)
	c.Stale(0, 2, 6, []byte("new"), 0)
	if _, ok := c.Get(0, 2, 0); ok {
		t.Fatalf("refreshed after %d validated hits, which only balance one stale hit", staleWeight)
	}

	c.Put(0, 3, 0, 0, 5, []byte("old"), 0)
	validate(c, 3, 5, staleWeight+1)
	c.Stale(0, 3, 6, []byte("new"), 7)
	v, ok := c.Get(0, 3, 7)
	if !ok || v.Version != 6 || string(v.Value) != "new" {
		t.Fatalf("after %d validated hits the stale hit was not refreshed: %+v ok=%v", staleWeight+1, v, ok)
	}
	if st := c.Stats(); st.Refreshes != 1 || st.Ghosts != 2 {
		t.Fatalf("stats = %+v, want 1 refresh and 2 ghosts", st)
	}

	// A stale hit whose image may not be admitted leaves no value to
	// refresh with: the entry becomes a ghost however it validated.
	c.Put(0, 4, 0, 0, 5, []byte("old"), 0)
	validate(c, 4, 5, 10)
	c.Stale(0, 4, 6, nil, 0)
	if _, ok := c.Get(0, 4, 0); ok {
		t.Fatal("a stale hit without an image kept serving")
	}
}

// TestChurnMakesGhost: a key whose hits keep going stale stops being
// served however well it validated before, once the stale hits weigh as
// much as the validated ones.
func TestChurnMakesGhost(t *testing.T) {
	c := New(64)
	c.Put(0, 1, 0, 0, 1, []byte("v"), 0)
	validate(c, 1, 1, 6)
	version := uint64(1)
	stale := 0
	for {
		version++
		c.Stale(0, 1, version, []byte("v"), 0)
		stale++
		if _, ok := c.Get(0, 1, 0); !ok {
			break
		}
		validate(c, 1, version, 1) // the retry's hit validates
		if stale > 20 {
			t.Fatal("a key stale on every other hit was never made a ghost")
		}
	}
	// Six validated hits, then each stale hit followed by one validated:
	// the third stale hit outweighs them (3·3 ≥ 6+2).
	if stale != 3 {
		t.Fatalf("ghost after %d stale hits, want 3", stale)
	}
	if st := c.Stats(); st.Ghosts != 1 || st.Refreshes != 2 {
		t.Fatalf("stats = %+v, want two refreshes, then one ghost", st)
	}
}

// TestGhostEarnedBackWhenVersionHolds: fabric reads of a ghost are its
// evidence. One that finds the version moved weighs like a stale hit;
// ones that find it holding still earn the key back, stored with the
// read's image, once they outweigh the stale ones.
func TestGhostEarnedBackWhenVersionHolds(t *testing.T) {
	c := New(64)
	c.Put(0, 1, 0, 0, 5, []byte("v5"), 0)
	c.Stale(0, 1, 6, nil, 0) // ghost: valid 0, stale 1
	c.Admit(0, 1, 2, 3, 7, []byte("v7"), 0)
	// stale 2: staleWeight·2 holding reads balance it, one more tips it.
	reads := 0
	for {
		if _, ok := c.Get(0, 1, 0); ok {
			break
		}
		if reads++; reads > 2*evidenceCap {
			t.Fatal("a ghost whose version holds still was never earned back")
		}
		c.Admit(0, 1, 2, 3, 7, []byte("v7"), 0)
	}
	if want := staleWeight*2 + 1; reads != want {
		t.Fatalf("earned back after %d holding reads, want %d", reads, want)
	}
	v, _ := c.Get(0, 1, 0)
	if v.Partition != 2 || v.Slot != 3 || v.Version != 7 || string(v.Value) != "v7" {
		t.Fatalf("promoted entry = %+v, want the read's image", v)
	}
}

// TestWriteThroughIsNoEvidence: this coordinator's own commit moves a
// ghost's version and keeps it a ghost, and replaces a live entry's image
// keeping it live; neither changes the counts.
func TestWriteThroughIsNoEvidence(t *testing.T) {
	c := New(64)
	c.Put(0, 1, 0, 0, 5, []byte("v5"), 0)
	c.Stale(0, 1, 6, nil, 0) // ghost: valid 0, stale 1
	for v := uint64(7); v < 7+2*evidenceCap; v++ {
		c.Put(0, 1, 0, 0, v, []byte("mine"), 0)
		if _, ok := c.Get(0, 1, 0); ok {
			t.Fatalf("write-through of version %d promoted a ghost", v)
		}
	}
	// The ghost's version is the last commit's: reads of it hold still,
	// and the ghost's stale count is still the one it had.
	last := uint64(6 + 2*evidenceCap)
	for i := 0; i < staleWeight; i++ {
		c.Admit(0, 1, 0, 0, last, []byte("mine"), 0)
	}
	if _, ok := c.Get(0, 1, 0); ok {
		t.Fatal("promoted before the holding reads outweighed the stale hit")
	}
	c.Admit(0, 1, 0, 0, last, []byte("mine"), 0)
	if v, ok := c.Get(0, 1, 0); !ok || v.Version != last {
		t.Fatalf("not earned back at the write-through's version: %+v ok=%v", v, ok)
	}

	c.Put(0, 2, 0, 0, 5, []byte("v5"), 0)
	validate(c, 2, 5, staleWeight+1)
	for v := uint64(6); v < 6+2*evidenceCap; v++ {
		c.Put(0, 2, 0, 0, v, []byte("mine"), 0)
	}
	// Still live, and still refreshed by a stale hit: its validated hits
	// were kept.
	c.Stale(0, 2, 100, []byte("new"), 0)
	if v, ok := c.Get(0, 2, 0); !ok || v.Version != 100 {
		t.Fatalf("write-through demoted a live entry or dropped its counts: %+v ok=%v", v, ok)
	}
}

// TestEvidenceDecays: counts are halved as they grow, so a long history
// weighs no more than a recent one. However many hits validated, a key
// that turns to churn is a ghost within evidenceCap/staleWeight+1 stale
// hits; however many reads found a ghost's version moved, a key that
// settles is served again within 2·evidenceCap holding reads.
func TestEvidenceDecays(t *testing.T) {
	c := New(64)
	c.Put(0, 1, 0, 0, 1, []byte("v"), 0)
	validate(c, 1, 1, 1000)
	version, stale := uint64(1), 0
	for max := evidenceCap/staleWeight + 1; ; {
		version++
		c.Stale(0, 1, version, []byte("v"), 0)
		stale++
		if _, ok := c.Get(0, 1, 0); !ok {
			break
		}
		if stale >= max {
			t.Fatalf("a key with a long validated history still served after %d stale hits, want a ghost within %d", stale, max)
		}
	}

	for i := 0; i < 1000; i++ {
		version++
		c.Admit(0, 1, 0, 0, version, []byte("v"), 0)
	}
	reads := 0
	for {
		c.Admit(0, 1, 0, 0, version, []byte("v"), 0)
		reads++
		if _, ok := c.Get(0, 1, 0); ok {
			break
		}
		if reads > 2*evidenceCap {
			t.Fatalf("a ghost with a long stale history was not earned back within %d holding reads", 2*evidenceCap)
		}
	}
}
