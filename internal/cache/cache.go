// Package cache implements the per-coordinator validated read cache:
// a bounded map from (table, key) to the slot location, version and
// value last observed by a successful one-sided read. A hit serves the
// value from compute-side memory and registers the cached version in
// the transaction's read set; the OCC validation phase re-reads every
// read-set version before the commit decision, so a stale hit can only
// ever cost an abort, never a consistency violation. The cache is a
// pure latency optimisation — correctness is carried entirely by
// validation (DESIGN.md §11).
//
// Each entry keeps evidence of what serving it has cost: how many of its
// hits validated and how many went stale, halved together as they grow.
// A stale hit refreshes the entry with the image validation read, unless
// the key's stale hits weigh as much as its validated ones (staleWeight):
// then the entry becomes a ghost, which keeps only its version and
// misses, until fabric reads that find the version holding still earn
// the key back.
//
// The cache is owned by a single coordinator and is not safe for
// concurrent use, matching the coordinator's one-transaction-at-a-time
// execution model. Cross-coordinator invalidation (recovery roll-back,
// memory-node failure, ring swaps) is epoch-based: the compute node
// bumps a shared epoch counter and entries stamped with an older epoch
// stop hitting.
//
// Layout: a set-associative array (setWays entries per set, power-of-two
// set count) rather than a Go map, for three reasons: Get/Put touch no
// hash-map internals so the hit path is allocation-free; eviction is a
// deterministic LRU-within-set decision (no map iteration order); and
// the fixed geometry makes the memory bound exact.
package cache

import "pandora/internal/kvlayout"

// setWays is the associativity: a key can live in any of the setWays
// entries of its set. Four ways keeps conflict misses rare at trivial
// probe cost (the whole set shares a cache line's worth of headers).
const setWays = 4

// DefaultEntries is the entry budget used when the configuration does
// not specify one.
const DefaultEntries = 4096

// evidenceCap bounds the evidence counts: when one reaches it, both are
// halved, so an entry weighs its recent hits most, a key that starts to
// churn turns into a ghost within a few stale hits, and a ghost that
// stops churning earns its way back within a few dozen reads.
const evidenceCap = 32

// staleWeight is what one stale hit weighs against validated ones. A
// validated hit saves one READ round; a stale hit aborts its attempt,
// which has paid its reads and its validation round by then, so it
// costs about three. An entry is served while its validated hits
// outweigh its stale ones: while fewer than one hit in four goes stale.
const staleWeight = 3

// entry is one cached object. value is a reused buffer: replacement
// overwrites it in place when capacities match, so a warm cache stops
// allocating even on the insert path. valid and stale count the entry's
// hits that validated and that went stale (decayed by count); a ghost
// holds a version and no value. The three sit in what would otherwise
// be the padding after table.
type entry struct {
	table   kvlayout.TableID
	valid   uint8
	stale   uint8
	ghost   bool
	key     kvlayout.Key
	used    bool
	part    uint32
	slot    uint64
	version uint64
	epoch   uint64
	tick    uint64
	value   []byte
}

// View is the read-only result of a hit. Value aliases cache-owned
// memory: it is valid until the coordinator's next cache operation and
// must be copied to be retained.
type View struct {
	Partition uint32
	Slot      uint64
	Version   uint64
	Value     []byte
}

// Stats counts cache traffic since creation. Invalidations counts the
// entries whose value was dropped, Ghosts those of them that became
// ghosts, and Refreshes the stale hits replaced in place instead.
type Stats struct {
	Hits          uint64
	Misses        uint64
	Puts          uint64
	Invalidations uint64
	Evictions     uint64
	Refreshes     uint64
	Ghosts        uint64
}

// HitRate returns Hits/(Hits+Misses), or 0 for an untouched cache.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Cache is one coordinator's validated read cache. Not safe for
// concurrent use.
type Cache struct {
	entries []entry
	setMask uint64
	tick    uint64
	stats   Stats
}

// New builds a cache holding at least `entries` objects (rounded up to
// a power-of-two set count times setWays; minimum one set). entries <= 0
// selects DefaultEntries.
func New(entries int) *Cache {
	if entries <= 0 {
		entries = DefaultEntries
	}
	sets := 1
	for sets*setWays < entries {
		sets <<= 1
	}
	return &Cache{
		entries: make([]entry, sets*setWays),
		setMask: uint64(sets - 1),
	}
}

// setFor returns the offset of (table, key)'s set within c.entries.
func (c *Cache) setFor(table kvlayout.TableID, key kvlayout.Key) int {
	h := kvlayout.Mix64(uint64(key) ^ (uint64(table)+1)<<48)
	return int(h&c.setMask) * setWays
}

// find returns (table, key)'s entry, live or ghost, or nil.
func (c *Cache) find(table kvlayout.TableID, key kvlayout.Key) *entry {
	base := c.setFor(table, key)
	for i := base; i < base+setWays; i++ {
		if e := &c.entries[i]; e.used && e.table == table && e.key == key {
			return e
		}
	}
	return nil
}

// Get looks (table, key) up. Entries stamped with an epoch other than
// the caller's current one are ignored (and remain in place as
// replacement victims), and so are ghosts. The hit path performs no
// allocations.
func (c *Cache) Get(table kvlayout.TableID, key kvlayout.Key, epoch uint64) (View, bool) {
	if e := c.find(table, key); e != nil && !e.ghost && e.epoch == epoch {
		c.tick++
		e.tick = c.tick
		c.stats.Hits++
		return View{Partition: e.part, Slot: e.slot, Version: e.version, Value: e.value}, true
	}
	c.stats.Misses++
	return View{}, false
}

// claim returns the entry (table, key) is to be stored in, marked used
// now: its own, or else a free way or the set's least recently used,
// emptied for it. A ghost stays resident while it is read, so it keeps
// the evidence that made it one.
func (c *Cache) claim(table kvlayout.TableID, key kvlayout.Key) *entry {
	c.tick++
	if e := c.find(table, key); e != nil {
		e.tick = c.tick
		return e
	}
	base := c.setFor(table, key)
	victim := base
	for i := base; i < base+setWays; i++ {
		e := &c.entries[i]
		if !c.entries[victim].used {
			break // keep the free victim
		}
		if !e.used || e.tick < c.entries[victim].tick {
			victim = i
		}
	}
	e := &c.entries[victim]
	if e.used {
		c.stats.Evictions++
	}
	e.table, e.key, e.used, e.tick = table, key, true, c.tick
	e.valid, e.stale, e.ghost = 0, 0, false
	return e
}

// store writes a live image into e. The value is copied into
// cache-owned memory; a same-capacity replacement reuses the buffer.
func (c *Cache) store(e *entry, partition uint32, slot, version uint64, value []byte, epoch uint64) {
	e.part, e.slot, e.version, e.epoch = partition, slot, version, epoch
	if cap(e.value) >= len(value) {
		e.value = e.value[:len(value)]
	} else {
		e.value = make([]byte, len(value))
	}
	copy(e.value, value)
}

// count adds one to the evidence count n of e, halving both counts when
// n reaches evidenceCap.
func (e *entry) count(n *uint8) {
	if *n++; *n >= evidenceCap {
		e.valid >>= 1
		e.stale >>= 1
	}
}

// Put records the image this coordinator's own commit installed for
// (table, key). It is no evidence either way: a live entry takes the
// image, keeping its counts, and a ghost only moves its version. Same-key
// puts overwrite in place, so the set never holds two entries for one
// key.
func (c *Cache) Put(table kvlayout.TableID, key kvlayout.Key, partition uint32, slot, version uint64, value []byte, epoch uint64) {
	e := c.claim(table, key)
	if e.ghost {
		e.part, e.slot, e.version = partition, slot, version
		return
	}
	c.store(e, partition, slot, version, value, epoch)
	c.stats.Puts++
}

// Admit records the image a fabric read found for (table, key). For a
// ghost the read is evidence: a version holding still since the ghost's
// counts as a hit that would have validated, and once those outweigh
// the stale ones the image is stored and the key is served again; a
// version that moved counts as a hit that would have gone stale and
// becomes the ghost's version. Any other entry takes the image as Put
// does.
func (c *Cache) Admit(table kvlayout.TableID, key kvlayout.Key, partition uint32, slot, version uint64, value []byte, epoch uint64) {
	e := c.claim(table, key)
	if e.ghost {
		if version != e.version {
			e.count(&e.stale)
			e.part, e.slot, e.version = partition, slot, version
			return
		}
		if e.count(&e.valid); e.valid <= staleWeight*e.stale {
			return
		}
		e.ghost = false
	}
	c.store(e, partition, slot, version, value, epoch)
	c.stats.Puts++
}

// Validated records a hit on (table, key) at version that a fabric read
// proved current: a passing validation, or the READ behind the
// transaction's own lock of the key.
func (c *Cache) Validated(table kvlayout.TableID, key kvlayout.Key, version uint64) {
	if e := c.find(table, key); e != nil && !e.ghost && e.version == version {
		e.count(&e.valid)
	}
}

// Stale records a hit on (table, key) that validation found stale: the
// slot now carries version, and value is its image's value, or nil when
// a read of the image would not be admitted (a running coordinator holds
// its lock, or it no longer holds the key). The entry takes the image in
// place, stamped epoch; or, when its stale hits weigh as much as its
// validated ones, or there is no image to take, it becomes a ghost at
// version.
func (c *Cache) Stale(table kvlayout.TableID, key kvlayout.Key, version uint64, value []byte, epoch uint64) {
	e := c.find(table, key)
	if e == nil || e.ghost {
		return
	}
	e.count(&e.stale)
	if value == nil || staleWeight*e.stale >= e.valid {
		e.ghost, e.version, e.value = true, version, e.value[:0]
		c.stats.Invalidations++
		c.stats.Ghosts++
		return
	}
	c.tick++
	e.tick = c.tick
	c.store(e, e.part, e.slot, version, value, epoch)
	c.stats.Refreshes++
}

// Touch re-stamps an existing entry's epoch if its cached version still
// matches — used when validation just proved the entry current, which
// carries a stale-epoch entry across an epoch bump without a value
// copy. A version mismatch leaves the entry untouched.
func (c *Cache) Touch(table kvlayout.TableID, key kvlayout.Key, version, epoch uint64) {
	if e := c.find(table, key); e != nil && e.version == version {
		c.tick++
		e.epoch, e.tick = epoch, c.tick
	}
}

// Invalidate drops (table, key)'s value if present. A ghost holds none
// and stays, evidence and all.
func (c *Cache) Invalidate(table kvlayout.TableID, key kvlayout.Key) {
	if e := c.find(table, key); e != nil && !e.ghost {
		e.used = false
		c.stats.Invalidations++
	}
}

// Len returns the number of live entries (any epoch); O(capacity),
// diagnostics only.
func (c *Cache) Len() int {
	n := 0
	for i := range c.entries {
		if c.entries[i].used {
			n++
		}
	}
	return n
}

// Cap returns the entry capacity.
func (c *Cache) Cap() int { return len(c.entries) }

// Stats returns the traffic counters.
func (c *Cache) Stats() Stats { return c.stats }
