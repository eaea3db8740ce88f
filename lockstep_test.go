package pandora

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"pandora/internal/core"
	"pandora/internal/kvlayout"
	"pandora/internal/metrics"
	"pandora/internal/rdma"
)

// The lock step's obligations, pinned from outside the engine. A write
// entry joins the write set before its lock doorbell is posted and owns
// the lock the doorbell took, so whichever way the step ends, no lock
// word may be left held by a live coordinator. The tests below fault the
// doorbell op by op, then audit exactly that. They replace the lockpair
// dataflow pass (DESIGN.md §10): each names the mutation of
// internal/core it fails under.

// hotValue is a 16-byte value carrying v.
func hotValue(v uint64) []byte {
	b := make([]byte, 16)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

// lockstepCluster is a 2-compute cluster with one preloaded table and
// suspicion escalation off, so an injected partition stays a link fault
// instead of becoming a dead node.
func lockstepCluster(t *testing.T) *Cluster {
	t.Helper()
	c, err := New(Config{
		ComputeNodes:     2,
		SuspectThreshold: -1,
		Tables:           []TableSpec{{Name: "kv", ValueSize: 16, Capacity: 1024}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.LoadN("kv", 32, func(k Key) []byte { return hotValue(uint64(k)) }); err != nil {
		t.Fatal(err)
	}
	return c
}

// primaryOf returns the memory-server index of key's primary.
func primaryOf(c *Cluster, key Key) int {
	ring := c.Engine(0).Ring()
	return c.MemoryIndex(ring.Replicas(ring.Partition(key))[0])
}

// auditLockStep requires that no slot of the table is locked.
func auditLockStep(t *testing.T, c *Cluster) {
	t.Helper()
	rep, err := c.CheckConsistency("kv")
	if err != nil {
		t.Fatal(err)
	}
	if rep.LockedSlots != 0 {
		t.Errorf("%d slots left locked by a live coordinator", rep.LockedSlots)
	}
}

// healOnSuspect makes node 0's coordinators heal the link to mem the
// moment they report it — after the faulted verb was classified, before
// the abort's cleanup posts its first release.
func healOnSuspect(c *Cluster, mem int) {
	c.Engine(0).SetSuspectReporter(func(rdma.NodeID) { c.HealLink(0, mem) })
}

// faultAtLockStep arms node 0, at the next PointBeforeLock offer, so
// that the lock step's doorbell meets a link fault on the way to mem:
// landed = 0 faults every op;
// landed = 1 lets the first op (the lock CAS) land and faults the one
// behind it (the slot READ). The CAS is parked on a stalled link, the
// stall is replaced by a partition while it is parked, and a heal of
// another link wakes it: admitted under the stall, it lands, and the READ
// behind it meets the partition.
func faultAtLockStep(t *testing.T, c *Cluster, mem, landed int) {
	t.Helper()
	eng := c.Engine(0)
	healOnSuspect(c, mem)
	armed := true
	eng.SetInjector(func(_ kvlayout.CoordID, p core.CrashPoint) bool {
		if !armed || p != core.PointBeforeLock {
			return false
		}
		armed = false
		if landed == 0 {
			c.PartitionLink(0, mem)
			return false
		}
		stalled := c.LinkStats().StalledVerbs
		c.StallLink(0, mem)
		go func() {
			for c.LinkStats().StalledVerbs == stalled {
				runtime.Gosched()
			}
			c.PartitionLink(0, mem)
			c.HealLink(1, mem) // no rule there: only wakes the parked CAS
		}()
		return false
	})
	t.Cleanup(func() { eng.SetInjector(nil); c.HealAllLinks() })
}

// TestLockDoorbellFaults link-faults the lock doorbell of an update, a
// delete and an insert: every op faults, or the CAS lands and the READ
// behind it faults. Either way the step must abort as a fault and leave
// nothing locked. Fails if postLock looks at the stage's verdict before
// recording lockOp.Swapped on the entry (the PR 1 leak: the CAS took a
// lock no release path knows about).
func TestLockDoorbellFaults(t *testing.T) {
	const key, fresh = Key(7), Key(500)
	const nops = 2 // the doorbell: lock CAS, slot READ
	ops := []struct {
		name string
		key  Key
		do   func(tx *Tx) error
	}{
		{"update", key, func(tx *Tx) error { return tx.Write("kv", key, hotValue(1)) }},
		{"delete", key, func(tx *Tx) error { return tx.Delete("kv", key) }},
		{"insert", fresh, func(tx *Tx) error { return tx.Insert("kv", fresh, hotValue(1)) }},
	}
	for _, op := range ops {
		for landed := 0; landed <= 1; landed++ {
			t.Run(fmt.Sprintf("%s/landed=%d", op.name, landed), func(t *testing.T) {
				c := lockstepCluster(t)
				sess := c.Session(0, 0)
				// Warm the address cache so the fault meets the lock doorbell,
				// not the resolve before it.
				if err := sess.Update(0, func(tx *Tx) error { _, err := tx.Read("kv", key); return err }); err != nil {
					t.Fatal(err)
				}
				mem := primaryOf(c, op.key)
				faultAtLockStep(t, c, mem, landed)
				before := c.LinkStats().PartitionDrops
				tx := sess.Begin()
				err := op.do(tx)
				if kind, ok := AbortKindOf(err); !ok || kind != metrics.AbortFault || !tx.AbortAcked() {
					t.Fatalf("lock step returned %v (abort acked %t), want an acked abort of kind fault", err, tx.AbortAcked())
				}
				if drops := c.LinkStats().PartitionDrops - before; drops != int64(nops-landed) {
					t.Fatalf("%d ops met the partition, want %d", drops, nops-landed)
				}
				auditLockStep(t, c)
				// The object is as it was and lockable again.
				if err := c.Session(1, 0).Update(2, func(tx *Tx) error { return op.do(tx) }); err != nil {
					t.Fatalf("survivor cannot redo the operation: %v", err)
				}
			})
		}
	}
}

// squatterOf returns an absent key with key's home slot in key's
// partition: inserted after key's delete, it takes over the tombstoned
// slot, so a re-insert of key lands further down the chain.
func squatterOf(t *testing.T, c *Cluster, key Key) Key {
	t.Helper()
	ring, tab := c.Engine(0).Ring(), c.schema[c.tableID["kv"]]
	for k := Key(1000); k < 1<<20; k++ {
		if ring.Partition(k) == ring.Partition(key) && tab.HomeSlot(k) == tab.HomeSlot(key) {
			return k
		}
	}
	t.Fatal("no key collides with the given one")
	return 0
}

// The settle path (DESIGN.md §16 "The lock step"): a write posts its lock
// doorbell and returns; the transaction waits for every posted doorbell at
// Commit, and settles them in write-set order. Whatever the first entry's
// settle meets, the second's lock — taken at Write, outcome unread — must
// end up released or committed, never left behind.

// readHot returns key's value as a survivor on node 1 reads it, retrying
// past a stale read-cache hit.
func readHot(t *testing.T, c *Cluster, key Key) uint64 {
	t.Helper()
	var v []byte
	if err := c.Session(1, 0).Update(3, func(tx *Tx) (err error) { v, err = tx.Read("kv", key); return err }); err != nil {
		t.Fatal(err)
	}
	return binary.LittleEndian.Uint64(v)
}

// primaryVersion returns the version key's slot carries on its primary.
func primaryVersion(t *testing.T, c *Cluster, key Key) uint64 {
	t.Helper()
	ring := c.Engine(0).Ring()
	p := ring.Partition(key)
	var version uint64
	found := false
	err := c.memByID(ring.Replicas(p)[0]).ScanSlots(c.tableID["kv"], p, func(_ uint64, sl kvlayout.Slot, _ uint64) {
		if sl.Present && sl.Key == key {
			version, found = sl.Version, true
		}
	})
	if err != nil || !found {
		t.Fatalf("key %d not on its primary (%v)", key, err)
	}
	return version
}

// TestSettleConflictReleasesOutstanding: the first write's lock is held by
// a running transaction; the second's doorbell is still outstanding when
// the first settles into a conflict. The abort must release the second's
// lock, which its CAS took at Write, so another coordinator can take it.
func TestSettleConflictReleasesOutstanding(t *testing.T) {
	c := lockstepCluster(t)
	const a, b = Key(7), Key(8)
	holder := c.Session(1, 0).Begin()
	if err := holder.Write("kv", a, hotValue(100)); err != nil {
		t.Fatal(err)
	}
	tx := c.Session(0, 0).Begin()
	for _, k := range []Key{a, b} {
		if err := tx.Write("kv", k, hotValue(200)); err != nil {
			t.Fatalf("write of key %d returned %v: a posted lock reports nothing before Commit", k, err)
		}
	}
	if rep, err := c.CheckConsistency("kv"); err != nil || rep.LockedSlots != 2 {
		t.Fatalf("%d slots locked before Commit (%v), want 2: the holder's and the second write's", rep.LockedSlots, err)
	}
	err := tx.Commit()
	if kind, ok := AbortKindOf(err); !ok || kind != metrics.AbortLockConflict || !tx.AbortAcked() {
		t.Fatalf("commit returned %v (abort acked %t), want an acked lock-conflict abort", err, tx.AbortAcked())
	}
	if err := holder.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := c.Session(1, 0).Update(0, func(tx *Tx) error { return tx.Write("kv", b, hotValue(300)) }); err != nil {
		t.Fatalf("another coordinator cannot lock the second key: %v", err)
	}
	auditLockStep(t, c)
	if got := readHot(t, c, b); got != 300 {
		t.Fatalf("key %d = %d, want 300", b, got)
	}
}

// TestSettleMovedSlotKeepsOrder: the first write's slot moved between the
// address cache's resolve and the lock — the key was deleted, a squatter
// took its slot and the key came back further down the chain — while a
// second entry is registered behind it. Settling the first must drop that
// entry, not the last one, and lock it again at its new slot; the commit
// applies both keys.
func TestSettleMovedSlotKeepsOrder(t *testing.T) {
	c := lockstepCluster(t)
	const a, b = Key(7), Key(8)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	sess, other := c.Session(0, 0), c.Session(1, 0)
	// Node 0 resolves both keys; node 1 then moves a.
	must(sess.Update(0, func(tx *Tx) error {
		for _, k := range []Key{a, b} {
			if _, err := tx.Read("kv", k); err != nil {
				return err
			}
		}
		return nil
	}))
	must(other.Update(0, func(tx *Tx) error { return tx.Delete("kv", a) }))
	must(other.Update(0, func(tx *Tx) error { return tx.Insert("kv", squatterOf(t, c, a), hotValue(1)) }))
	must(other.Update(0, func(tx *Tx) error { return tx.Insert("kv", a, hotValue(100)) }))

	versions := []uint64{primaryVersion(t, c, a), primaryVersion(t, c, b)}
	before := c.MetricsSnapshot()
	tx := sess.Begin()
	must(tx.Write("kv", a, hotValue(200)))
	must(tx.Write("kv", b, hotValue(201)))
	must(tx.Commit())
	// Each key's version steps by one: the second entry was settled too —
	// its undo state captured — although the first was locked again.
	for i, k := range []Key{a, b} {
		if got := primaryVersion(t, c, k); got != versions[i]+1 {
			t.Fatalf("key %d at version %d after the commit, want %d", k, got, versions[i]+1)
		}
	}
	// The stale doorbell took the squatter's lock, the move dropped it,
	// and a's lock was taken again: three lock CASes in all.
	cas := uint64(0)
	for _, v := range c.MetricsSnapshot().Sub(before).Verbs {
		if v.Verb == "CAS" {
			cas += v.Issued
		}
	}
	if cas != 3 {
		t.Fatalf("%d lock CASes, want 3: the first write's slot did not move under its lock", cas)
	}
	if got, want := []uint64{readHot(t, c, a), readHot(t, c, b)}, []uint64{200, 201}; !slices.Equal(got, want) {
		t.Fatalf("keys %d, %d = %v, want %v", a, b, got, want)
	}
	auditLockStep(t, c)
}

// TestSettleKeyGoneAborts: the first write's key was deleted after the
// address cache resolved it. Its Write has returned nil, so the settle
// that finds the key gone cannot answer ErrNotFound: the commit aborts as
// a validation failure, releasing the second write's lock.
func TestSettleKeyGoneAborts(t *testing.T) {
	c := lockstepCluster(t)
	const a, b = Key(7), Key(8)
	sess := c.Session(0, 0)
	if err := sess.Update(0, func(tx *Tx) error { _, err := tx.Read("kv", a); return err }); err != nil {
		t.Fatal(err)
	}
	if err := c.Session(1, 0).Update(0, func(tx *Tx) error { return tx.Delete("kv", a) }); err != nil {
		t.Fatal(err)
	}
	tx := sess.Begin()
	for _, k := range []Key{a, b} {
		if err := tx.Write("kv", k, hotValue(200)); err != nil {
			t.Fatalf("write of key %d returned %v: a posted lock reports nothing before Commit", k, err)
		}
	}
	err := tx.Commit()
	if kind, ok := AbortKindOf(err); !ok || kind != metrics.AbortValidationVersion || !tx.AbortAcked() {
		t.Fatalf("commit returned %v (abort acked %t), want an acked validation abort", err, tx.AbortAcked())
	}
	auditLockStep(t, c)
	if got := readHot(t, c, b); got != 8 {
		t.Fatalf("key %d = %d, want its loaded value 8", b, got)
	}
}

// TestSettleReadFaultAfterCAS: the second write's lock doorbell meets a
// link fault between its ops — the CAS lands, the slot READ behind it
// faults. Write returns nil, since nothing is read before the wait; the
// entry already records the lock, so the commit's settle aborts as a
// fault and the abort tail releases both locks.
func TestSettleReadFaultAfterCAS(t *testing.T) {
	c := lockstepCluster(t)
	const a = Key(7)
	b := Key(8)
	for primaryOf(c, b) == primaryOf(c, a) {
		b++
	}
	mem := primaryOf(c, b)
	sess := c.Session(0, 0)
	// Warm the address cache so the fault meets the lock doorbell, not the
	// resolve before it.
	if err := sess.Update(0, func(tx *Tx) error { _, err := tx.Read("kv", b); return err }); err != nil {
		t.Fatal(err)
	}
	healOnSuspect(c, mem)
	t.Cleanup(c.HealAllLinks)
	tx := sess.Begin()
	if err := tx.Write("kv", a, hotValue(200)); err != nil {
		t.Fatal(err)
	}
	// The CAS parks on a stalled link; the stall is replaced by a partition
	// while it is parked and a heal of another link wakes it: admitted
	// under the stall, it lands, and the READ behind it meets the partition.
	before := c.LinkStats()
	c.StallLink(0, mem)
	go func() {
		for c.LinkStats().StalledVerbs == before.StalledVerbs {
			runtime.Gosched()
		}
		c.PartitionLink(0, mem)
		c.HealLink(1, mem) // no rule there: only wakes the parked CAS
	}()
	if err := tx.Write("kv", b, hotValue(201)); err != nil {
		t.Fatalf("write returned %v: a posted lock reports nothing before Commit", err)
	}
	if drops := c.LinkStats().PartitionDrops - before.PartitionDrops; drops != 1 {
		t.Fatalf("%d ops met the partition, want 1 (the slot READ)", drops)
	}
	err := tx.Commit()
	if kind, ok := AbortKindOf(err); !ok || kind != metrics.AbortFault || !tx.AbortAcked() {
		t.Fatalf("commit returned %v (abort acked %t), want an acked abort of kind fault", err, tx.AbortAcked())
	}
	auditLockStep(t, c)
	if err := c.Session(1, 0).Update(2, func(tx *Tx) error { return tx.Write("kv", b, hotValue(300)) }); err != nil {
		t.Fatalf("survivor cannot lock the faulted key: %v", err)
	}
}
