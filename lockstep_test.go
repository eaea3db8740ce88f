package pandora

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"pandora/internal/core"
	"pandora/internal/hotlock"
	"pandora/internal/kvlayout"
	"pandora/internal/metrics"
	"pandora/internal/rdma"
)

// The lock step's obligations, pinned from outside the engine. A write
// entry joins the write set before its lock doorbell is posted and owns
// what the doorbell took — the lock, a lane ticket — so whichever way
// the step ends, nothing may be left behind: no lock word held by a live
// coordinator, no lane whose head trails its tail. The tests below fault
// the doorbell op by op and abandon a queued wait every way it can be
// abandoned, then audit exactly that. They replace the lockpair and
// lanedebt dataflow passes (DESIGN.md §10): each names the mutation of
// internal/core it fails under.

// lockstepCluster is hotCluster with suspicion escalation off, so an
// injected partition stays a link fault instead of becoming a dead node.
func lockstepCluster(t *testing.T, threshold int) *Cluster {
	t.Helper()
	c, err := New(Config{
		ComputeNodes:     2,
		HotlockThreshold: threshold,
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

// primaryOf returns the memory-server index of key's primary and the
// ticket lane serving key there.
func primaryOf(c *Cluster, key Key) (mem int, lane hotlock.Lane) {
	ring := c.Engine(0).Ring()
	p := ring.Partition(key)
	primary := ring.Replicas(p)[0]
	return c.MemoryIndex(primary), hotlock.LaneFor(primary, p, c.tableID["kv"], key)
}

// auditLockStep requires that no slot of the table is locked and that
// every given key's lane has been paid in full.
func auditLockStep(t *testing.T, c *Cluster, keys ...Key) {
	t.Helper()
	rep, err := c.CheckConsistency("kv")
	if err != nil {
		t.Fatal(err)
	}
	if rep.LockedSlots != 0 {
		t.Errorf("%d slots left locked by a live coordinator", rep.LockedSlots)
	}
	ep := c.fab.Endpoint(c.Engine(1).ID())
	for _, key := range keys {
		_, lane := primaryOf(c, key)
		var head, tail [8]byte
		if err := errors.Join(ep.Read(lane.Head, head[:]), ep.Read(lane.Tail, tail[:])); err != nil {
			t.Fatal(err)
		}
		if h, tl := kvlayout.Uint64(head[:]), kvlayout.Uint64(tail[:]); h != tl {
			t.Errorf("key %d: lane head %d trails tail %d: a ticket was never paid", key, h, tl)
		}
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
// landed = 1 lets the first op (the lock CAS) land and faults the rest
// (the slot READ, a ticket FAA). The CAS is parked on a stalled link,
// the stall is replaced by a partition while it is parked, and a heal of
// another link wakes it: admitted under the stall, it lands, and the ops
// behind it meet the partition.
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
	ops := []struct {
		name string
		key  Key
		hot  bool // the key is promoted: the doorbell carries the ticket FAA as its third op
		do   func(tx *Tx) error
	}{
		{"update", key, false, func(tx *Tx) error { return tx.Write("kv", key, hotValue(1)) }},
		{"delete", key, false, func(tx *Tx) error { return tx.Delete("kv", key) }},
		{"insert", fresh, false, func(tx *Tx) error { return tx.Insert("kv", fresh, hotValue(1)) }},
		{"hot-update", key, true, func(tx *Tx) error { return tx.Write("kv", key, hotValue(1)) }},
	}
	for _, op := range ops {
		for landed := 0; landed <= 1; landed++ {
			t.Run(fmt.Sprintf("%s/landed=%d", op.name, landed), func(t *testing.T) {
				c := lockstepCluster(t, 1)
				sess, nops := c.Session(0, 0), int64(2)
				// Warm the address cache so the fault meets the lock doorbell,
				// not the resolve before it.
				if err := sess.Update(0, func(tx *Tx) error { _, err := tx.Read("kv", key); return err }); err != nil {
					t.Fatal(err)
				}
				if op.hot {
					nops = 3
					if err := promote(t, c.Session(1, 0), sess, key).Commit(); err != nil {
						t.Fatal(err)
					}
				}
				mem, _ := primaryOf(c, op.key)
				faultAtLockStep(t, c, mem, landed)
				before := c.LinkStats().PartitionDrops
				tx := sess.Begin()
				err := op.do(tx)
				if kind, ok := AbortKindOf(err); !ok || kind != metrics.AbortFault || !tx.AbortAcked() {
					t.Fatalf("lock step returned %v (abort acked %t), want an acked abort of kind fault", err, tx.AbortAcked())
				}
				if drops := c.LinkStats().PartitionDrops - before; drops != nops-int64(landed) {
					t.Fatalf("%d ops met the partition, want %d", drops, nops-int64(landed))
				}
				auditLockStep(t, c, op.key)
				// The object is as it was and lockable again.
				if err := c.Session(1, 0).Update(2, func(tx *Tx) error { return op.do(tx) }); err != nil {
					t.Fatalf("survivor cannot redo the operation: %v", err)
				}
			})
		}
	}
}

// promote runs one doomed attempt of waiter against a key that holder has
// locked: with HotlockThreshold 1 the conflict promotes the key in the
// waiter's tracker, so its next lock doorbell carries the ticket FAA.
func promote(t *testing.T, holder, waiter *Session, key Key) *Tx {
	t.Helper()
	htx := holder.Begin()
	if err := htx.Write("kv", key, hotValue(100)); err != nil {
		t.Fatal(err)
	}
	if err := waiter.Update(0, func(tx *Tx) error { return tx.Write("kv", key, hotValue(200)) }); !IsAborted(err) {
		t.Fatalf("promoting conflict: %v", err)
	}
	return htx
}

// TestTicketLandsCASLoses: the doorbell's ticket FAA lands while its CAS
// loses to a live holder; the wait that follows is cut short by a link
// fault. The abort has no lock to release — but it owes the lane a head
// advance. Fails if abortCause stops paying the tickets of unlocked
// entries.
func TestTicketLandsCASLoses(t *testing.T) {
	c := lockstepCluster(t, 1)
	const key = Key(7)
	waiter := c.Session(0, 0)
	htx := promote(t, c.Session(1, 0), waiter, key)
	mem, _ := primaryOf(c, key)
	healOnSuspect(c, mem)
	releaseAtSpin(t, waiter.CoordinatorID(), key, 1, func() { c.PartitionLink(0, mem) })

	tx := waiter.Begin()
	err := tx.Write("kv", key, hotValue(200))
	if kind, ok := AbortKindOf(err); !ok || kind != metrics.AbortFault || !tx.AbortAcked() {
		t.Fatalf("queued wait under a partition returned %v, want an acked abort of kind fault", err)
	}
	if err := htx.Commit(); err != nil {
		t.Fatal(err)
	}
	auditLockStep(t, c, key)
}

// TestAbandonedQueuedWait abandons a queued wait the three ways that do
// not involve a fault — the poll budget runs out; the slot moved under
// the lock and the key is re-resolved to another slot; the key is gone —
// and requires the ticket paid each time. Fails if dropEntry (moved,
// gone) or abortCause (timeout) stops calling payTicket.
func TestAbandonedQueuedWait(t *testing.T) {
	// The key whose lock is contended, and an absent key with the same
	// home slot in the same partition: inserted after key's delete it
	// takes over the tombstoned slot, so a re-insert of key lands further
	// down the chain.
	const key = Key(7)
	squatter := func(c *Cluster) Key { return squatterOf(t, c, key) }
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	t.Run("timeout", func(t *testing.T) {
		c := lockstepCluster(t, 1)
		waiter := c.Session(0, 0)
		htx := promote(t, c.Session(1, 0), waiter, key)
		before := c.MetricsSnapshot()
		err := waiter.Update(0, func(tx *Tx) error { return tx.Write("kv", key, hotValue(200)) })
		if kind, ok := AbortKindOf(err); !ok || kind != metrics.AbortLockConflict {
			t.Fatalf("exhausted wait returned %v, want a lock-conflict abort", err)
		}
		if got := c.MetricsSnapshot().Sub(before).LockCount(metrics.LockQueueTimeout); got != 1 {
			t.Fatalf("queue timeouts = %d, want 1", got)
		}
		must(htx.Commit())
		auditLockStep(t, c, key)
	})

	t.Run("moved", func(t *testing.T) {
		c := lockstepCluster(t, 1)
		holder, waiter := c.Session(1, 0), c.Session(0, 0)
		htx := promote(t, holder, waiter, key)
		// While the waiter polls: the holder deletes the key, the squatter
		// takes its slot, the key comes back elsewhere.
		releaseAtSpin(t, waiter.CoordinatorID(), key, 1, func() {
			must(htx.Delete("kv", key))
			must(htx.Commit())
			must(holder.Update(0, func(tx *Tx) error { return tx.Insert("kv", squatter(c), hotValue(1)) }))
			must(holder.Update(0, func(tx *Tx) error { return tx.Insert("kv", key, hotValue(300)) }))
		})
		must(waiter.Update(0, func(tx *Tx) error { return tx.Write("kv", key, hotValue(200)) }))
		// Two tickets were taken — one abandoned with the stale slot, one
		// that rode the re-resolved slot's lock into the commit tail.
		_, lane := primaryOf(c, key)
		var tail [8]byte
		must(c.fab.Endpoint(c.Engine(1).ID()).Read(lane.Tail, tail[:]))
		if got := kvlayout.Uint64(tail[:]); got != 2 {
			t.Fatalf("lane tail = %d, want 2: the slot did not move under the waiter", got)
		}
		auditLockStep(t, c, key)
	})

	t.Run("gone", func(t *testing.T) {
		c := lockstepCluster(t, 1)
		waiter := c.Session(0, 0)
		htx := promote(t, c.Session(1, 0), waiter, key)
		releaseAtSpin(t, waiter.CoordinatorID(), key, 1, func() {
			must(htx.Delete("kv", key))
			must(htx.Commit())
		})
		tx := waiter.Begin()
		if err := tx.Write("kv", key, hotValue(200)); !errors.Is(err, ErrNotFound) {
			t.Fatalf("write of the deleted key returned %v, want ErrNotFound", err)
		}
		if tx.Done() || tx.WriteSetSize() != 0 {
			t.Fatalf("ErrNotFound must leave the transaction open with the entry dropped (done %t, write set %d)", tx.Done(), tx.WriteSetSize())
		}
		must(tx.Abort())
		auditLockStep(t, c, key)
	})
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
	c := lockstepCluster(t, 1)
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
	auditLockStep(t, c, a, b)
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
	c := lockstepCluster(t, 1)
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
	auditLockStep(t, c, a, b)
}

// TestSettleKeyGoneAborts: the first write's key was deleted after the
// address cache resolved it. Its Write has returned nil, so the settle
// that finds the key gone cannot answer ErrNotFound: the commit aborts as
// a validation failure, releasing the second write's lock.
func TestSettleKeyGoneAborts(t *testing.T) {
	c := lockstepCluster(t, 1)
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
	auditLockStep(t, c, a, b)
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
	c := lockstepCluster(t, 1)
	const a = Key(7)
	memA, _ := primaryOf(c, a)
	b := Key(8)
	for memB, _ := primaryOf(c, b); memB == memA; memB, _ = primaryOf(c, b) {
		b++
	}
	mem, _ := primaryOf(c, b)
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
	auditLockStep(t, c, a, b)
	if err := c.Session(1, 0).Update(2, func(tx *Tx) error { return tx.Write("kv", b, hotValue(300)) }); err != nil {
		t.Fatalf("survivor cannot lock the faulted key: %v", err)
	}
}
