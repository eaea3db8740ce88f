package core

import (
	"errors"
	"slices"
	"testing"
	"time"

	"pandora/internal/kvlayout"
	"pandora/internal/metrics"
	"pandora/internal/rdma"
)

// TestAckedCommitNeverAborts: once the client has been acknowledged,
// nothing may abort (Cor3). The tail of an acked commit is link-faulted
// until the cleanup budget runs out — in the synchronous mode while
// Commit is still running it, in AsyncCommitBack mode while the drain
// is. Sync, Commit returns ErrIndeterminate with AckedCommit set; async,
// Commit has long returned nil and the drain counts a failure. Neither
// ever sets AckedAbort, and the lock the tail could not release is still
// there for recovery. This replaces the lockpair pass's ack obligation:
// it fails if afterAck's failure arm goes anywhere but postAckFailure
// (say, verbFailure — which would abort), or if a tail is built and
// neither run nor enqueued.
func TestAckedCommitNeverAborts(t *testing.T) {
	defer func(n int) { cleanupMaxAttempts = n }(cleanupMaxAttempts)
	cleanupMaxAttempts = 3
	for _, async := range []bool{false, true} {
		reg := metrics.New()
		e := newEnv(t, envConfig{opts: Options{AsyncCommitBack: async, Metrics: reg}})
		e.preload(t, 0, 8, func(k kvlayout.Key) []byte { return val16(k, 0) })
		cn := e.nodes[0]
		// Partition every link of the node the moment the ack stage is
		// reached: the injector is the one hook between apply and tail.
		cn.SetInjector(func(_ kvlayout.CoordID, p CrashPoint) bool {
			if p == PointAfterAck {
				for _, m := range e.mems {
					e.fab.PartitionLink(cn.ID(), m.ID())
				}
			}
			return false
		})
		tx := cn.Coordinator(0).Begin()
		if err := tx.Write(0, 3, []byte("acked")); err != nil {
			t.Fatal(err)
		}
		err := tx.Commit()
		if async {
			if err != nil {
				t.Fatalf("async: commit returned %v, want nil at the ack", err)
			}
			cn.FlushDrains()
			if got := reg.Snapshot().Drain.Failures; got != 1 {
				t.Fatalf("async: drain failures = %d, want 1", got)
			}
		} else if !errors.Is(err, ErrIndeterminate) {
			t.Fatalf("sync: commit returned %v, want ErrIndeterminate", err)
		}
		if !tx.AckedCommit || tx.AckedAbort || errors.Is(err, ErrAborted) {
			t.Fatalf("async=%t: acked commit %t, acked abort %t, err %v", async, tx.AckedCommit, tx.AckedAbort, err)
		}
		if !tx.Done() {
			t.Fatalf("async=%t: transaction not finished", async)
		}
		for r := metrics.AbortReason(0); r < metrics.NumAbortReasons; r++ {
			if n := reg.Snapshot().AbortCount(r); n != 0 {
				t.Fatalf("async=%t: %d aborts of kind %s were attempted after the ack", async, n, r)
			}
		}
		cn.SetInjector(nil)
		e.fab.HealAllLinks()
		if n := e.lockedSlots(t, 0); n != 1 {
			t.Fatalf("async=%t: %d locked slots, want the one the abandoned tail left to recovery", async, n)
		}
		// The write itself is committed on every replica.
		if v, err := readKeyStray(t, e, 3); err != nil || string(v[:5]) != "acked" {
			t.Fatalf("async=%t: key 3 = (%q, %v), want the acked value", async, v, err)
		}
	}
}

// readKeyStray reads key from table 0 straight off its primary, lock
// word and all — for states a transactional read would conflict with.
func readKeyStray(t *testing.T, e *env, key kvlayout.Key) ([]byte, error) {
	t.Helper()
	p := e.ring.Partition(key)
	var val []byte
	err := e.mem(e.ring.Replicas(p)[0]).ScanSlots(0, p, func(_ uint64, sl kvlayout.Slot, _ uint64) {
		if sl.Present && sl.Key == key {
			val = append([]byte(nil), sl.Value...)
		}
	})
	if val == nil && err == nil {
		err = ErrNotFound
	}
	return val, err
}

// TestAbortNeverAckedBeforeRelease is Cor3's dual: an abort whose
// truncate | release tail cannot complete must not be acknowledged — the
// locks are still held, and a client told "aborted" could watch recovery
// roll the logged transaction forward. It replaces abortcause's flow
// rule (the abortError is constructed only after the tail has run): it
// fails if abortInternal acknowledges before, or regardless of, the
// tail's result.
func TestAbortNeverAckedBeforeRelease(t *testing.T) {
	defer func(n int) { cleanupMaxAttempts = n }(cleanupMaxAttempts)
	cleanupMaxAttempts = 3
	e := newEnv(t, envConfig{})
	e.preload(t, 0, 8, func(k kvlayout.Key) []byte { return val16(k, 0) })
	cn := e.nodes[0]
	tx := cn.Coordinator(0).Begin()
	if err := tx.Write(0, 3, []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	for _, m := range e.mems {
		e.fab.PartitionLink(cn.ID(), m.ID())
	}
	err := tx.Abort()
	if !errors.Is(err, ErrIndeterminate) || errors.Is(err, ErrAborted) || tx.AckedAbort || tx.AckedCommit {
		t.Fatalf("abort with an unreleasable lock returned %v (acked abort %t), want ErrIndeterminate and no ack", err, tx.AckedAbort)
	}
	e.fab.HealAllLinks()
	if n := e.lockedSlots(t, 0); n != 1 {
		t.Fatalf("%d locked slots, want the one the abort could not release", n)
	}
}

// TestPostedTailFaultWaitsThenReposts: a synchronous commit's tail is
// posted at the ack and waited for only when a completion is not
// tolerated (DESIGN.md §16 "Post at the ack, paid by the next
// doorbell"). A partition installed as the tail stage is built fails its
// release WRITE — the key's primary is no log server, so the truncations
// land. The coordinator then waits, paying the round a waited tail pays,
// and the cleanup discipline re-posts the release once the suspicion
// report heals the link. Commit returns nil with the commit acked, no
// lock is left when it returns, nothing is outstanding, and the clock
// shows the two rounds a clean commit does not pay before it returns:
// the wait and the re-post. A link that never heals ends in
// ErrIndeterminate with the commit still acked.
func TestPostedTailFaultWaitsThenReposts(t *testing.T) {
	e := newEnv(t, envConfig{memNodes: 4, latency: rdma.LatencyModel{BaseRTT: 2 * time.Microsecond}})
	e.preload(t, 0, 64, func(k kvlayout.Key) []byte { return val16(k, 0) })
	cn := e.nodes[0]
	co := cn.Coordinator(0)
	key := kvlayout.Key(0)
	for slices.Contains(co.LogServers(), e.ring.Replicas(e.ring.Partition(key))[0]) {
		key++
	}
	primary := e.ring.Replicas(e.ring.Partition(key))[0]
	clk := &rdma.VClock{}
	co.WithClock(clk)
	rtt := e.fab.Latency().BaseRTT
	commit := func(s int) (*Tx, time.Duration, error) {
		co.ep.Wait() // the previous commit's tail is not this one's to pay
		start := clk.Now()
		tx := co.Begin()
		if err := tx.Write(0, key, val16(key, s)); err != nil {
			t.Fatal(err)
		}
		err := tx.Commit()
		return tx, clk.Now() - start, err
	}
	if _, _, err := commit(1); err != nil { // warms the address cache
		t.Fatal(err)
	}
	_, clean, err := commit(2)
	if err != nil || !co.Outstanding() {
		t.Fatalf("clean commit: %v, tail outstanding %t; want nil, true", err, co.Outstanding())
	}

	cn.plan.rewrite = func(_ *Tx, st stage) stage {
		if st.kind == stageTail {
			e.fab.PartitionLink(cn.ID(), primary)
		}
		return st
	}
	cn.SetSuspectReporter(func(n rdma.NodeID) { e.fab.HealLink(cn.ID(), n) })
	drops := e.fab.LinkStats().PartitionDrops
	tx, cost, err := commit(3)
	if err != nil || !tx.AckedCommit || tx.AckedAbort {
		t.Fatalf("faulted tail: commit returned %v (acked commit %t, acked abort %t), want nil and acked", err, tx.AckedCommit, tx.AckedAbort)
	}
	if n := e.fab.LinkStats().PartitionDrops - drops; n != 1 {
		t.Fatalf("%d verbs met the partition, want the release WRITE alone", n)
	}
	if n := e.lockedSlots(t, 0); n != 0 {
		t.Fatalf("%d locked slots when Commit returned, want 0", n)
	}
	if co.Outstanding() {
		t.Fatal("a tail that met a fault was left outstanding; it must be waited for")
	}
	if extra := cost - clean; extra/rtt != 2 {
		t.Fatalf("the faulted commit cost %v over a clean one (%v), want two round trips: the wait and the re-post", extra, clean)
	}

	// A link that never heals exhausts the cleanup budget: the acked
	// commit surfaces ErrIndeterminate through postAckFailure, as a
	// waited tail does, and leaves its lock to recovery.
	defer func(n int) { cleanupMaxAttempts = n }(cleanupMaxAttempts)
	cleanupMaxAttempts = 3
	cn.SetSuspectReporter(nil)
	tx, _, err = commit(4)
	if !errors.Is(err, ErrIndeterminate) || !tx.AckedCommit || tx.AckedAbort || errors.Is(err, ErrAborted) {
		t.Fatalf("unhealed tail: commit returned %v (acked commit %t, acked abort %t), want ErrIndeterminate and acked", err, tx.AckedCommit, tx.AckedAbort)
	}
	e.fab.HealAllLinks()
	if n := e.lockedSlots(t, 0); n != 1 {
		t.Fatalf("%d locked slots, want the one the unhealed tail left to recovery", n)
	}
}
