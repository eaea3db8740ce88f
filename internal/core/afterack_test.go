package core

import (
	"errors"
	"testing"

	"pandora/internal/kvlayout"
	"pandora/internal/metrics"
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
