package recovery

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"pandora/internal/core"
	"pandora/internal/kvlayout"
	"pandora/internal/place"
	"pandora/internal/rdma"
)

func TestDoubleComputeFailure(t *testing.T) {
	// Two compute nodes fail one after the other; recovery handles each
	// independently and the third keeps going.
	e := newEnv(t, envConfig{computes: 3})
	e.preload(t, 32)

	for victim := 0; victim < 2; victim++ {
		cn := e.nodes[victim]
		cn.SetInjector(func(_ kvlayout.CoordID, p core.CrashPoint) bool { return p == core.PointAfterLog })
		tx := cn.Coordinator(0).Begin()
		if err := tx.Write(0, kvlayout.Key(victim), []byte("doomed")); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); !errors.Is(err, rdma.ErrCrashed) {
			t.Fatalf("victim %d commit err = %v", victim, err)
		}
		ev := e.failNode(t, victim)
		stats, err := e.mgr.RecoverCompute(ev)
		if err != nil {
			t.Fatal(err)
		}
		if stats.RolledBack != 1 {
			t.Fatalf("victim %d stats %+v", victim, stats)
		}
	}
	// The survivor sees intact values and can write everything.
	for k := kvlayout.Key(0); k < 2; k++ {
		if got := e.mustRead(t, 2, k); !bytes.Equal(got, pad16(initVal(k))) {
			t.Fatalf("key %d = %q", k, got)
		}
		e.mustWrite(t, 2, k, []byte("third-node"))
	}
}

func TestConcurrentVictimCoordinators(t *testing.T) {
	// Several coordinators of the same node crash holding logged
	// transactions on different keys; one recovery handles all of them.
	const coords = 6
	e := newEnv(t, envConfig{coordsPer: coords})
	e.preload(t, 64)
	victim := e.nodes[0]
	victim.SetInjector(func(_ kvlayout.CoordID, p core.CrashPoint) bool { return p == core.PointAfterLog })

	done := make(chan error, coords)
	for i := 0; i < coords; i++ {
		go func(i int) {
			tx := victim.Coordinator(i).Begin()
			if err := tx.Write(0, kvlayout.Key(i), []byte("doomed")); err != nil {
				done <- err
				return
			}
			done <- tx.Commit()
		}(i)
	}
	crashed := 0
	for i := 0; i < coords; i++ {
		if errors.Is(<-done, rdma.ErrCrashed) {
			crashed++
		}
	}
	if crashed == 0 {
		t.Fatal("no coordinator crashed")
	}

	ev := e.failNode(t, 0)
	stats, err := e.mgr.RecoverCompute(ev)
	if err != nil {
		t.Fatal(err)
	}
	if stats.LoggedTxs == 0 {
		t.Fatalf("stats %+v: expected logged txs from parked coordinators", stats)
	}
	for k := kvlayout.Key(0); k < coords; k++ {
		if got := e.mustRead(t, 1, k); !bytes.Equal(got, pad16(initVal(k))) {
			t.Fatalf("key %d = %q after multi-coordinator recovery", k, got)
		}
		e.mustWrite(t, 1, k, []byte("freed"))
	}
}

func TestLogServerDeathDuringRecovery(t *testing.T) {
	// One of the f+1 log servers dies before recovery reads the logs;
	// the surviving copy suffices (that is why there are f+1).
	e := newEnv(t, envConfig{})
	e.preload(t, 16)
	runDoomed(t, e.nodes[0], core.PointAfterLog)
	ev := e.failNode(t, 0)

	logServers := e.ring.LogServers(e.nodes[0].ID())
	for _, srv := range e.mems {
		if srv.ID() == logServers[0] {
			srv.Crash()
		}
	}
	// The surviving nodes must know about the memory failure too, or
	// their primaries may point at the dead server.
	e.mgr.Update(func(v *place.View) *place.View { return v.WithDead(logServers[0], true) })

	stats, err := e.mgr.RecoverCompute(ev)
	if err != nil {
		t.Fatal(err)
	}
	if stats.LoggedTxs != 1 || stats.RolledBack != 1 {
		t.Fatalf("stats %+v: log not recovered from the surviving copy", stats)
	}
	for _, k := range []kvlayout.Key{1, 2} {
		if got := e.mustRead(t, 1, k); !bytes.Equal(got, pad16(initVal(k))) {
			t.Fatalf("key %d = %q", k, got)
		}
	}
}

func TestFORDModeRecoveryRolls(t *testing.T) {
	// FORD-mode (Baseline) recovery reads the per-object logs from the
	// object replicas and still rolls correctly in the fixed protocol.
	for _, c := range []struct {
		point   core.CrashPoint
		forward bool
	}{
		{core.PointAfterValidation, false},
		{core.PointAfterApplyAll, true},
	} {
		t.Run(fmt.Sprintf("point%d", c.point), func(t *testing.T) {
			e := newEnv(t, envConfig{opts: core.Options{Protocol: core.ProtocolFORD}})
			e.preload(t, 16)
			runDoomed(t, e.nodes[0], c.point)
			ev := e.failNode(t, 0)
			stats, err := e.mgr.RecoverCompute(ev)
			if err != nil {
				t.Fatal(err)
			}
			if stats.LoggedTxs != 1 {
				t.Fatalf("stats %+v", stats)
			}
			got := e.mustRead(t, 1, 1)
			if c.forward {
				if !bytes.HasPrefix(got, []byte("doomed-one")) {
					t.Fatalf("roll-forward lost the write: %q", got)
				}
			} else if !bytes.Equal(got, pad16(initVal(1))) {
				t.Fatalf("roll-back failed: %q", got)
			}
			e.mustWrite(t, 1, 1, []byte("after"))
			e.mustWrite(t, 1, 2, []byte("after"))
		})
	}
}

func TestRecoveryWithDeadObjectReplica(t *testing.T) {
	// A write-set object's replica dies together with the compute node;
	// the roll-forward/back decision must consider only live replicas
	// (the same rule the commit path uses).
	e := newEnv(t, envConfig{memNodes: 3, replicas: 2})
	e.preload(t, 32)
	runDoomed(t, e.nodes[0], core.PointAfterApplyAll)
	ev := e.failNode(t, 0)

	// Kill the backup of key 1's partition.
	reps := e.ring.Replicas(e.ring.Partition(1))
	for _, srv := range e.mems {
		if srv.ID() == reps[1] {
			srv.Crash()
		}
	}
	e.mgr.Update(func(v *place.View) *place.View { return v.WithDead(reps[1], true) })

	stats, err := e.mgr.RecoverCompute(ev)
	if err != nil {
		t.Fatal(err)
	}
	if stats.RolledForward != 1 {
		t.Fatalf("stats %+v: fully-applied tx must roll forward despite the dead replica", stats)
	}
	if got := e.mustRead(t, 1, 1); !bytes.HasPrefix(got, []byte("doomed-one")) {
		t.Fatalf("key 1 = %q", got)
	}
}

func TestRecoverUnknownNodeIsHarmless(t *testing.T) {
	// Recovering a node with no state (never wrote logs, holds no locks)
	// must be a clean no-op — the FD can fire for nodes that registered
	// but never transacted.
	e := newEnv(t, envConfig{})
	e.preload(t, 8)
	ev := e.failNode(t, 0)
	stats, err := e.mgr.RecoverCompute(ev)
	if err != nil {
		t.Fatal(err)
	}
	if stats.LoggedTxs != 0 || stats.RolledBack != 0 || stats.RolledForward != 0 {
		t.Fatalf("stats %+v for an idle node", stats)
	}
	e.mustWrite(t, 1, 0, []byte("fine"))
}

func TestStrayLockNotificationOrdering(t *testing.T) {
	// Cor4: the notification must come after log recovery. We verify the
	// observable consequence: when recovery completes, every lock a
	// LOGGED stray transaction held has already been released by the RC
	// (not stolen), so a survivor's first conflicting access needs no
	// steal CAS at all — and for a NOT-logged stray transaction the
	// survivor steals. Both end with the survivor making progress.
	e := newEnv(t, envConfig{})
	e.preload(t, 16)
	runDoomed(t, e.nodes[0], core.PointAfterLog) // logged
	ev := e.failNode(t, 0)
	if _, err := e.mgr.RecoverCompute(ev); err != nil {
		t.Fatal(err)
	}
	// Logged stray tx: the RC released the locks; no stray lock remains.
	for _, srv := range e.mems {
		if locks := srv.ScanStrayLocks(func(kvlayout.CoordID) bool { return true }); len(locks) != 0 {
			t.Fatalf("locks of a logged stray tx survived recovery: %v", locks)
		}
	}
}

func TestInsertThenDeleteRollbackLeavesTombstone(t *testing.T) {
	// The oracle-found bug: a transaction inserts a key, deletes it in
	// the same transaction, logs, and crashes. Recovery must undo to a
	// tombstone (the slot held no committed key before the transaction),
	// never "restore" a key that never existed — and the slot must stay
	// claimable.
	e := newEnv(t, envConfig{})
	e.preload(t, 16)
	victim := e.nodes[0]
	victim.SetInjector(func(_ kvlayout.CoordID, p core.CrashPoint) bool { return p == core.PointAfterLog })
	tx := victim.Coordinator(0).Begin()
	if err := tx.Insert(0, 700, []byte("ghost")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete(0, 700); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, rdma.ErrCrashed) {
		t.Fatalf("commit err = %v", err)
	}

	ev := e.failNode(t, 0)
	if _, err := e.mgr.RecoverCompute(ev); err != nil {
		t.Fatal(err)
	}
	if v, err := e.read(t, 1, 700); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("never-committed key resurrected by recovery: (%q, %v)", v, err)
	}
	// The slot is insertable again.
	tx2 := e.nodes[1].Coordinator(0).Begin()
	if err := tx2.Insert(0, 700, []byte("real")); err != nil {
		t.Fatalf("slot not claimable after rollback: %v", err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertThenDeleteAbortLeavesSlotClaimable(t *testing.T) {
	// Same shape without a crash: the abort path must clear the claim.
	e := newEnv(t, envConfig{})
	co := e.nodes[0].Coordinator(0)
	tx := co.Begin()
	if err := tx.Insert(0, 701, []byte("ghost")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete(0, 701); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	tx2 := e.nodes[1].Coordinator(0).Begin()
	if err := tx2.Insert(0, 701, []byte("real")); err != nil {
		t.Fatalf("claim leaked after abort: %v", err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
}
