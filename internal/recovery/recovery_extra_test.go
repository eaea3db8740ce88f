package recovery

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"pandora/internal/core"
	"pandora/internal/fdetect"
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

// passEvent is one thing a pass did, in order: its cut hook was asked
// about op landed of step, or a peer was sent the stray-lock notification.
type passEvent struct {
	step   Step
	landed int
	notify bool
}

// recorder is a survivor peer that logs every stray-lock notification it
// receives, in order with the ops of a pass it watches.
type recorder struct {
	*core.ComputeNode
	events []passEvent
}

// record puts survivor node i in the manager's peer list as a recorder.
func (e *env) record(i int) *recorder {
	r := &recorder{ComputeNode: e.nodes[i]}
	e.mgr.SetPeer(r)
	return r
}

func (r *recorder) NotifyStrayLocks(ids []kvlayout.CoordID) {
	r.events = append(r.events, passEvent{notify: true})
	r.ComputeNode.NotifyStrayLocks(ids)
}

// watch is a Manager.cut that logs each op and cuts nowhere.
func (r *recorder) watch(s Step, landed int) bool {
	r.events = append(r.events, passEvent{step: s, landed: landed})
	return false
}

func (r *recorder) notifications() int {
	n := 0
	for _, ev := range r.events {
		if ev.notify {
			n++
		}
	}
	return n
}

func TestStrayLockNotificationOrdering(t *testing.T) {
	// Cor4: the notification comes after log recovery's critical part — the
	// act doorbell's last op, and under the traditional scheme the intent
	// release's — and before the truncation's first op, which trails it;
	// VTime is the critical steps' sum. The observable consequence: when
	// the notification arrives, every lock a LOGGED stray transaction held
	// has been released by the RC (not stolen), so a survivor's first
	// conflicting access needs no steal CAS; a NOT-logged stray's locks are
	// stolen (PILL) or were released from its intents (traditional scheme).
	// Either way the survivor makes progress.
	for _, p := range logProtocols[:2] {
		t.Run(p.name, func(t *testing.T) {
			stage := func() (*env, fdetect.Event) {
				e := newEnv(t, envConfig{opts: p.opts, latency: rdma.DefaultLatency()})
				e.preload(t, 16)
				runDoomed(t, e.nodes[0], core.PointAfterLog) // logged: keys 1, 2
				e.nodes[0].SetInjector(nil)
				e.nodes[0].Restart()
				hold(t, e.nodes[0], 1, 3, 4) // not logged
				return e, e.failNode(t, 0)
			}

			e, ev := stage()
			stats, err := e.mgr.RecoverCompute(ev)
			if err != nil {
				t.Fatal(err)
			}
			var critical time.Duration
			for s := range StepTruncate {
				critical += stats.Steps[s]
			}
			if stats.VTime != critical || stats.Steps[StepTruncate] == 0 {
				t.Fatalf("stats = %+v, want VTime the sum of the steps before StepTruncate (%v) and a truncation after it", stats, critical)
			}
			owned := func(c kvlayout.CoordID) int {
				n := 0
				for _, srv := range e.mems {
					n += len(srv.ScanStrayLocks(func(o kvlayout.CoordID) bool { return o == c }))
				}
				return n
			}
			if n := owned(ev.Coords[0]); n != 0 {
				t.Fatalf("%d locks of a logged stray tx survived recovery", n)
			}
			unlogged := 2 // PILL's to steal
			if p.opts.Protocol == core.ProtocolTradLog {
				unlogged = 0 // released from the intents
			}
			if n := owned(ev.Coords[1]); n != unlogged {
				t.Fatalf("%d locks of the not-logged stray tx left after recovery, want %d", n, unlogged)
			}
			for _, k := range []kvlayout.Key{1, 3} {
				e.mustWrite(t, 1, k, []byte("survivor"))
			}

			// The same pass posted op by op, beside a recording survivor.
			e, ev = stage()
			rec := e.record(1)
			e.mgr.cut = rec.watch
			if _, err := e.mgr.RecoverCompute(ev); err != nil {
				t.Fatal(err)
			}
			at := slices.IndexFunc(rec.events, func(ev passEvent) bool { return ev.notify })
			if at < 0 || rec.notifications() != 1 {
				t.Fatalf("events %v: want one notification", rec.events)
			}
			last := map[Step]bool{StepAct: true}
			if p.opts.Protocol == core.ProtocolTradLog {
				last[StepIntentRelease] = true
			}
			for i, ev := range rec.events {
				switch {
				case ev.notify:
				case ev.step < StepTruncate && i > at:
					t.Errorf("op %d of critical step %d came after the notification", ev.landed, ev.step)
				case ev.step >= StepTruncate && i < at:
					t.Errorf("op %d of trailing step %d came before the notification", ev.landed, ev.step)
				}
			}
			if before, after := rec.events[at-1], rec.events[at+1]; !last[before.step] || before.landed == 0 || after.step != StepTruncate || after.landed != 0 {
				t.Fatalf("notification between %+v and %+v, want after the act doorbell's (or intent release's) last op and before the truncation's first", before, after)
			}
		})
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
