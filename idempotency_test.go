package pandora

import (
	"bytes"
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"pandora/internal/core"
	"pandora/internal/kvlayout"
	"pandora/internal/metrics"
	"pandora/internal/place"
	"pandora/internal/recovery"
)

func idemValue(v uint64) []byte {
	b := make([]byte, 16)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

// idemState reads every key through a committed transaction on a
// surviving node and returns the value bytes, keyed by key.
func idemState(t *testing.T, c *Cluster, keys int) map[Key][]byte {
	t.Helper()
	out := make(map[Key][]byte, keys)
	tx := c.Session(1, 0).Begin()
	for k := Key(0); k < Key(keys); k++ {
		v, err := tx.Read("kv", k)
		if err != nil {
			t.Fatalf("post-state read %d: %v", k, err)
		}
		out[k] = append([]byte(nil), v...)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("post-state commit: %v", err)
	}
	return out
}

// secondManager builds an independent recovery coordinator on its own
// fabric node — the "another live coordinator re-runs recovery" case of
// §3.2.3 — sharing the cluster's ring, schema and metrics registry.
func secondManager(c *Cluster) *recovery.Manager {
	c.fab.AddNode(rcNodeID + 1)
	return recovery.NewManager(recovery.Config{
		Fabric:        c.fab,
		Ring:          c.mgr.Ring(),
		Schema:        c.schema,
		Mems:          c.mems,
		Peers:         nil, // stray-lock notification tested via the first manager
		Protocol:      c.cfg.Protocol,
		CoordsPerNode: c.cfg.CoordinatorsPerNode,
		RCNode:        rcNodeID + 1,
		Metrics:       c.met,
	})
}

// TestRecoveryIdempotent runs the full §3.2.2 compute recovery twice
// over the same failed node: the second pass must find truncated logs,
// do zero work, and leave the store byte-identical — §3.2.3's
// idempotence, which is what makes recovery-coordinator failures
// tolerable.
func TestRecoveryIdempotent(t *testing.T) {
	const keys = 32
	c, err := New(Config{
		ComputeNodes:  2,
		NoAutoRecover: true,
		Tables:        []TableSpec{{Name: "kv", ValueSize: 16, Capacity: 1024}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.LoadN("kv", keys, func(k Key) []byte { return idemValue(uint64(k)) }); err != nil {
		t.Fatal(err)
	}

	// Park one logged transaction on node 0 and fail the node.
	victim := c.Engine(0)
	victim.SetInjector(func(_ kvlayout.CoordID, p core.CrashPoint) bool {
		return p == core.PointAfterLog
	})
	tx := c.Session(0, 0).Begin()
	if err := tx.Write("kv", 5, idemValue(999)); err != nil {
		t.Fatal(err)
	}
	_ = tx.Commit() // crashes at the post-logging point
	if tx.CommitAcked() {
		t.Fatal("parked transaction must not be commit-acked")
	}
	ev, ok := c.fd.MarkFailed(victim.ID())
	if !ok {
		t.Fatal("node 0 already marked failed")
	}

	stats1, err := c.mgr.RecoverCompute(ev)
	if err != nil {
		t.Fatalf("first recovery: %v", err)
	}
	if stats1.LoggedTxs != 1 || stats1.RolledBack != 1 {
		t.Fatalf("first pass: %+v, want 1 logged tx rolled back", stats1)
	}
	state1 := idemState(t, c, keys)
	if got := binary.LittleEndian.Uint64(state1[5]); got != 5 {
		t.Fatalf("key 5 = %d after rollback, want the pre-crash 5", got)
	}

	// Second full pass, from a different live recovery coordinator.
	before := c.MetricsSnapshot()
	mgr2 := secondManager(c)
	stats2, err := mgr2.RecoverCompute(ev)
	if err != nil {
		t.Fatalf("second recovery: %v", err)
	}
	if stats2.LoggedTxs != 0 || stats2.RolledForward != 0 || stats2.RolledBack != 0 || stats2.StrayLocksFreed != 0 {
		t.Fatalf("second pass did work: %+v, want all no-ops", stats2)
	}
	state2 := idemState(t, c, keys)
	for k, v := range state1 {
		if !bytes.Equal(v, state2[k]) {
			t.Fatalf("key %d changed across the second pass: %x -> %x", k, v, state2[k])
		}
	}

	// The second pass's metrics delta: recovery-step timings only — no
	// aborts, and no write-side transaction phases (idemState's read
	// transaction runs inside the delta window, so the read-path phases
	// legitimately appear; recovery itself must never lock or log).
	delta := c.MetricsSnapshot().Sub(before)
	for _, a := range delta.Aborts {
		if a.Count != 0 {
			t.Fatalf("second pass counted abort %s=%d, want 0", a.Reason, a.Count)
		}
	}
	for _, p := range delta.Phases {
		switch p.Phase {
		case metrics.PhaseRecoveryStep.String():
			if p.Count == 0 {
				t.Fatalf("second pass recorded no recovery-step samples")
			}
		case metrics.PhaseLock.String(), metrics.PhaseLog.String():
			if p.Count != 0 {
				t.Fatalf("second pass recorded %s phase samples (%d), recovery must not lock/log", p.Phase, p.Count)
			}
		}
	}
}

// TestRecoveryInterleaved races two live recovery coordinators through
// the same failure event concurrently: every step is guarded
// (idempotent CASes, truncation markers), so any interleaving must
// converge to the same rolled-back state with no stray locks.
func TestRecoveryInterleaved(t *testing.T) {
	const keys = 32
	c, err := New(Config{
		ComputeNodes:  3,
		NoAutoRecover: true,
		Tables:        []TableSpec{{Name: "kv", ValueSize: 16, Capacity: 1024}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.LoadN("kv", keys, func(k Key) []byte { return idemValue(uint64(k)) }); err != nil {
		t.Fatal(err)
	}

	victim := c.Engine(0)
	victim.SetInjector(func(_ kvlayout.CoordID, p core.CrashPoint) bool {
		return p == core.PointAfterLog
	})
	tx := c.Session(0, 0).Begin()
	if err := tx.Write("kv", 7, idemValue(777)); err != nil {
		t.Fatal(err)
	}
	_ = tx.Commit()
	ev, ok := c.fd.MarkFailed(victim.ID())
	if !ok {
		t.Fatal("node 0 already marked failed")
	}

	mgr2 := secondManager(c)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, m := range []*recovery.Manager{c.mgr, mgr2} {
		wg.Add(1)
		go func(i int, m *recovery.Manager) {
			defer wg.Done()
			_, errs[i] = m.RecoverCompute(ev)
		}(i, m)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("interleaved recovery %d: %v", i, err)
		}
	}

	state := idemState(t, c, keys)
	if got := binary.LittleEndian.Uint64(state[7]); got != 7 {
		t.Fatalf("key 7 = %d after interleaved recovery, want 7", got)
	}
	rep, err := c.CheckConsistency("kv")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.DuplicateKeys) > 0 || len(rep.DivergentKeys) > 0 || rep.LockedSlots != rep.StrayLocks {
		t.Fatalf("inconsistent after interleaved recovery: %+v", rep)
	}
}

// blockingPeer holds a recovery pass at its first stray-lock notification
// — the first installed view that announces a failed coordinator — until
// release closes, after telling notified that the pass got there.
type blockingPeer struct {
	*core.ComputeNode
	notified, release chan struct{}
	once              sync.Once
}

func (p *blockingPeer) Install(v *place.View) {
	if len(v.FailedIDs()) > 0 {
		p.once.Do(func() {
			close(p.notified)
			<-p.release
		})
	}
	p.ComputeNode.Install(v)
}

// TestRestartComputeWaitsOutRecovery: a recovery pass truncates the failed
// node's log region after notifying the survivors, and a restarted
// incarnation logs into the same region, so RestartCompute must not
// rejoin while a pass of the node runs. The pass is held at its
// notification, still to truncate; the restart must wait for it. Both
// then take the manager's view lock under its operation lock — the pass
// to look up the log servers it truncates, the restart to rejoin — and
// must both finish.
func TestRestartComputeWaitsOutRecovery(t *testing.T) {
	c, err := New(Config{
		ComputeNodes:  2,
		NoAutoRecover: true,
		Tables:        []TableSpec{{Name: "kv", ValueSize: 16, Capacity: 1024}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.LoadN("kv", 8, func(k Key) []byte { return idemValue(uint64(k)) }); err != nil {
		t.Fatal(err)
	}
	c.node(1).Crash()
	ev, ok := c.fd.MarkFailed(c.node(1).ID())
	if !ok {
		t.Fatal("node 1 already marked failed")
	}
	held := &blockingPeer{ComputeNode: c.node(0), notified: make(chan struct{}), release: make(chan struct{})}
	c.mgr.SetPeer(held)

	passed := make(chan error, 1)
	go func() {
		_, err := c.mgr.RecoverCompute(ev)
		passed <- err
	}()
	<-held.notified
	restarted := make(chan error, 1)
	go func() { restarted <- c.RestartCompute(1) }()
	select {
	case err := <-restarted:
		close(held.release)
		t.Fatalf("RestartCompute returned (err %v) while a recovery pass of the node was still to truncate its logs", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(held.release)
	for _, done := range []chan error{passed, restarted} {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("the recovery pass and the restart deadlocked")
		}
	}
	if err := c.Session(1, 0).Update(10, func(tx *Tx) error { return tx.Write("kv", 3, idemValue(33)) }); err != nil {
		t.Fatalf("restarted node: %v", err)
	}
}

// TestRestartedNodeWaitsOnLoggedLocks: a pass cut between its notification
// and its act leaves the survivors treating the logged transaction's lock
// words as live locks. A compute node that restarts while the re-run is
// cut too rejoins with every failed id, and must learn those words too: it may
// neither read under one — the applied but undecided write of key 1 — nor
// steal it, while the unlogged lock of key 3 is its to steal. The re-run
// then rolls the logged transaction back.
func TestRestartedNodeWaitsOnLoggedLocks(t *testing.T) {
	c, err := New(Config{
		ComputeNodes:  3,
		NoAutoRecover: true,
		Tables:        []TableSpec{{Name: "kv", ValueSize: 16, Capacity: 1024}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.LoadN("kv", 8, func(k Key) []byte { return idemValue(uint64(k)) }); err != nil {
		t.Fatal(err)
	}
	// The victim's writes settle at Write while an injector is installed:
	// the held transaction's lock on key 3 is taken before the crash.
	victim := c.Engine(0)
	victim.SetInjector(func(_ kvlayout.CoordID, p core.CrashPoint) bool { return p == core.PointAfterApplyOne })
	held := c.Session(0, 1).Begin()
	if err := held.Write("kv", 3, idemValue(300)); err != nil {
		t.Fatal(err)
	}
	doomed := c.Session(0, 0).Begin()
	for _, k := range []Key{1, 2} {
		if err := doomed.Write("kv", k, idemValue(100+uint64(k))); err != nil {
			t.Fatal(err)
		}
	}
	if err := doomed.Commit(); err == nil || !victim.Crashed() {
		t.Fatalf("the doomed commit returned %v on a live node, want the crash", err)
	}
	ev, ok := c.fd.MarkFailed(victim.ID())
	if !ok {
		t.Fatal("node 0 already marked failed")
	}
	c.mgr.SetCut(func(s recovery.Step, landed int) bool { return s == recovery.StepNotify && landed == 1 })
	if _, err := c.mgr.RecoverCompute(ev); err == nil {
		t.Fatal("the pass cut after its notification returned no error")
	}

	// The hook stays: the restart re-runs the unfinished pass first, and
	// that run is cut again.
	if _, err := c.FailCompute(2); err != nil {
		t.Fatal(err)
	}
	if err := c.RestartCompute(2); err != nil {
		t.Fatal(err)
	}
	if err := c.RestartCompute(0); err == nil {
		t.Fatal("node 0 restarted while its recovery pass is unfinished")
	}
	read := c.Session(2, 0).Begin()
	if v, err := read.Read("kv", 1); err == nil {
		t.Fatalf("the restarted node read %x under a logged lock word before the re-run", v)
	}
	_ = read.Abort()
	steal := c.Session(2, 0).Begin()
	if err := steal.Write("kv", 1, idemValue(7)); err == nil {
		if err = steal.Commit(); err == nil {
			t.Fatal("the restarted node stole a logged lock word before the re-run")
		}
	} else {
		_ = steal.Abort()
	}
	if err := c.Session(2, 0).Update(1, func(tx *Tx) error { return tx.Write("kv", 3, idemValue(33)) }); err != nil {
		t.Fatalf("the restarted node could not steal the unlogged lock of key 3: %v", err)
	}

	c.mgr.SetCut(nil)
	if st, err := c.mgr.RecoverCompute(ev); err != nil || st.LoggedTxs != 1 || st.RolledBack != 1 {
		t.Fatalf("re-run = %+v, %v; want the logged transaction rolled back", st, err)
	}
	if logged := c.mgr.View().Logged(); len(logged) != 0 {
		t.Fatalf("logged words %x left after the re-run's act", logged)
	}
	if err := c.Session(2, 0).Update(10, func(tx *Tx) error {
		for _, k := range []Key{1, 2} {
			v, err := tx.Read("kv", k)
			if err != nil {
				return err
			}
			if !bytes.Equal(v, idemValue(uint64(k))) {
				t.Errorf("key %d = %x after the re-run, want the initial value", k, v)
			}
		}
		return tx.Write("kv", 1, idemValue(11))
	}); err != nil {
		t.Fatal(err)
	}
	if rep, err := c.CheckConsistency("kv"); err != nil || len(rep.DivergentKeys) != 0 {
		t.Fatalf("consistency after the re-run: %+v, %v", rep, err)
	}
}

// strandVictim loads keys 1–3 and leaves compute node 0 crashed with two
// stray transactions: one that holds key 3's lock with nothing logged, and
// one logged over keys 1 and 2.
func strandVictim(t *testing.T) *Cluster {
	t.Helper()
	c, err := New(Config{Tables: []TableSpec{{Name: "kv", ValueSize: 16, Capacity: 1024}}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.LoadN("kv", 4, func(k Key) []byte { return idemValue(uint64(k)) }); err != nil {
		t.Fatal(err)
	}
	// With an injector installed the victim's writes settle at Write, so
	// key 3's lock is taken before the crash.
	victim := c.Engine(0)
	victim.SetInjector(func(_ kvlayout.CoordID, p core.CrashPoint) bool { return p == core.PointAfterLog })
	if err := c.Session(0, 1).Begin().Write("kv", 3, idemValue(300)); err != nil {
		t.Fatal(err)
	}
	doomed := c.Session(0, 0).Begin()
	for _, k := range []Key{1, 2} {
		if err := doomed.Write("kv", k, idemValue(100+uint64(k))); err != nil {
			t.Fatal(err)
		}
	}
	if err := doomed.Commit(); err == nil || !victim.Crashed() {
		t.Fatalf("the doomed commit returned %v on a live node, want the crash", err)
	}
	return c
}

// TestAutoRecoveryFinishesCutPass: a pass whose recovery coordinator dies
// at any verb, or on either side of its notification, is finished by the
// cluster itself (§3.2.3). The cut points are those of an uninterrupted
// pass; each is cut once, and after FailCompute returns a survivor commits
// on every stray key — with no test-driven re-run.
func TestAutoRecoveryFinishesCutPass(t *testing.T) {
	type cutPoint struct {
		step   recovery.Step
		landed int
	}
	var cuts []cutPoint
	c := strandVictim(t)
	c.mgr.SetCut(func(s recovery.Step, landed int) bool {
		cuts = append(cuts, cutPoint{s, landed})
		return false
	})
	if _, err := c.FailCompute(0); err != nil {
		t.Fatal(err)
	}
	for _, at := range cuts {
		c := strandVictim(t)
		cut := false
		c.mgr.SetCut(func(s recovery.Step, landed int) bool {
			if !cut && (cutPoint{s, landed}) == at {
				cut = true
				return true
			}
			return false
		})
		if _, err := c.FailCompute(0); err != nil || !cut {
			t.Errorf("cut at %+v (cut %t): FailCompute: %v", at, cut, err)
		}
		for _, k := range []Key{1, 2, 3} {
			if err := c.Session(1, 0).Update(10, func(tx *Tx) error { return tx.Write("kv", k, idemValue(7)) }); err != nil {
				t.Errorf("cut at %+v: a survivor's update of key %d: %v", at, k, err)
			}
		}
	}
}

// TestStaleReRecoverRefusedAfterRestart: once node 0 restarted, its old
// failure is over. A re-run of that pass would fence the new incarnation
// and truncate its log, so when the new incarnation then crashes with a
// transfer applied to one key, recovery would find no log and leave the
// transfer torn. The re-run is refused, and the transfer is rolled back.
func TestStaleReRecoverRefusedAfterRestart(t *testing.T) {
	c, err := New(Config{Tables: []TableSpec{{Name: "kv", ValueSize: 16, Capacity: 1024}}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.LoadN("kv", 4, func(k Key) []byte { return idemValue(100) }); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FailCompute(0); err != nil {
		t.Fatal(err)
	}
	if err := c.RestartCompute(0); err != nil {
		t.Fatal(err)
	}
	c.Engine(0).SetInjector(func(_ kvlayout.CoordID, p core.CrashPoint) bool { return p == core.PointAfterApplyOne })
	transfer := c.Session(0, 0).Begin()
	for k, v := range map[Key]uint64{1: 90, 2: 110} {
		if err := transfer.Write("kv", k, idemValue(v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := transfer.Commit(); err == nil || !c.Engine(0).Crashed() {
		t.Fatalf("the transfer returned %v on a live node, want the crash", err)
	}
	if _, err := c.ReRecoverCompute(0); err == nil {
		t.Error("ReRecoverCompute re-ran the pass of a failure the node restarted from")
	}
	if _, err := c.FailCompute(0); err != nil {
		t.Fatal(err)
	}
	state := idemState(t, c, 3)
	if a, b := binary.LittleEndian.Uint64(state[1]), binary.LittleEndian.Uint64(state[2]); a+b != 200 || a != 100 && a != 90 {
		t.Fatalf("keys 1 and 2 = %d and %d after recovery, want both old or both new", a, b)
	}
}
