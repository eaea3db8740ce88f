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

// blockingPeer holds a recovery pass at its stray-lock notification until
// release closes, after telling notified that the pass got there.
type blockingPeer struct {
	*core.ComputeNode
	notified, release chan struct{}
}

func (p *blockingPeer) NotifyStrayLocks(ids []kvlayout.CoordID) {
	close(p.notified)
	<-p.release
	p.ComputeNode.NotifyStrayLocks(ids)
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
