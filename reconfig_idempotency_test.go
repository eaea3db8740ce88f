package pandora

import (
	"bytes"
	"sync"
	"testing"

	"pandora/internal/metrics"
	"pandora/internal/reconfig"
)

// secondReconfigCoordinator builds an independent migration coordinator
// on its own fabric node — the "another live coordinator takes over the
// orphaned migration" case, mirroring secondManager — sharing the
// cluster's recovery manager, schema and metrics registry.
func secondReconfigCoordinator(c *Cluster, node NodeID) *reconfig.Coordinator {
	return reconfig.NewCoordinator(reconfig.Config{
		Fabric:  c.fab,
		Schema:  c.schema,
		Mgr:     c.mgr,
		Node:    node,
		Metrics: c.met,
	})
}

// interruptAddMemory starts an AddMemory migration and crashes the
// coordinator at the first firing of the given step, leaving the
// journal and any partition marks behind. It returns the new node's
// fabric id.
func interruptAddMemory(t *testing.T, c *Cluster, at reconfig.Step) NodeID {
	t.Helper()
	c.SetReconfigHook(func(ev ReconfigStep) error {
		if ev.Step == at {
			return ErrReconfigInterrupted
		}
		return nil
	})
	defer c.SetReconfigHook(nil)
	if _, err := c.AddMemory(); err == nil {
		t.Fatalf("AddMemory was not interrupted at %v", at)
	}
	st, err := c.ReconfigStatus()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Active {
		t.Fatalf("no active migration journaled after interrupt at %v", at)
	}
	return st.Subject
}

// TestMigrationRecoveryIdempotent mirrors TestRecoveryIdempotent for
// the migration journal: a coordinator crash mid-cutover is recovered
// once, then a SECOND full recovery pass from a second live coordinator
// must find the journal complete, do zero work, and leave the store
// byte-identical.
func TestMigrationRecoveryIdempotent(t *testing.T) {
	const keys = 32
	c, err := New(Config{
		ComputeNodes: 2,
		Tables:       []TableSpec{{Name: "kv", ValueSize: 16, Capacity: 1024}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.LoadN("kv", keys, func(k Key) []byte { return idemValue(uint64(k)) }); err != nil {
		t.Fatal(err)
	}

	// Crash the coordinator right after a cutover copy: the partition is
	// marked migrating, journaled cutover, but the new view is NOT
	// installed — the ambiguous window recovery must disambiguate.
	newID := interruptAddMemory(t, c, reconfig.StepCutoverCopied)

	// First recovery pass completes the migration.
	did, err := c.ReconfigRecover()
	if err != nil {
		t.Fatalf("first migration recovery: %v", err)
	}
	if !did {
		t.Fatal("first recovery pass found no orphaned migration")
	}
	st, err := c.ReconfigStatus()
	if err != nil {
		t.Fatal(err)
	}
	if st.Active || len(st.Remaining) != 0 {
		t.Fatalf("migration incomplete after recovery: %+v", st)
	}
	hosts := false
	for p := uint32(0); p < c.mgr.Ring().Partitions(); p++ {
		for _, n := range c.mgr.Ring().Replicas(p) {
			if n == newID {
				hosts = true
			}
		}
	}
	if !hosts {
		t.Fatal("recovered add-migration left the new node partition-less")
	}
	state1 := idemState(t, c, keys)

	// Second full pass, from a different live migration coordinator:
	// all no-ops, byte-identical state, clean metrics delta.
	before := c.MetricsSnapshot()
	rc2 := secondReconfigCoordinator(c, NodeID(920))
	did, err = rc2.Recover()
	if err != nil {
		t.Fatalf("second migration recovery: %v", err)
	}
	if did {
		t.Fatal("second recovery pass did work, want all no-ops")
	}
	state2 := idemState(t, c, keys)
	for k, v := range state1 {
		if !bytes.Equal(v, state2[k]) {
			t.Fatalf("key %d changed across the second pass: %x -> %x", k, v, state2[k])
		}
	}
	delta := c.MetricsSnapshot().Sub(before)
	for _, a := range delta.Aborts {
		if a.Count != 0 {
			t.Fatalf("second pass counted abort %s=%d, want 0", a.Reason, a.Count)
		}
	}
	for _, p := range delta.Phases {
		switch p.Phase {
		case metrics.PhaseMigrate.String():
			if p.Count != 0 {
				t.Fatalf("second pass recorded %d migrate samples, want 0", p.Count)
			}
		case metrics.PhaseLock.String(), metrics.PhaseLog.String():
			if p.Count != 0 {
				t.Fatalf("second pass recorded %s phase samples (%d), migration recovery must not lock/log", p.Phase, p.Count)
			}
		}
	}
}

// TestMigrationRecoveryInterleaved races two live coordinators over the
// same half-finished migration: every step re-reads the journal and the
// installed placement under the operation lock, so any interleaving
// must converge to one completed migration with a spotless audit.
func TestMigrationRecoveryInterleaved(t *testing.T) {
	const keys = 32
	c, err := New(Config{
		ComputeNodes: 2,
		Tables:       []TableSpec{{Name: "kv", ValueSize: 16, Capacity: 1024}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.LoadN("kv", keys, func(k Key) []byte { return idemValue(uint64(k)) }); err != nil {
		t.Fatal(err)
	}

	// Interrupt after the drain barrier: partitions are marked and the
	// racing recoveries must both unwind the marks and finish the copy.
	newID := interruptAddMemory(t, c, reconfig.StepMarked)

	rcs := []*reconfig.Coordinator{
		secondReconfigCoordinator(c, NodeID(921)),
		secondReconfigCoordinator(c, NodeID(922)),
	}
	var wg sync.WaitGroup
	errs := make([]error, len(rcs))
	for i, rc := range rcs {
		wg.Add(1)
		go func(i int, rc *reconfig.Coordinator) {
			defer wg.Done()
			_, errs[i] = rc.Recover()
		}(i, rc)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("interleaved migration recovery %d: %v", i, err)
		}
	}

	st, err := c.ReconfigStatus()
	if err != nil {
		t.Fatal(err)
	}
	if st.Active || len(st.Remaining) != 0 {
		t.Fatalf("migration incomplete after interleaved recovery: %+v", st)
	}
	ringHasNew := false
	for _, n := range c.mgr.Ring().Nodes() {
		if n == newID {
			ringHasNew = true
		}
	}
	if !ringHasNew {
		t.Fatal("final ring lost the added node")
	}
	state := idemState(t, c, keys)
	for k := Key(0); k < Key(keys); k++ {
		if got := state[k]; len(got) == 0 {
			t.Fatalf("key %d lost across interleaved recovery", k)
		}
	}
	rep, err := c.CheckConsistency("kv")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Keys != keys || len(rep.DuplicateKeys) > 0 || len(rep.DivergentKeys) > 0 || rep.LockedSlots != 0 {
		t.Fatalf("inconsistent after interleaved recovery: %+v", rep)
	}
}

// TestRestartComputeMidCutover restarts a crashed compute node between a
// partition's cutover copy and its view install. The rejoining node is
// built from the cluster's current view, mark included, so it cannot ack
// a commit that reaches only the superseded replicas: its transactions on
// the partition abort with the reconfig kind until the mark drops.
func TestRestartComputeMidCutover(t *testing.T) {
	const keys = 64
	c, err := New(Config{
		ComputeNodes: 2,
		Tables:       []TableSpec{{Name: "kv", ValueSize: 16, Capacity: 1024}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.LoadN("kv", keys, func(k Key) []byte { return idemValue(uint64(k)) }); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FailCompute(1); err != nil {
		t.Fatal(err)
	}

	var key Key
	var midCutover error
	fired := false
	c.SetReconfigHook(func(ev ReconfigStep) error {
		if ev.Step != reconfig.StepCutoverCopied || fired {
			return nil
		}
		fired = true
		for key = 0; c.mgr.Ring().Partition(key) != ev.Partition; key++ {
		}
		if err := c.RestartCompute(1); err != nil {
			return err
		}
		tx := c.Session(1, 0).Begin()
		if _, midCutover = tx.Read("kv", key); midCutover == nil {
			if midCutover = tx.Write("kv", key, idemValue(4242)); midCutover == nil {
				midCutover = tx.Commit()
			}
		}
		return nil
	})
	defer c.SetReconfigHook(nil)
	if _, err := c.AddMemory(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("migration moved no partition: the hook never fired")
	}
	if kind, ok := AbortKindOf(midCutover); !ok || kind != AbortReconfig {
		t.Fatalf("commit on the rejoined node mid-cutover = %v, want a reconfig abort", midCutover)
	}
	rep, err := c.CheckConsistency("kv")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.DivergentKeys) != 0 {
		t.Fatalf("replicas diverge on %v after the migration", rep.DivergentKeys)
	}
	// Once the mark has dropped the same node commits on the same key.
	if err := c.Session(1, 0).Update(10, func(tx *Tx) error { return tx.Write("kv", key, idemValue(4243)) }); err != nil {
		t.Fatalf("write after the migration: %v", err)
	}
}
