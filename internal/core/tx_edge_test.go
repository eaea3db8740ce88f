package core

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"

	"pandora/internal/kvlayout"
	"pandora/internal/place"
	"pandora/internal/rdma"
)

func TestWriteThenDeleteSameTx(t *testing.T) {
	e := newEnv(t, envConfig{})
	e.preload(t, 0, 8, func(k kvlayout.Key) []byte { return val16(k, 0) })
	co := e.nodes[0].Coordinator(0)

	mustCommit(t, co, func(tx *Tx) error {
		if err := tx.Write(0, 3, []byte("will-die")); err != nil {
			return err
		}
		return tx.Delete(0, 3)
	})
	if _, err := readKey(t, co, 0, 3); !errors.Is(err, ErrNotFound) {
		t.Fatalf("write-then-delete left the key visible: %v", err)
	}
}

func TestDeleteThenWriteSameTx(t *testing.T) {
	e := newEnv(t, envConfig{})
	e.preload(t, 0, 8, func(k kvlayout.Key) []byte { return val16(k, 0) })
	co := e.nodes[0].Coordinator(0)

	mustCommit(t, co, func(tx *Tx) error {
		if err := tx.Delete(0, 4); err != nil {
			return err
		}
		return tx.Write(0, 4, []byte("resurrected"))
	})
	v, err := readKey(t, co, 0, 4)
	if err != nil || !bytes.HasPrefix(v, []byte("resurrected")) {
		t.Fatalf("delete-then-write = (%q, %v)", v, err)
	}
}

func TestInsertThenWriteSameTx(t *testing.T) {
	e := newEnv(t, envConfig{})
	co := e.nodes[0].Coordinator(0)
	mustCommit(t, co, func(tx *Tx) error {
		if err := tx.Insert(0, 60, []byte("v1")); err != nil {
			return err
		}
		return tx.Write(0, 60, []byte("v2"))
	})
	v, err := readKey(t, co, 0, 60)
	if err != nil || !bytes.HasPrefix(v, []byte("v2")) {
		t.Fatalf("insert-then-write = (%q, %v)", v, err)
	}
}

func TestInsertOfOwnDeletedKey(t *testing.T) {
	// Delete an existing key, then insert it again within the same tx:
	// the key is absent in the transaction's own view (Read says so), so
	// the insert succeeds and the write-set entry flips back to an update.
	e := newEnv(t, envConfig{})
	e.preload(t, 0, 8, func(k kvlayout.Key) []byte { return val16(k, 0) })
	co := e.nodes[0].Coordinator(0)
	tx := co.Begin()
	if err := tx.Delete(0, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Read(0, 5); !errors.Is(err, ErrNotFound) {
		t.Fatalf("read of own delete: %v", err)
	}
	if err := tx.Insert(0, 5, []byte("back")); err != nil {
		t.Fatalf("insert over own delete: %v", err)
	}
	if err := tx.Insert(0, 5, []byte("again")); !errors.Is(err, ErrExists) {
		t.Fatalf("second insert: %v, want ErrExists", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	v, err := readKey(t, co, 0, 5)
	if err != nil || !bytes.HasPrefix(v, []byte("back")) {
		t.Fatalf("= (%q, %v)", v, err)
	}
}

// TestInsertDeleteInsertOfNewKey: the wasInsert variant — the slot held
// no committed key before the transaction. Committed, the last insert's
// value is there; aborted, the slot is undone to a tombstone (absent),
// never "restored".
func TestInsertDeleteInsertOfNewKey(t *testing.T) {
	for _, commit := range []bool{true, false} {
		e := newEnv(t, envConfig{})
		e.preload(t, 0, 8, func(k kvlayout.Key) []byte { return val16(k, 0) })
		co := e.nodes[0].Coordinator(0)
		tx := co.Begin()
		if err := tx.Insert(0, 70, []byte("one")); err != nil {
			t.Fatal(err)
		}
		if err := tx.Delete(0, 70); err != nil {
			t.Fatal(err)
		}
		if err := tx.Insert(0, 70, []byte("two")); err != nil {
			t.Fatalf("insert over own delete of own insert: %v", err)
		}
		if commit {
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		} else if err := tx.Abort(); err != nil {
			t.Fatal(err)
		}
		v, err := readKey(t, co, 0, 70)
		switch {
		case commit && (err != nil || !bytes.HasPrefix(v, []byte("two"))):
			t.Fatalf("committed: = (%q, %v), want two", v, err)
		case !commit && !errors.Is(err, ErrNotFound):
			t.Fatalf("aborted: = (%q, %v), want ErrNotFound", v, err)
		}
		// Either way the key can be inserted afresh and the slot is free.
		if !commit {
			mustCommit(t, co, func(tx *Tx) error { return tx.Insert(0, 70, []byte("three")) })
		}
		if n := e.lockedSlots(t, 0); n != 0 {
			t.Fatalf("commit=%v: %d slots left locked", commit, n)
		}
	}
}

func TestDoubleDeleteAborts(t *testing.T) {
	e := newEnv(t, envConfig{})
	e.preload(t, 0, 8, func(k kvlayout.Key) []byte { return val16(k, 0) })
	co1 := e.nodes[0].Coordinator(0)
	co2 := e.nodes[1].Coordinator(0)
	mustCommit(t, co1, func(tx *Tx) error { return tx.Delete(0, 6) })
	tx := co2.Begin()
	if err := tx.Delete(0, 6); !errors.Is(err, ErrNotFound) {
		t.Fatalf("second delete err = %v, want ErrNotFound", err)
	}
	_ = tx.Abort()
}

func TestAbortIsIdempotentAndCheap(t *testing.T) {
	e := newEnv(t, envConfig{})
	e.preload(t, 0, 8, func(k kvlayout.Key) []byte { return val16(k, 0) })
	co := e.nodes[0].Coordinator(0)
	tx := co.Begin()
	if err := tx.Write(0, 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); !errors.Is(err, ErrTxDone) {
		t.Fatalf("second abort err = %v", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxDone) {
		t.Fatalf("commit after abort err = %v", err)
	}
	// Locks are gone.
	mustCommit(t, e.nodes[1].Coordinator(0), func(tx *Tx) error {
		return tx.Write(0, 1, []byte("after"))
	})
}

func TestEmptyTxCommit(t *testing.T) {
	e := newEnv(t, envConfig{})
	co := e.nodes[0].Coordinator(0)
	tx := co.Begin()
	if err := tx.Commit(); err != nil {
		t.Fatalf("empty tx commit: %v", err)
	}
	if !tx.AckedCommit {
		t.Fatal("empty tx not acked")
	}
}

func TestReplicasForFollowsView(t *testing.T) {
	e := newEnv(t, envConfig{memNodes: 3, replicas: 3})
	cn := e.nodes[0]
	p := uint32(0)
	ring := e.ring.Replicas(p)
	lookup := func() []rdma.NodeID {
		t.Helper()
		reps, err := cn.replicasFor(p)
		if err != nil {
			t.Fatalf("replicasFor: %v", err)
		}
		return reps
	}
	if got := lookup(); !slices.Equal(got, ring) {
		t.Fatalf("healthy replicas = %v, want the ring's %v", got, ring)
	}
	// A dead backup stays addressed (commit tolerates the down replica)
	// but never leads; a dead primary hands the lead to the next live one.
	cn.Install(cn.place.Load().WithDead(ring[1], true))
	if got := lookup(); !slices.Equal(got, ring) {
		t.Fatalf("replicas after backup death = %v, want %v", got, ring)
	}
	cn.Install(cn.place.Load().WithDead(ring[0], true))
	if got, want := lookup(), []rdma.NodeID{ring[2], ring[0], ring[1]}; !slices.Equal(got, want) {
		t.Fatalf("replicas after primary death = %v, want %v", got, want)
	}
	cn.Install(cn.place.Load().WithDead(ring[2], true))
	if _, err := cn.replicasFor(p); err == nil || !strings.Contains(err.Error(), "no live replica") || errors.Is(err, ErrPartitionMigrating) {
		t.Fatalf("all replicas dead: err = %v, want the no-live-replica error", err)
	}
	cn.Install(place.NewView(e.ring).WithMigrating(p, true))
	if _, err := cn.replicasFor(p); !errors.Is(err, ErrPartitionMigrating) {
		t.Fatalf("marked partition: err = %v, want ErrPartitionMigrating", err)
	}
	cn.Install(cn.place.Load().WithMigrating(p, false))
	if got := lookup(); !slices.Equal(got, ring) {
		t.Fatalf("replicas after unmark = %v, want %v", got, ring)
	}
}

func TestAccessorsAndDiagnostics(t *testing.T) {
	e := newEnv(t, envConfig{})
	e.preload(t, 0, 8, func(k kvlayout.Key) []byte { return val16(k, 0) })
	cn := e.nodes[0]
	co := cn.Coordinator(0)
	if cn.ID() != 0 || cn.Options().Protocol != ProtocolPandora {
		t.Fatal("accessor mismatch")
	}
	if co.Node() != cn {
		t.Fatal("Coordinator.Node mismatch")
	}
	if len(co.LogServers()) != 2 {
		t.Fatalf("LogServers = %v", co.LogServers())
	}
	if cn.failed.Count() != 0 {
		t.Fatal("fresh node has failed ids")
	}
	tx := co.Begin()
	if tx.ID() == 0 {
		t.Fatal("tx id zero")
	}
	if tx.Done() {
		t.Fatal("fresh tx done")
	}
	if _, err := tx.Read(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(0, 2, []byte("w")); err != nil {
		t.Fatal(err)
	}
	if tx.ReadSetSize() != 1 || tx.WriteSetSize() != 1 {
		t.Fatalf("set sizes = %d/%d", tx.ReadSetSize(), tx.WriteSetSize())
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if !tx.Done() {
		t.Fatal("committed tx not done")
	}
}

func TestStaleAddressCacheAfterDeleteAndReuse(t *testing.T) {
	// A key is read (cached), deleted by another node, and its slot
	// reused by a different key; the cached reader must re-resolve.
	schema := []kvlayout.Table{{ID: 0, ValueSize: 16, Slots: 8}}
	e := newEnv(t, envConfig{schema: schema, memNodes: 2, replicas: 2})
	co1 := e.nodes[0].Coordinator(0)
	co2 := e.nodes[1].Coordinator(0)

	// Insert keys until two share a home neighbourhood; with 8 slots
	// that is immediate.
	mustCommit(t, co1, func(tx *Tx) error { return tx.Insert(0, 1, []byte("one")) })
	// Node 0 caches key 1's address.
	if _, err := readKey(t, co1, 0, 1); err != nil {
		t.Fatal(err)
	}
	// Node 1 deletes key 1 and inserts key 2 (which may reuse the slot).
	mustCommit(t, co2, func(tx *Tx) error { return tx.Delete(0, 1) })
	mustCommit(t, co2, func(tx *Tx) error { return tx.Insert(0, 2, []byte("two")) })

	// Node 0's stale cache must not return key 2's value for key 1.
	if v, err := readKey(t, co1, 0, 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("stale cached read = (%q, %v), want ErrNotFound", v, err)
	}
	v, err := readKey(t, co1, 0, 2)
	if err != nil || !bytes.HasPrefix(v, []byte("two")) {
		t.Fatalf("key 2 = (%q, %v)", v, err)
	}
}
