package conftest

import (
	"bytes"
	"encoding/binary"
	"errors"
	"sync"
	"testing"

	pandora "pandora"
)

// Factory builds a fresh cluster for one conformance subtest. The
// returned cluster must satisfy the suite contract:
//
//   - a table named "kv" with ValueSize >= 16 and Capacity >= 1024,
//     initially empty — the suite loads what it needs;
//   - at least 2 compute nodes and at least 2 coordinators per node;
//   - Close registered via tb.Cleanup (the suite never closes it).
//
// Everything else — protocol, knobs (read cache, hot-lock threshold),
// persistence, latency model — is the factory's
// choice; that is the point: one battery, every configuration.
type Factory func(tb testing.TB) *pandora.Cluster

// Table is the table name every Factory must provide.
const Table = "kv"

// Run executes the conformance battery against clusters built by f.
// Each subtest gets its own fresh cluster, so a factory config that
// breaks one invariant fails exactly that subtest.
func Run(t *testing.T, f Factory) {
	t.Run("CommitVisibleAcrossNodes", func(t *testing.T) { testCommitVisible(t, f) })
	t.Run("ReadYourOwnWrites", func(t *testing.T) { testReadYourOwnWrites(t, f) })
	t.Run("AbortDiscards", func(t *testing.T) { testAbortDiscards(t, f) })
	t.Run("InsertDeleteSemantics", func(t *testing.T) { testInsertDelete(t, f) })
	t.Run("NoLostUpdates", func(t *testing.T) { testNoLostUpdates(t, f) })
	t.Run("CrashRecoveryRestart", func(t *testing.T) { testCrashRecoveryRestart(t, f) })
	t.Run("RecoveryIdempotent", func(t *testing.T) { testRecoveryIdempotent(t, f) })
	t.Run("QuiescentConsistency", func(t *testing.T) { testQuiescentConsistency(t, f) })
}

// U64 encodes v into a 16-byte little-endian value buffer (the suite's
// minimum ValueSize; shorter tables are a contract violation).
func U64(v uint64) []byte {
	b := make([]byte, 16)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

// mustLoad seeds keys [0, n) with value U64(k*10).
func mustLoad(tb testing.TB, c *pandora.Cluster, n int) {
	tb.Helper()
	if err := c.LoadN(Table, n, func(k pandora.Key) []byte { return U64(uint64(k) * 10) }); err != nil {
		tb.Fatal(err)
	}
}

// MustRead is ReadValidated with the error routed to tb.Fatal.
func MustRead(tb testing.TB, s *pandora.Session, table string, key pandora.Key) []byte {
	tb.Helper()
	v, err := ReadValidated(s, table, key)
	if err != nil {
		tb.Fatal(err)
	}
	return v
}

func testCommitVisible(t *testing.T, f Factory) {
	c := f(t)
	mustLoad(t, c, 64)
	if err := c.Session(0, 0).Update(10, func(tx *pandora.Tx) error {
		return tx.Write(Table, 7, U64(777))
	}); err != nil {
		t.Fatal(err)
	}
	// The commit must be visible from every node and coordinator, not
	// just the writer's (the read cache must revalidate).
	for node := 0; node < c.ComputeNodes(); node++ {
		if v := MustRead(t, c.Session(node, 1), Table, 7); !bytes.Equal(v, U64(777)) {
			t.Fatalf("node %d sees %v, want 777", node, v)
		}
	}
}

func testReadYourOwnWrites(t *testing.T, f Factory) {
	c := f(t)
	mustLoad(t, c, 64)
	s := c.Session(0, 0)
	err := Committed(s, DefaultReadRetries, func(tx *pandora.Tx) error {
		if err := tx.Write(Table, 3, U64(42)); err != nil {
			return err
		}
		v, err := tx.Read(Table, 3)
		if err != nil {
			return err
		}
		if !bytes.Equal(v, U64(42)) {
			t.Fatalf("read inside tx = %v, want own write 42", v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func testAbortDiscards(t *testing.T, f Factory) {
	c := f(t)
	mustLoad(t, c, 64)
	s := c.Session(0, 0)
	tx := s.Begin()
	if err := tx.Write(Table, 5, U64(666)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if v := MustRead(t, c.Session(1, 0), Table, 5); !bytes.Equal(v, U64(50)) {
		t.Fatalf("aborted write leaked: %v, want the loaded 50", v)
	}
}

func testInsertDelete(t *testing.T, f Factory) {
	c := f(t)
	mustLoad(t, c, 8)
	s := c.Session(0, 0)
	// Insert over a present key must fail with ErrExists.
	tx := s.Begin()
	err := tx.Insert(Table, 2, U64(1))
	if !errors.Is(err, pandora.ErrExists) {
		t.Fatalf("insert over present key: %v, want ErrExists", err)
	}
	if !tx.Done() {
		_ = tx.Abort()
	}
	// Insert a fresh key, then delete it; the read after must miss.
	if err := s.Update(10, func(tx *pandora.Tx) error {
		return tx.Insert(Table, 100, U64(7))
	}); err != nil {
		t.Fatal(err)
	}
	if v := MustRead(t, c.Session(1, 1), Table, 100); !bytes.Equal(v, U64(7)) {
		t.Fatalf("inserted key reads %v, want 7", v)
	}
	if err := s.Update(10, func(tx *pandora.Tx) error {
		return tx.Delete(Table, 100)
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadValidated(c.Session(1, 0), Table, 100); !errors.Is(err, pandora.ErrNotFound) {
		t.Fatalf("deleted key read: %v, want ErrNotFound", err)
	}
}

// testNoLostUpdates hammers one key with read-modify-write increments
// from every node and two coordinators each; OCC must serialize them
// so the final count equals the number of committed increments.
func testNoLostUpdates(t *testing.T, f Factory) {
	c := f(t)
	mustLoad(t, c, 8)
	const perWorker = 20
	var wg sync.WaitGroup
	workers := 0
	for node := 0; node < c.ComputeNodes(); node++ {
		for coord := 0; coord < 2; coord++ {
			workers++
			wg.Add(1)
			go func(node, coord int) {
				defer wg.Done()
				s := c.Session(node, coord)
				for i := 0; i < perWorker; i++ {
					err := s.Update(1000, func(tx *pandora.Tx) error {
						v, err := tx.Read(Table, 0)
						if err != nil {
							return err
						}
						return tx.Write(Table, 0, U64(binary.LittleEndian.Uint64(v)+1))
					})
					if err != nil {
						t.Errorf("increment worker %d/%d: %v", node, coord, err)
						return
					}
				}
			}(node, coord)
		}
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	want := uint64(workers * perWorker) // key 0 loads as 0*10 = 0
	if v := MustRead(t, c.Session(0, 1), Table, 0); binary.LittleEndian.Uint64(v) != want {
		t.Fatalf("final count %d, want %d — lost update", binary.LittleEndian.Uint64(v), want)
	}
}

func testCrashRecoveryRestart(t *testing.T, f Factory) {
	c := f(t)
	mustLoad(t, c, 64)
	if err := c.Session(0, 0).Update(10, func(tx *pandora.Tx) error {
		return tx.Write(Table, 9, U64(99))
	}); err != nil {
		t.Fatal(err)
	}
	c.CrashCompute(0)
	if _, err := c.FailCompute(0); err != nil {
		t.Fatal(err)
	}
	// The survivor must read the committed value while the victim is
	// down (recovery freed whatever the victim still held).
	if v := MustRead(t, c.Session(1, 0), Table, 9); !bytes.Equal(v, U64(99)) {
		t.Fatalf("survivor sees %v, want 99", v)
	}
	if err := c.RestartCompute(0); err != nil {
		t.Fatal(err)
	}
	// The failure is over once the node restarted: a re-run of its pass
	// would fence the new incarnation and truncate its log.
	if _, err := c.ReRecoverCompute(0); err == nil {
		t.Error("ReRecoverCompute re-ran the pass of a restarted node")
	}
	// Sessions must be re-fetched after a restart: the node re-registers
	// with fresh coordinator ids.
	if err := c.Session(0, 0).Update(10, func(tx *pandora.Tx) error {
		return tx.Write(Table, 9, U64(100))
	}); err != nil {
		t.Fatalf("restarted node cannot transact: %v", err)
	}
	if v := MustRead(t, c.Session(1, 1), Table, 9); !bytes.Equal(v, U64(100)) {
		t.Fatalf("post-restart write reads %v, want 100", v)
	}
}

// testRecoveryIdempotent checks §3.2.3: running the recovery pass a
// second time for the same failure must find no work and change no
// observable state.
func testRecoveryIdempotent(t *testing.T, f Factory) {
	c := f(t)
	mustLoad(t, c, 64)
	if err := c.Session(0, 0).Update(10, func(tx *pandora.Tx) error {
		return tx.Write(Table, 4, U64(44))
	}); err != nil {
		t.Fatal(err)
	}
	c.CrashCompute(0)
	if _, err := c.FailCompute(0); err != nil {
		t.Fatal(err)
	}
	before := MustRead(t, c.Session(1, 0), Table, 4)
	st, err := c.ReRecoverCompute(0)
	if err != nil {
		t.Fatal(err)
	}
	if st.LoggedTxs != 0 || st.RolledForward != 0 || st.RolledBack != 0 || st.StrayLocksFreed != 0 {
		t.Fatalf("second recovery pass did work: %+v", st)
	}
	after := MustRead(t, c.Session(1, 0), Table, 4)
	if !bytes.Equal(before, after) {
		t.Fatalf("second recovery pass changed state: %v -> %v", before, after)
	}
}

func testQuiescentConsistency(t *testing.T, f Factory) {
	c := f(t)
	mustLoad(t, c, 128)
	// Churn a little from both nodes, then audit.
	for node := 0; node < c.ComputeNodes(); node++ {
		s := c.Session(node, 0)
		for k := 0; k < 16; k++ {
			if err := s.Update(100, func(tx *pandora.Tx) error {
				return tx.Write(Table, pandora.Key(k), U64(uint64(node*1000+k)))
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	rep, err := c.CheckConsistency(Table)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.DuplicateKeys) != 0 || len(rep.DivergentKeys) != 0 {
		t.Fatalf("structural violations: dup=%v divergent=%v", rep.DuplicateKeys, rep.DivergentKeys)
	}
	if rep.LockedSlots != 0 {
		t.Fatalf("%d locked slots on a quiescent cluster", rep.LockedSlots)
	}
	if rep.Keys != 128 {
		t.Fatalf("audit found %d keys, want 128", rep.Keys)
	}
}
