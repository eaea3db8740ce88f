package pandora_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	pandora "pandora"
	"pandora/internal/conftest"
)

func testConfig() pandora.Config {
	return pandora.Config{
		Tables: []pandora.TableSpec{
			{Name: "kv", ValueSize: 16, Capacity: 4096},
		},
	}
}

func u64(v uint64) []byte {
	b := make([]byte, 16)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

// readValidated reads one key in a committed read-only transaction,
// retrying validation aborts: a stale read-cache hit is rejected (and
// invalidated) at commit, so the retry observes the committed state.
// The retry loop itself lives in conftest, shared with the chaos
// harness and the conformance suite.
func readValidated(t testing.TB, s *pandora.Session, table string, key pandora.Key) []byte {
	t.Helper()
	return conftest.MustRead(t, s, table, key)
}

func newLoaded(t testing.TB, cfg pandora.Config, n int) *pandora.Cluster {
	t.Helper()
	c, err := pandora.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.LoadN("kv", n, func(k pandora.Key) []byte { return u64(uint64(k) * 10) }); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestClusterQuickstart(t *testing.T) {
	c := newLoaded(t, testConfig(), 100)
	s := c.Session(0, 0)

	tx := s.Begin()
	v, err := tx.Read("kv", 7)
	if err != nil {
		t.Fatal(err)
	}
	if binary.LittleEndian.Uint64(v) != 70 {
		t.Fatalf("read %v", v)
	}
	if err := tx.Write("kv", 7, u64(71)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("kv", 5000, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	tx = s.Begin()
	v, _ = tx.Read("kv", 7)
	if binary.LittleEndian.Uint64(v) != 71 {
		t.Fatalf("post-commit read %v", v)
	}
	v, err = tx.Read("kv", 5000)
	if err != nil || !bytes.HasPrefix(v, []byte("hello")) {
		t.Fatalf("insert read = (%q, %v)", v, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownTable(t *testing.T) {
	c := newLoaded(t, testConfig(), 10)
	tx := c.Session(0, 0).Begin()
	if _, err := tx.Read("nope", 1); err == nil {
		t.Fatal("read of unknown table succeeded")
	}
	_ = tx.Abort()
	if err := c.Load("nope", nil); err == nil {
		t.Fatal("load of unknown table succeeded")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := pandora.New(pandora.Config{}); err == nil {
		t.Fatal("config without tables accepted")
	}
	cfg := testConfig()
	cfg.Replication = 5
	cfg.MemoryNodes = 2
	if _, err := pandora.New(cfg); err == nil {
		t.Fatal("replication > memory nodes accepted")
	}
	cfg = testConfig()
	cfg.Tables = append(cfg.Tables, pandora.TableSpec{Name: "kv", ValueSize: 8, Capacity: 8})
	if _, err := pandora.New(cfg); err == nil {
		t.Fatal("duplicate table accepted")
	}
	cfg = testConfig()
	cfg.Tables = append(cfg.Tables, pandora.TableSpec{Name: "huge", ValueSize: 8, Capacity: 1 << 40})
	if _, err := pandora.New(cfg); err == nil {
		t.Fatal("table of more than 1<<32 slots per partition accepted")
	}
}

func TestUpdateRetries(t *testing.T) {
	cfg := testConfig()
	cfg.CoordinatorsPerNode = 3
	c := newLoaded(t, cfg, 64)
	// One worker per coordinator: a Session is single-threaded.
	workers := c.ComputeNodes() * c.CoordinatorsPerNode()
	const increments = 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := c.Session(w%c.ComputeNodes(), w/c.ComputeNodes())
			for i := 0; i < increments; i++ {
				err := s.Update(1000, func(tx *pandora.Tx) error {
					v, err := tx.Read("kv", 1)
					if err != nil {
						return err
					}
					return tx.Write("kv", 1, u64(binary.LittleEndian.Uint64(v)+1))
				})
				if err != nil {
					t.Errorf("update: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	v := readValidated(t, c.Session(0, 0), "kv", 1)
	if got := binary.LittleEndian.Uint64(v); got != uint64(10+workers*increments) {
		t.Fatalf("counter = %d, want %d", got, 10+workers*increments)
	}
}

func TestFailComputeRecoversAndSurvivorsProceed(t *testing.T) {
	c := newLoaded(t, testConfig(), 256)

	// The victim locks keys then crashes mid-protocol via the engine's
	// injector (white-box access through Engine).
	victim := c.Engine(0)
	victimSess := c.Session(0, 0)
	crashed := false
	victim.SetInjector(nil)
	tx := victimSess.Begin()
	if err := tx.Write("kv", 1, u64(111)); err != nil {
		t.Fatal(err)
	}
	// Crash before commit: lock held, nothing logged.
	c.CrashCompute(0)
	if err := tx.Commit(); err == nil {
		t.Fatal("commit on crashed node succeeded")
	}
	crashed = true
	_ = crashed

	stats, err := c.FailCompute(0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.WallTime == 0 {
		t.Fatal("recovery did not run")
	}

	// Survivor steals and proceeds; old value intact.
	s := c.Session(1, 0)
	tx2 := s.Begin()
	v, err := tx2.Read("kv", 1)
	if err != nil {
		t.Fatalf("survivor read: %v", err)
	}
	if binary.LittleEndian.Uint64(v) != 10 {
		t.Fatalf("value corrupted by crashed tx: %v", v)
	}
	if err := tx2.Write("kv", 1, u64(222)); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestRestartComputeRejoins(t *testing.T) {
	c := newLoaded(t, testConfig(), 64)
	if _, err := c.FailCompute(0); err != nil {
		t.Fatal(err)
	}
	if err := c.RestartCompute(0); err != nil {
		t.Fatal(err)
	}
	// The restarted node has fresh coordinator-ids and can transact.
	s := c.Session(0, 0)
	if err := s.Update(10, func(tx *pandora.Tx) error {
		return tx.Write("kv", 2, u64(999))
	}); err != nil {
		t.Fatal(err)
	}
	// And sees the failed-ids state (its old ids are failed).
	tx := c.Session(1, 0).Begin()
	v, err := tx.Read("kv", 2)
	if err != nil || binary.LittleEndian.Uint64(v) != 999 {
		t.Fatalf("cross-node read after restart = (%v, %v)", v, err)
	}
	_ = tx.Commit()
}

// TestRestartComputeKeepsOptions: a restarted node runs with the
// cluster's configuration, knob for knob — the options are built in one
// place (Cluster.engineOptions) for New and RestartCompute alike.
func TestRestartComputeKeepsOptions(t *testing.T) {
	cfg := testConfig()
	cfg.VerbTimeout = 250 * time.Millisecond
	cfg.ReadCacheSize = 17
	c := newLoaded(t, cfg, 8)
	before := c.Engine(0).Options()
	if _, err := c.FailCompute(0); err != nil {
		t.Fatal(err)
	}
	if err := c.RestartCompute(0); err != nil {
		t.Fatal(err)
	}
	got := c.Engine(0).Options()
	if got.VerbTimeout != cfg.VerbTimeout || got.ReadCacheSize != cfg.ReadCacheSize {
		t.Fatalf("restarted node lost configuration: %+v", got)
	}
	if got.Protocol != before.Protocol || got.Persist != before.Persist || got.DisablePILL != before.DisablePILL ||
		got.StallOnConflict != before.StallOnConflict || got.Bugs != before.Bugs || got.Metrics != before.Metrics {
		t.Fatalf("restarted node's options differ from its first incarnation's:\n got %+v\nwant %+v", got, before)
	}
}

func TestZombieFencedAtClusterLevel(t *testing.T) {
	c := newLoaded(t, testConfig(), 64)
	zombieSess := c.Session(0, 0)
	ztx := zombieSess.Begin()
	if err := ztx.Write("kv", 9, u64(666)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FailComputeSoft(0); err != nil {
		t.Fatal(err)
	}
	if err := ztx.Commit(); err == nil {
		t.Fatal("zombie committed after fencing")
	}
	tx := c.Session(1, 0).Begin()
	v, err := tx.Read("kv", 9)
	if err != nil || binary.LittleEndian.Uint64(v) != 90 {
		t.Fatalf("zombie corrupted data: (%v, %v)", v, err)
	}
	_ = tx.Commit()
}

func TestMemoryFailurePromotionAndRereplication(t *testing.T) {
	cfg := testConfig()
	cfg.MemoryNodes = 2
	cfg.Replication = 2
	c := newLoaded(t, cfg, 128)

	if err := c.FailMemory(0); err != nil {
		t.Fatal(err)
	}
	// All keys survive via promotion.
	s := c.Session(0, 0)
	for k := pandora.Key(0); k < 128; k++ {
		tx := s.Begin()
		v, err := tx.Read("kv", k)
		if err != nil {
			t.Fatalf("key %d after memory failure: %v", k, err)
		}
		if binary.LittleEndian.Uint64(v) != uint64(k)*10 {
			t.Fatalf("key %d corrupted: %v", k, v)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// Restore redundancy, then lose the other original server.
	if _, err := c.Rereplicate(0); err != nil {
		t.Fatal(err)
	}
	if err := c.FailMemory(1); err != nil {
		t.Fatal(err)
	}
	tx := s.Begin()
	v, err := tx.Read("kv", 64)
	if err != nil || binary.LittleEndian.Uint64(v) != 640 {
		t.Fatalf("read from replacement = (%v, %v)", v, err)
	}
	if err := tx.Write("kv", 64, u64(1)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestRereplicateKeepsOtherDeadMemory loses two of three replicas and
// replaces only the first: the second is still dead afterwards, so the
// partitions it leads must keep resolving past it.
func TestRereplicateKeepsOtherDeadMemory(t *testing.T) {
	cfg := testConfig()
	cfg.MemoryNodes = 3
	cfg.Replication = 3
	c := newLoaded(t, cfg, 64)
	for _, m := range []int{0, 1} {
		if err := c.FailMemory(m); err != nil {
			t.Fatal(err)
		}
	}
	readAll := func(when string) {
		t.Helper()
		s := c.Session(0, 0)
		for k := pandora.Key(0); k < 64; k++ {
			if v := readValidated(t, s, "kv", k); binary.LittleEndian.Uint64(v) != uint64(k)*10 {
				t.Fatalf("%s: key %d = %v", when, k, v)
			}
		}
	}
	readAll("two replicas down")
	if _, err := c.Rereplicate(0); err != nil {
		t.Fatal(err)
	}
	readAll("first one replaced, second still down")
}

func TestLiveFDDetectsAndRecovers(t *testing.T) {
	cfg := testConfig()
	cfg.LiveFD = true
	cfg.FDTimeout = 20 * time.Millisecond
	c := newLoaded(t, cfg, 64)

	// Victim locks a key and silently dies.
	tx := c.Session(0, 0).Begin()
	if err := tx.Write("kv", 3, u64(1)); err != nil {
		t.Fatal(err)
	}
	c.CrashCompute(0)

	// The heartbeat timeout must detect it and recovery must free the
	// lock; the survivor eventually writes the key.
	s := c.Session(1, 0)
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := s.Update(0, func(tx *pandora.Tx) error {
			return tx.Write("kv", 3, u64(42))
		})
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("survivor still blocked after live detection window: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	st, err := c.LastRecovery(0)
	if err != nil {
		t.Fatal(err)
	}
	if st.WallTime == 0 {
		t.Fatal("no recovery stats recorded")
	}
}

func TestDistributedFDCluster(t *testing.T) {
	cfg := testConfig()
	cfg.FDReplicas = 3
	c := newLoaded(t, cfg, 64)
	tx := c.Session(0, 0).Begin()
	if err := tx.Write("kv", 5, u64(5)); err != nil {
		t.Fatal(err)
	}
	c.CrashCompute(0)
	_ = tx
	if _, err := c.FailCompute(0); err != nil {
		t.Fatal(err)
	}
	if err := c.Session(1, 0).Update(5, func(tx *pandora.Tx) error {
		return tx.Write("kv", 5, u64(50))
	}); err != nil {
		t.Fatal(err)
	}
}

func TestScanRecoveryCluster(t *testing.T) {
	cfg := testConfig()
	cfg.Protocol = pandora.ProtocolFORD
	cfg.DisablePILL = true
	cfg.ScanRecovery = true
	cfg.ModelLatency = true
	c := newLoaded(t, cfg, 64)

	tx := c.Session(0, 0).Begin()
	if err := tx.Write("kv", 8, u64(8)); err != nil {
		t.Fatal(err)
	}
	c.CrashCompute(0)
	stats, err := c.FailCompute(0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.VTime == 0 {
		t.Fatal("scan recovery charged no time")
	}
	if err := c.Session(1, 0).Update(5, func(tx *pandora.Tx) error {
		return tx.Write("kv", 8, u64(80))
	}); err != nil {
		t.Fatalf("survivor blocked after scan recovery: %v", err)
	}
}

func TestBankConservationAcrossComputeFailure(t *testing.T) {
	cfg := testConfig()
	cfg.ComputeNodes = 2
	cfg.CoordinatorsPerNode = 4
	c := newLoaded(t, cfg, 32) // initial balance k*10; total = 10*(31*32/2)
	var wantTotal uint64
	for k := 0; k < 32; k++ {
		wantTotal += uint64(k) * 10
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := c.Session(w%2, w/2%4)
			rng := uint64(w)*2654435761 + 12345
			next := func(n uint64) uint64 { rng = rng*6364136223846793005 + 1; return rng % n }
			for {
				select {
				case <-stop:
					return
				default:
				}
				from, to := pandora.Key(next(32)), pandora.Key(next(32))
				if from == to {
					continue
				}
				err := func() error {
					tx := s.Begin()
					fv, err := tx.Read("kv", from)
					if err != nil {
						return err
					}
					tv, err := tx.Read("kv", to)
					if err != nil {
						return err
					}
					f := binary.LittleEndian.Uint64(fv)
					g := binary.LittleEndian.Uint64(tv)
					amt := next(10)
					if f < amt {
						return tx.Abort()
					}
					if err := tx.Write("kv", from, u64(f-amt)); err != nil {
						return err
					}
					if err := tx.Write("kv", to, u64(g+amt)); err != nil {
						return err
					}
					return tx.Commit()
				}()
				if err != nil && !pandora.IsAborted(err) && !errors.Is(err, pandora.ErrTxDone) {
					// Crashed node workers stop here.
					return
				}
			}
		}(w)
	}

	time.Sleep(20 * time.Millisecond)
	if _, err := c.FailCompute(0); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()

	// The sweep session's read cache may hold entries made stale by the
	// other coordinators' transfers; a stale hit is rejected (and
	// invalidated) at commit, so retry validation aborts — the retry
	// reads the committed state.
	var total uint64
	s := c.Session(1, 0)
	for attempt := 0; ; attempt++ {
		total = 0
		tx := s.Begin()
		err := func() error {
			for k := pandora.Key(0); k < 32; k++ {
				v, err := tx.Read("kv", k)
				if err != nil {
					return err
				}
				total += binary.LittleEndian.Uint64(v)
			}
			return tx.Commit()
		}()
		if err == nil {
			break
		}
		_ = tx.Abort()
		if !pandora.IsAborted(err) || attempt >= 8 {
			t.Fatalf("conservation sweep (attempt %d): %v", attempt, err)
		}
	}
	if total != wantTotal {
		t.Fatalf("total = %d, want %d — recovery created or destroyed money", total, wantTotal)
	}
}

func TestRecycleCoordinatorIDsCluster(t *testing.T) {
	c := newLoaded(t, testConfig(), 64)
	tx := c.Session(0, 0).Begin()
	if err := tx.Write("kv", 11, u64(1)); err != nil {
		t.Fatal(err)
	}
	c.CrashCompute(0)
	// Deliberately skip normal recovery notification: use NoAutoRecover?
	// Simpler: fail and then also recycle; recycle must be a no-op for
	// already-released locks and the id space resets.
	if _, err := c.FailCompute(0); err != nil {
		t.Fatal(err)
	}
	released := c.RecycleCoordinatorIDs()
	_ = released // locks may already have been released by log recovery
	if c.Detector().UsedIDs() != 0 {
		t.Fatal("id space not reset after recycling")
	}
}

func ExampleCluster() {
	c, err := pandora.New(pandora.Config{
		Tables: []pandora.TableSpec{{Name: "accounts", ValueSize: 16, Capacity: 1000}},
	})
	if err != nil {
		panic(err)
	}
	defer c.Close()
	_ = c.LoadN("accounts", 10, func(k pandora.Key) []byte { return u64(100) })

	s := c.Session(0, 0)
	_ = s.Update(10, func(tx *pandora.Tx) error {
		v, err := tx.Read("accounts", 1)
		if err != nil {
			return err
		}
		return tx.Write("accounts", 1, u64(binary.LittleEndian.Uint64(v)+1))
	})
	tx := s.Begin()
	v, _ := tx.Read("accounts", 1)
	_ = tx.Commit()
	fmt.Println(binary.LittleEndian.Uint64(v))
	// Output: 101
}

func TestCheckConsistency(t *testing.T) {
	c := newLoaded(t, testConfig(), 200)
	rep, err := c.CheckConsistency("kv")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Keys != 200 || len(rep.DuplicateKeys) != 0 || len(rep.DivergentKeys) != 0 || rep.LockedSlots != 0 {
		t.Fatalf("fresh cluster consistency: %+v", rep)
	}
	if _, err := c.CheckConsistency("nope"); err == nil {
		t.Fatal("unknown table accepted")
	}

	// Mutations keep it consistent.
	s := c.Session(0, 0)
	for i := 0; i < 50; i++ {
		if err := s.Update(10, func(tx *pandora.Tx) error {
			return tx.Write("kv", pandora.Key(i%200), u64(uint64(i)))
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Update(5, func(tx *pandora.Tx) error { return tx.Delete("kv", 3) }); err != nil {
		t.Fatal(err)
	}
	if err := s.Update(5, func(tx *pandora.Tx) error { return tx.Insert("kv", 9999, []byte("new")) }); err != nil {
		t.Fatal(err)
	}
	rep, err = c.CheckConsistency("kv")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Keys != 200 || len(rep.DuplicateKeys) != 0 || len(rep.DivergentKeys) != 0 || rep.LockedSlots != 0 {
		t.Fatalf("post-mutation consistency: %+v", rep)
	}
}

func TestLossyTransportPreservesCorrectness(t *testing.T) {
	// §2.1's failure model: message loss and duplication are masked by
	// the reliable-connection transport. A full concurrent run plus a
	// compute failure behaves identically under 20% loss.
	cfg := testConfig()
	cfg.LossProb = 0.2
	cfg.DupProb = 0.1
	c := newLoaded(t, cfg, 64)

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := c.Session(w%2, w/2)
			for i := 0; i < 100; i++ {
				err := s.Update(50, func(tx *pandora.Tx) error {
					v, err := tx.Read("kv", 1)
					if err != nil {
						return err
					}
					return tx.Write("kv", 1, u64(binary.LittleEndian.Uint64(v)+1))
				})
				if err != nil && !errors.Is(err, pandora.ErrTxDone) {
					t.Errorf("update under loss: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	v := readValidated(t, c.Session(0, 0), "kv", 1)
	if got := binary.LittleEndian.Uint64(v); got != 10+400 {
		t.Fatalf("counter = %d under lossy transport, want 410", got)
	}
	if _, err := c.FailCompute(0); err != nil {
		t.Fatal(err)
	}
	if err := c.Session(1, 0).Update(10, func(tx *pandora.Tx) error {
		return tx.Write("kv", 2, u64(7))
	}); err != nil {
		t.Fatal(err)
	}
}
