package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"pandora/internal/kvlayout"
	"pandora/internal/rdma"
)

func TestCommitReadRoundTrip(t *testing.T) {
	for _, proto := range []Protocol{ProtocolPandora, ProtocolFORD, ProtocolTradLog} {
		t.Run(proto.String(), func(t *testing.T) {
			e := newEnv(t, envConfig{opts: Options{Protocol: proto}})
			e.preload(t, 0, 64, func(k kvlayout.Key) []byte { return val16(k, 0) })
			co := e.nodes[0].Coordinator(0)

			mustCommit(t, co, func(tx *Tx) error {
				return tx.Write(0, 7, []byte("updated-value-7"))
			})
			v, err := readKey(t, co, 0, 7)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(v, []byte("updated-value-7")) {
				t.Fatalf("read %q", v)
			}
			// Visible from another compute node too.
			v2, err := readKey(t, e.nodes[1].Coordinator(0), 0, 7)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(v, v2) {
				t.Fatalf("replica view differs: %q vs %q", v, v2)
			}
		})
	}
}

func TestReadYourWrites(t *testing.T) {
	e := newEnv(t, envConfig{})
	e.preload(t, 0, 16, func(k kvlayout.Key) []byte { return val16(k, 0) })
	co := e.nodes[0].Coordinator(0)

	tx := co.Begin()
	if err := tx.Write(0, 3, []byte("pending")); err != nil {
		t.Fatal(err)
	}
	v, err := tx.Read(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(v, []byte("pending")) {
		t.Fatalf("read-your-writes got %q", v)
	}
	if err := tx.Delete(0, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Read(0, 3); !errors.Is(err, ErrNotFound) {
		t.Fatalf("read of own delete: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := readKey(t, co, 0, 3); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted key still readable: %v", err)
	}
}

func TestRepeatedReadsCached(t *testing.T) {
	e := newEnv(t, envConfig{})
	e.preload(t, 0, 8, func(k kvlayout.Key) []byte { return val16(k, 0) })
	co := e.nodes[0].Coordinator(0)
	tx := co.Begin()
	v1, err := tx.Read(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := tx.Read(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v1, v2) {
		t.Fatal("second read of same key differs")
	}
	if len(tx.reads) != 1 {
		t.Fatalf("read-set has %d entries, want 1", len(tx.reads))
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestReadNotFound(t *testing.T) {
	e := newEnv(t, envConfig{})
	e.preload(t, 0, 8, func(k kvlayout.Key) []byte { return val16(k, 0) })
	co := e.nodes[0].Coordinator(0)
	tx := co.Begin()
	if _, err := tx.Read(0, 9999); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteNotFound(t *testing.T) {
	e := newEnv(t, envConfig{})
	e.preload(t, 0, 8, func(k kvlayout.Key) []byte { return val16(k, 0) })
	co := e.nodes[0].Coordinator(0)
	tx := co.Begin()
	if err := tx.Write(0, 12345, []byte("x")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	_ = tx.Abort()
}

func TestInsertLifecycle(t *testing.T) {
	e := newEnv(t, envConfig{})
	e.preload(t, 0, 8, func(k kvlayout.Key) []byte { return val16(k, 0) })
	co := e.nodes[0].Coordinator(0)

	mustCommit(t, co, func(tx *Tx) error {
		return tx.Insert(0, 500, []byte("fresh"))
	})
	v, err := readKey(t, co, 0, 500)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(v, []byte("fresh")) {
		t.Fatalf("inserted value = %q", v)
	}

	// Duplicate insert fails.
	tx := co.Begin()
	if err := tx.Insert(0, 500, []byte("dup")); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate insert err = %v", err)
	}
	_ = tx.Abort()

	// Delete then re-insert reuses the tombstone.
	mustCommit(t, co, func(tx *Tx) error { return tx.Delete(0, 500) })
	if _, err := readKey(t, co, 0, 500); !errors.Is(err, ErrNotFound) {
		t.Fatalf("post-delete read: %v", err)
	}
	mustCommit(t, co, func(tx *Tx) error { return tx.Insert(0, 500, []byte("again")) })
	v, err = readKey(t, co, 0, 500)
	if err != nil || !bytes.HasPrefix(v, []byte("again")) {
		t.Fatalf("re-insert read = (%q, %v)", v, err)
	}
}

func TestInsertVisibleOnlyAfterCommit(t *testing.T) {
	e := newEnv(t, envConfig{})
	co1 := e.nodes[0].Coordinator(0)
	co2 := e.nodes[1].Coordinator(0)

	tx := co1.Begin()
	if err := tx.Insert(0, 77, []byte("uncommitted")); err != nil {
		t.Fatal(err)
	}
	if _, err := readKey(t, co2, 0, 77); !errors.Is(err, ErrNotFound) {
		t.Fatalf("uncommitted insert visible: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := readKey(t, co2, 0, 77); err != nil {
		t.Fatalf("committed insert invisible: %v", err)
	}
}

func TestInsertAbortLeavesNoKey(t *testing.T) {
	e := newEnv(t, envConfig{})
	co := e.nodes[0].Coordinator(0)
	tx := co.Begin()
	if err := tx.Insert(0, 88, []byte("ghost")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if _, err := readKey(t, co, 0, 88); !errors.Is(err, ErrNotFound) {
		t.Fatalf("aborted insert visible: %v", err)
	}
	// The slot can be claimed again.
	mustCommit(t, co, func(tx *Tx) error { return tx.Insert(0, 88, []byte("real")) })
	if _, err := readKey(t, co, 0, 88); err != nil {
		t.Fatal(err)
	}
}

func TestProbeChainSurvivesCrowding(t *testing.T) {
	// A tiny table forces long probe chains with interleaved inserts,
	// deletes and aborts; every committed key must stay reachable.
	schema := []kvlayout.Table{{ID: 0, ValueSize: 16, Slots: 64}}
	e := newEnv(t, envConfig{schema: schema})
	co := e.nodes[0].Coordinator(0)

	present := map[kvlayout.Key]bool{}
	for i := 0; i < 40; i++ {
		k := kvlayout.Key(i)
		tx := co.Begin()
		if err := tx.Insert(0, k, val16(k, i)); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
		if i%3 == 0 {
			_ = tx.Abort()
		} else {
			if err := tx.Commit(); err != nil {
				t.Fatalf("commit %d: %v", k, err)
			}
			present[k] = true
		}
	}
	// Delete a third of the committed keys.
	i := 0
	for k := range present {
		if i%3 == 0 {
			mustCommit(t, co, func(tx *Tx) error { return tx.Delete(0, k) })
			delete(present, k)
		}
		i++
	}
	// Every committed key is readable with the right value; all others
	// are absent — from a coordinator with a cold address cache.
	cold := e.nodes[1].Coordinator(0)
	for k := kvlayout.Key(0); k < 40; k++ {
		v, err := readKey(t, cold, 0, k)
		if present[k] {
			if err != nil {
				t.Fatalf("committed key %d unreachable: %v", k, err)
			}
			if !bytes.Equal(v, padValue(schema[0], val16(k, int(k)))) {
				t.Fatalf("key %d value %q", k, v)
			}
		} else if !errors.Is(err, ErrNotFound) {
			t.Fatalf("absent key %d: err=%v v=%q", k, err, v)
		}
	}
}

func TestConflictAborts(t *testing.T) {
	e := newEnv(t, envConfig{})
	e.preload(t, 0, 8, func(k kvlayout.Key) []byte { return val16(k, 0) })
	co1 := e.nodes[0].Coordinator(0)
	co2 := e.nodes[0].Coordinator(1)

	tx1 := co1.Begin()
	if err := tx1.Write(0, 5, []byte("one")); err != nil {
		t.Fatal(err)
	}
	// tx2's lock doorbell, posted at Write, hits tx1's lock; the conflict
	// surfaces where the doorbell settles, at Commit.
	tx2 := co2.Begin()
	if err := tx2.Write(0, 5, []byte("two")); err != nil {
		t.Fatal(err)
	}
	err := tx2.Commit()
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("conflicting write err = %v, want ErrAborted", err)
	}
	if AbortReason(err) == "" {
		t.Fatal("abort reason empty")
	}
	if !tx2.AckedAbort {
		t.Fatal("abort not acknowledged to client")
	}
	// tx2 is dead; further use fails.
	if err := tx2.Commit(); !errors.Is(err, ErrTxDone) {
		t.Fatalf("commit after abort err = %v", err)
	}
	// tx1 proceeds unharmed.
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestReadOfLockedKeyAborts(t *testing.T) {
	e := newEnv(t, envConfig{})
	e.preload(t, 0, 8, func(k kvlayout.Key) []byte { return val16(k, 0) })
	co1 := e.nodes[0].Coordinator(0)
	co2 := e.nodes[0].Coordinator(1)

	tx1 := co1.Begin()
	if err := tx1.Write(0, 2, []byte("locked")); err != nil {
		t.Fatal(err)
	}
	tx2 := co2.Begin()
	if _, err := tx2.Read(0, 2); !errors.Is(err, ErrAborted) {
		t.Fatalf("read of locked key err = %v, want ErrAborted", err)
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestValidationCatchesVersionChange(t *testing.T) {
	e := newEnv(t, envConfig{})
	e.preload(t, 0, 8, func(k kvlayout.Key) []byte { return val16(k, 0) })
	co1 := e.nodes[0].Coordinator(0)
	co2 := e.nodes[0].Coordinator(1)

	// tx1 reads X, then tx2 updates X and commits; tx1 must fail
	// validation (lost-update prevention).
	tx1 := co1.Begin()
	if _, err := tx1.Read(0, 1); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, co2, func(tx *Tx) error { return tx.Write(0, 1, []byte("newer")) })
	if err := tx1.Write(0, 4, []byte("derived")); err != nil {
		t.Fatal(err)
	}
	if err := tx1.Commit(); !errors.Is(err, ErrAborted) {
		t.Fatalf("stale-read commit err = %v, want ErrAborted", err)
	}
	// The derived write must not have been applied.
	v, err := readKey(t, co1, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.HasPrefix(v, []byte("derived")) {
		t.Fatal("aborted transaction's write is visible")
	}
}

func TestReadModifyWriteOwnLockPassesValidation(t *testing.T) {
	e := newEnv(t, envConfig{})
	e.preload(t, 0, 8, func(k kvlayout.Key) []byte { return val16(k, 0) })
	co := e.nodes[0].Coordinator(0)
	tx := co.Begin()
	v, err := tx.Read(0, 6)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(0, 6, append([]byte("rmw-"), v[:4]...)); err != nil {
		t.Fatal(err)
	}
	// Validation re-reads key 6 and sees our own lock; that must not
	// abort.
	if err := tx.Commit(); err != nil {
		t.Fatalf("RMW commit: %v", err)
	}
}

func TestReadOnlyTxCommits(t *testing.T) {
	e := newEnv(t, envConfig{})
	e.preload(t, 0, 8, func(k kvlayout.Key) []byte { return val16(k, 0) })
	co := e.nodes[0].Coordinator(0)
	tx := co.Begin()
	for k := kvlayout.Key(0); k < 4; k++ {
		if _, err := tx.Read(0, k); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if !tx.AckedCommit {
		t.Fatal("read-only commit not acked")
	}
}

func TestConcurrentIncrementsConserveTotal(t *testing.T) {
	for _, proto := range []Protocol{ProtocolPandora, ProtocolFORD, ProtocolTradLog} {
		t.Run(proto.String(), func(t *testing.T) {
			e := newEnv(t, envConfig{computes: 2, coordsPer: 4, opts: Options{Protocol: proto}})
			e.preload(t, 0, 4, func(k kvlayout.Key) []byte { return make([]byte, 16) })

			const perWorker = 200
			var wg sync.WaitGroup
			var committed [8]int
			w := 0
			for _, cn := range e.nodes {
				for _, co := range cn.Coordinators() {
					wg.Add(1)
					go func(w int, co *Coordinator) {
						defer wg.Done()
						for i := 0; i < perWorker; {
							tx := co.Begin()
							v, err := tx.Read(0, 0)
							if err == nil {
								n := kvlayout.Uint64(v)
								buf := make([]byte, 16)
								kvlayout.PutUint64(buf, n+1)
								err = tx.Write(0, 0, buf)
							}
							if err == nil {
								err = tx.Commit()
							}
							if err == nil {
								committed[w]++
								i++
								continue
							}
							if errors.Is(err, ErrAborted) {
								continue // retry
							}
							t.Errorf("worker %d: %v", w, err)
							return
						}
					}(w, co)
					w++
				}
			}
			wg.Wait()
			total := 0
			for _, c := range committed {
				total += c
			}
			v, err := readKey(t, e.nodes[0].Coordinator(0), 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if got := kvlayout.Uint64(v); got != uint64(total) {
				t.Fatalf("counter = %d after %d committed increments (lost updates!)", got, total)
			}
		})
	}
}

func TestBankTransferConservation(t *testing.T) {
	e := newEnv(t, envConfig{computes: 2, coordsPer: 3})
	const accounts = 16
	const initial = 1000
	e.preload(t, 0, accounts, func(k kvlayout.Key) []byte {
		buf := make([]byte, 16)
		kvlayout.PutUint64(buf, initial)
		return buf
	})

	var wg sync.WaitGroup
	for n, cn := range e.nodes {
		for c, co := range cn.Coordinators() {
			wg.Add(1)
			go func(seed uint64, co *Coordinator) {
				defer wg.Done()
				rng := seed*2654435761 + 1
				next := func(n uint64) uint64 { rng = rng*6364136223846793005 + 1442695040888963407; return rng % n }
				for i := 0; i < 150; i++ {
					from := kvlayout.Key(next(accounts))
					to := kvlayout.Key(next(accounts))
					if from == to {
						continue
					}
					tx := co.Begin()
					fv, err := tx.Read(0, from)
					if err == nil {
						var tv []byte
						tv, err = tx.Read(0, to)
						if err == nil {
							f, tt := kvlayout.Uint64(fv), kvlayout.Uint64(tv)
							amt := next(50)
							if f >= amt {
								fb, tb := make([]byte, 16), make([]byte, 16)
								kvlayout.PutUint64(fb, f-amt)
								kvlayout.PutUint64(tb, tt+amt)
								if err = tx.Write(0, from, fb); err == nil {
									err = tx.Write(0, to, tb)
								}
							}
						}
					}
					if err == nil {
						err = tx.Commit()
					}
					if err != nil && !errors.Is(err, ErrAborted) && !errors.Is(err, ErrTxDone) {
						t.Errorf("transfer: %v", err)
						return
					}
				}
			}(uint64(n*10+c+1), co)
		}
	}
	wg.Wait()

	// Sum all accounts in one read-only transaction, retrying validation
	// aborts (the read cache may serve versions the workers have since
	// overwritten; validation rejects and invalidates them).
	var total uint64
	co := e.nodes[0].Coordinator(0)
	for attempt := 0; ; attempt++ {
		total = 0
		tx := co.Begin()
		var rerr error
		for k := kvlayout.Key(0); k < accounts; k++ {
			v, err := tx.Read(0, k)
			if err != nil {
				rerr = err
				break
			}
			total += kvlayout.Uint64(v)
		}
		if rerr != nil {
			t.Fatal(rerr)
		}
		err := tx.Commit()
		if err == nil {
			break
		}
		if !errors.Is(err, ErrAborted) || attempt >= 3 {
			t.Fatal(err)
		}
	}
	if total != accounts*initial {
		t.Fatalf("total balance %d, want %d (money created or destroyed)", total, accounts*initial)
	}
}

func TestStallOnConflictWaits(t *testing.T) {
	e := newEnv(t, envConfig{opts: Options{StallOnConflict: true}})
	e.preload(t, 0, 8, func(k kvlayout.Key) []byte { return val16(k, 0) })
	co1 := e.nodes[0].Coordinator(0)
	co2 := e.nodes[0].Coordinator(1)

	tx1 := co1.Begin()
	if err := tx1.Write(0, 1, []byte("holder")); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		tx2 := co2.Begin()
		if err := tx2.Write(0, 1, []byte("waiter")); err != nil {
			done <- err
			return
		}
		done <- tx2.Commit()
	}()
	select {
	case err := <-done:
		t.Fatalf("stalling writer finished while lock held: %v", err)
	case <-time.After(20 * time.Millisecond): //pandora:wallclock real-concurrency test: window proving the blocked path stays blocked
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("stalled writer failed after unlock: %v", err)
		}
	case <-time.After(2 * time.Second): //pandora:wallclock real-concurrency test: liveness timeout
		t.Fatal("stalled writer never proceeded")
	}
	v, _ := readKey(t, co1, 0, 1)
	if !bytes.HasPrefix(v, []byte("waiter")) {
		t.Fatalf("final value %q", v)
	}
}

func TestPILLStealOfStrayLock(t *testing.T) {
	e := newEnv(t, envConfig{})
	e.preload(t, 0, 8, func(k kvlayout.Key) []byte { return val16(k, 0) })
	cn := e.nodes[0]
	co := cn.Coordinator(0)

	// Plant a stray lock owned by a fake failed coordinator 999.
	ref, found, err := cn.resolve(co.ep, 0, 3)
	if err != nil || !found {
		t.Fatalf("resolve: %v %v", found, err)
	}
	reps, _ := cn.replicasFor(ref.partition)
	primary := reps[0]
	straysWord := kvlayout.LockWord(999, 1)
	if _, sw, err := co.ep.CAS(cn.tableAddr(primary, ref, kvlayout.SlotLockOff), 0, straysWord); err != nil || !sw {
		t.Fatal("failed to plant stray lock")
	}

	// Before notification: conflict aborts.
	tx := co.Begin()
	if err := tx.Write(0, 3, []byte("blocked")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrAborted) {
		t.Fatalf("pre-notification write err = %v, want ErrAborted", err)
	}
	// Reads abort too.
	tx = co.Begin()
	if _, err := tx.Read(0, 3); !errors.Is(err, ErrAborted) {
		t.Fatalf("pre-notification read err = %v, want ErrAborted", err)
	}

	// After the stray-lock notification the lock is stolen.
	cn.NotifyStrayLocks([]kvlayout.CoordID{999})
	v, err := readKey(t, co, 0, 3)
	if err != nil {
		t.Fatalf("post-notification read: %v", err)
	}
	if !bytes.Equal(v, padValue(e.schema[0], val16(3, 0))) {
		t.Fatalf("stray-locked read returned %q", v)
	}
	mustCommit(t, co, func(tx *Tx) error { return tx.Write(0, 3, []byte("stolen")) })
	v, _ = readKey(t, co, 0, 3)
	if !bytes.HasPrefix(v, []byte("stolen")) {
		t.Fatalf("post-steal value %q", v)
	}
	// The lock is now free (the stealer unlocked on commit).
	w := e.mem(primary).ScanStrayLocks(func(kvlayout.CoordID) bool { return true })
	if len(w) != 0 {
		t.Fatalf("locks remain after steal+commit: %v", w)
	}
}

func TestDisablePILLNeverSteals(t *testing.T) {
	e := newEnv(t, envConfig{opts: Options{DisablePILL: true}})
	e.preload(t, 0, 8, func(k kvlayout.Key) []byte { return val16(k, 0) })
	cn := e.nodes[0]
	co := cn.Coordinator(0)

	ref, _, _ := cn.resolve(co.ep, 0, 3)
	reps, _ := cn.replicasFor(ref.partition)
	primary := reps[0]
	if _, sw, _ := co.ep.CAS(cn.tableAddr(primary, ref, kvlayout.SlotLockOff), 0, kvlayout.LockWord(999, 1)); !sw {
		t.Fatal("plant failed")
	}
	cn.NotifyStrayLocks([]kvlayout.CoordID{999})
	tx := co.Begin()
	if err := tx.Write(0, 3, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrAborted) {
		t.Fatalf("with PILL disabled, write err = %v, want ErrAborted", err)
	}
}

func TestCrashLeavesLocksAndRecoversViaSteal(t *testing.T) {
	e := newEnv(t, envConfig{computes: 2})
	e.preload(t, 0, 8, func(k kvlayout.Key) []byte { return val16(k, 0) })
	victim := e.nodes[0]
	vco := victim.Coordinator(0)
	survivorCN := e.nodes[1]
	sco := survivorCN.Coordinator(0)

	// The victim locks key 2 during execution and crashes before logging.
	victim.SetInjector(func(c kvlayout.CoordID, p CrashPoint) bool { return p == PointAfterExecRead })
	tx := vco.Begin()
	err := tx.Write(0, 2, []byte("doomed"))
	if !errors.Is(err, rdma.ErrCrashed) || !victim.Crashed() {
		t.Fatalf("victim did not crash: %v", err)
	}

	// Survivor conflicts until notified, then steals; the old value is
	// intact (the victim never applied anything).
	tx2 := sco.Begin()
	if err := tx2.Write(0, 2, []byte("nope")); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); !errors.Is(err, ErrAborted) {
		t.Fatalf("pre-notification: %v", err)
	}
	survivorCN.NotifyStrayLocks([]kvlayout.CoordID{vco.ID()})
	v, err := readKey(t, sco, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v, padValue(e.schema[0], val16(2, 0))) {
		t.Fatalf("pre-crash value corrupted: %q", v)
	}
	mustCommit(t, sco, func(tx *Tx) error { return tx.Write(0, 2, []byte("survivor")) })
}

func TestPauseBlocksNewTransactions(t *testing.T) {
	e := newEnv(t, envConfig{})
	e.preload(t, 0, 8, func(k kvlayout.Key) []byte { return val16(k, 0) })
	cn := e.nodes[0]
	co := cn.Coordinator(0)

	cn.Pause()
	started := make(chan struct{})
	go func() {
		tx := co.Begin() // must block until Resume
		close(started)
		_ = tx.Abort()
	}()
	select {
	case <-started:
		t.Fatal("Begin proceeded while paused")
	case <-time.After(20 * time.Millisecond): //pandora:wallclock real-concurrency test: window proving the blocked path stays blocked
	}
	cn.Resume()
	select {
	case <-started:
	case <-time.After(2 * time.Second): //pandora:wallclock real-concurrency test: liveness timeout
		t.Fatal("Begin never unblocked after Resume")
	}
}

func TestBackupMemNodeFailureToleratedByCommit(t *testing.T) {
	e := newEnv(t, envConfig{memNodes: 3, replicas: 2})
	e.preload(t, 0, 32, func(k kvlayout.Key) []byte { return val16(k, 0) })
	cn := e.nodes[0]
	co := cn.Coordinator(0)

	// Crash the backup (second replica) of key 0's partition.
	key := kvlayout.Key(0)
	reps := e.ring.Replicas(e.ring.Partition(key))
	e.mem(reps[1]).Crash()
	cn.Install(cn.place.Load().WithDead(reps[1], true))
	mustCommit(t, co, func(tx *Tx) error { return tx.Write(0, key, []byte("survives")) })
	v, err := readKey(t, co, 0, key)
	if err != nil || !bytes.HasPrefix(v, []byte("survives")) {
		t.Fatalf("read after backup death = (%q, %v)", v, err)
	}
}

func TestPrimaryPromotionAfterNotification(t *testing.T) {
	e := newEnv(t, envConfig{memNodes: 3, replicas: 2})
	e.preload(t, 0, 32, func(k kvlayout.Key) []byte { return val16(k, 0) })
	cn := e.nodes[0]
	co := cn.Coordinator(0)

	key := kvlayout.Key(5)
	p := e.ring.Partition(key)
	reps := e.ring.Replicas(p)
	primary := reps[0]
	e.mem(primary).Crash()

	// Before notification, transactions touching the partition abort.
	tx := co.Begin()
	if _, err := tx.Read(0, key); !errors.Is(err, ErrAborted) && !errors.Is(err, ErrNotFound) {
		t.Fatalf("pre-notification read: %v", err)
	}

	// After notification the backup serves as primary.
	cn.Install(cn.place.Load().WithDead(primary, true))
	v, err := readKey(t, co, 0, key)
	if err != nil {
		t.Fatalf("post-promotion read: %v", err)
	}
	if !bytes.Equal(v, padValue(e.schema[0], val16(key, 0))) {
		t.Fatalf("post-promotion value %q", v)
	}
	// Writes go to the new primary and commit.
	mustCommit(t, co, func(tx *Tx) error { return tx.Write(0, key, []byte("promoted")) })
}

func TestVClockChargesAndProtocolCostOrdering(t *testing.T) {
	lat := rdma.LatencyModel{BaseRTT: 2 * time.Microsecond, BytesPerSec: 12.5e9}
	cost := func(proto Protocol) time.Duration {
		e := newEnv(t, envConfig{latency: lat, opts: Options{Protocol: proto}})
		e.preload(t, 0, 32, func(k kvlayout.Key) []byte { return val16(k, 0) })
		co := e.nodes[0].Coordinator(0)
		var clk rdma.VClock
		co.WithClock(&clk)
		// Warm the address cache so we measure protocol cost, not
		// probing.
		for k := kvlayout.Key(0); k < 4; k++ {
			if _, err := readKey(t, co, 0, k); err != nil {
				t.Fatal(err)
			}
		}
		clk.Reset()
		mustCommit(t, co, func(tx *Tx) error {
			if _, err := tx.Read(0, 0); err != nil {
				return err
			}
			for k := kvlayout.Key(1); k < 4; k++ {
				if err := tx.Write(0, k, []byte("v")); err != nil {
					return err
				}
			}
			return nil
		})
		return clk.Now()
	}
	pandora := cost(ProtocolPandora)
	ford := cost(ProtocolFORD)
	trad := cost(ProtocolTradLog)
	if pandora == 0 {
		t.Fatal("virtual clock did not advance")
	}
	// The paper's cost claims: FORD logs f+1 WRITEs per write-set object
	// (3 objects here) vs Pandora's f+1 per transaction -> FORD costs
	// more; the traditional scheme adds a full extra round trip per lock
	// -> costs more still.
	if !(pandora < ford) {
		t.Fatalf("pandora (%v) should be cheaper than FORD per-object logging (%v)", pandora, ford)
	}
	if !(pandora < trad) {
		t.Fatalf("pandora (%v) should be cheaper than traditional lock logging (%v)", pandora, trad)
	}
}

func TestReadRange(t *testing.T) {
	e := newEnv(t, envConfig{})
	e.preload(t, 0, 10, func(k kvlayout.Key) []byte { return val16(k, 0) })
	co := e.nodes[0].Coordinator(0)
	mustCommit(t, co, func(tx *Tx) error { return tx.Delete(0, 4) })

	tx := co.Begin()
	var got []kvlayout.Key
	err := tx.ReadRange(0, 2, 6, func(k kvlayout.Key, v []byte) bool {
		got = append(got, k)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	want := []kvlayout.Key{2, 3, 5, 6}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("ReadRange = %v, want %v", got, want)
	}
}

func TestOversizedValueRejected(t *testing.T) {
	e := newEnv(t, envConfig{})
	e.preload(t, 0, 4, func(k kvlayout.Key) []byte { return val16(k, 0) })
	co := e.nodes[0].Coordinator(0)
	tx := co.Begin()
	if err := tx.Write(0, 0, make([]byte, 17)); err == nil || errors.Is(err, ErrAborted) {
		t.Fatalf("oversized write err = %v", err)
	}
	if err := tx.Insert(0, 999, make([]byte, 17)); err == nil || errors.Is(err, ErrAborted) {
		t.Fatalf("oversized insert err = %v", err)
	}
	_ = tx.Abort()
}
