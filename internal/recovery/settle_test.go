package recovery

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"testing"
	"time"

	"pandora/internal/core"
	"pandora/internal/fdetect"
	"pandora/internal/kvlayout"
	"pandora/internal/metrics"
	"pandora/internal/rdma"
)

// park writes keys in one transaction on coordinator i of the victim,
// crashes the node at the given point of its commit and revives it, so
// the next coordinator can run up to its own crash: the node ends up
// with one stray transaction per parked coordinator.
func park(t testing.TB, victim *core.ComputeNode, i int, point core.CrashPoint, keys ...kvlayout.Key) {
	t.Helper()
	tx := victim.Coordinator(i).Begin()
	for _, k := range keys {
		if err := tx.Write(0, k, []byte(fmt.Sprintf("doomed-%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	victim.SetInjector(func(_ kvlayout.CoordID, p core.CrashPoint) bool { return p == point })
	if err := tx.Commit(); !errors.Is(err, rdma.ErrCrashed) {
		t.Fatalf("coordinator %d at point %d: commit err = %v, want ErrCrashed", i, point, err)
	}
	victim.SetInjector(nil)
	victim.Restart()
}

// cutAt returns a Manager.cut that stops the pass before verb landed of
// step s — after its last verb when landed is the step's op count — as a
// recovery coordinator's death would.
func cutAt(s Step, landed int) func(Step, int) bool {
	return func(at Step, i int) bool { return at == s && i == landed }
}

// recoverCut runs a pass that dies at (s, landed) and requires it to have.
func (e *env) recoverCut(t testing.TB, ev fdetect.Event, s Step, landed int) Stats {
	t.Helper()
	e.mgr.cut = cutAt(s, landed)
	defer func() { e.mgr.cut = nil }()
	stats, err := e.mgr.RecoverCompute(ev)
	if !errors.Is(err, rdma.ErrCrashed) {
		t.Fatalf("pass cut at step %d verb %d: err = %v, want ErrCrashed", s, landed, err)
	}
	return stats
}

func TestReexecutedRecoveryKeepsLiveCommit(t *testing.T) {
	// Version ABA: the first pass settles the dead transaction and
	// releases its locks, dies before truncation, and a survivor commits
	// key 1. The re-executed pass decides "back" either way — and must
	// undo nothing, because it holds neither lock any more.
	for _, c := range []struct {
		name  string
		point core.CrashPoint
		key2  []byte
	}{
		// Rolled back: the survivor's version of key 1 is the dead
		// transaction's NewVersion, key 2 is old — the undo image would go
		// over the survivor's commit.
		{"rolled-back", core.PointAfterLog, pad16(initVal(2))},
		// Rolled forward (possibly commit-acked): the survivor moved key 1
		// past NewVersion, key 2 still carries it — the undo image would
		// tear the dead transaction's own commit.
		{"rolled-forward", core.PointAfterApplyAll, pad16([]byte("doomed-two"))},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := newEnv(t, envConfig{})
			e.preload(t, 16)
			runDoomed(t, e.nodes[0], c.point)
			ev := e.failNode(t, 0)
			e.recoverCut(t, ev, StepTruncate, 0)
			e.mustWrite(t, 1, 1, []byte("survivor"))

			stats, err := e.mgr.RecoverCompute(ev)
			if err != nil {
				t.Fatal(err)
			}
			if stats.LoggedTxs != 1 || stats.RolledBack != 1 {
				t.Fatalf("re-executed pass stats = %+v, want the logged tx found and decided back", stats)
			}
			if got := e.mustRead(t, 1, 1); !bytes.HasPrefix(got, []byte("survivor")) {
				t.Fatalf("re-executed recovery undid a live commit: key 1 = %q", got)
			}
			if got := e.mustRead(t, 1, 2); !bytes.Equal(got, c.key2) {
				t.Fatalf("key 2 = %q, want %q", got, c.key2)
			}
			e.assertReplicasConsistent(t, []kvlayout.Key{1, 2})
		})
	}
}

func TestRecoveryRoundsIndependentOfStrayTxs(t *testing.T) {
	// The model clock of one recovery is the prefix doorbell — one round
	// trip and LogPrefixSize bytes per log area on the busier server —
	// plus three round trips: observe, act, truncate, however many
	// transactions the node died with. The traditional scheme reads an
	// intent area per coordinator too and adds two: every coordinator's
	// intent locks in one, their floors in the other. With nothing logged
	// it is the prefix doorbell and the truncation alone.
	lat := rdma.DefaultLatency()
	for _, p := range []struct {
		name          string
		opts          core.Options
		areas, rounds int // log areas per coordinator; rounds after the prefixes
	}{
		{"pandora", core.Options{}, 1, 3},
		{"tradlog", core.Options{Protocol: core.ProtocolTradLog, DisablePILL: true}, 2, 5},
	} {
		for _, n := range []int{1, 4, 16} {
			e := newEnv(t, envConfig{coordsPer: n, latency: lat, opts: p.opts})
			e.preload(t, 64)
			for i := 0; i < n; i++ {
				park(t, e.nodes[0], i, core.PointAfterLog, kvlayout.Key(2*i), kvlayout.Key(2*i+1))
			}
			ev := e.failNode(t, 0)
			stats, err := e.mgr.RecoverCompute(ev)
			if err != nil {
				t.Fatal(err)
			}
			if stats.LoggedTxs != n || stats.RolledBack != n || stats.LogTailReads != 0 {
				t.Fatalf("%s n=%d: stats = %+v, want %d logged and rolled back from the prefixes alone", p.name, n, stats, n)
			}
			logRead := lat.BaseRTT + time.Duration(n*p.areas)*(lat.Verb(kvlayout.LogPrefixSize)-lat.BaseRTT)
			if stats.Steps[StepLogPrefix] != logRead {
				t.Errorf("%s n=%d: prefix doorbell = %v, want %v", p.name, n, stats.Steps[StepLogPrefix], logRead)
			}
			rounds := time.Duration(p.rounds) * lat.BaseRTT
			if extra := stats.VTime - logRead; extra < rounds || extra >= rounds+500*time.Nanosecond {
				t.Errorf("%s n=%d: recovery is the prefix doorbell + %v, want %d round trips (%v) and under 0.5µs of bytes", p.name, n, extra, p.rounds, rounds)
			}
			if p.areas == 2 {
				for _, s := range []Step{StepIntentRelease, StepIntentFloor} {
					if got := stats.Steps[s]; got != lat.BaseRTT {
						t.Errorf("%s n=%d: intent step %d took %v, want one round trip (%v)", p.name, n, s, got, lat.BaseRTT)
					}
				}
			}
			again, err := e.mgr.RecoverCompute(ev)
			if err != nil {
				t.Fatal(err)
			}
			if again.LoggedTxs != 0 || again.VTime != logRead+lat.BaseRTT {
				t.Errorf("%s n=%d: second pass = %+v, want no logged txs in the prefix doorbell + one truncate round (%v)", p.name, n, again, logRead+lat.BaseRTT)
			}
		}
	}
}

func TestRecoveryCycleModelTime(t *testing.T) {
	// The benchmark's failover cycle (BENCHMARK.json recovery_model_us):
	// 3 memory servers, replication 2, 8 coordinators — four logged
	// 2-write transfers, four holding locks unlogged. Pinned exactly, so
	// a lost or added round fails here without running the benchmark.
	cycle := func() (*env, fdetect.Event) {
		e := newEnv(t, envConfig{memNodes: 3, coordsPer: 8, latency: rdma.DefaultLatency()})
		e.preload(t, 64)
		victim := e.nodes[0]
		for i := 0; i < 4; i++ {
			park(t, victim, i, core.PointAfterLog, kvlayout.Key(2*i), kvlayout.Key(2*i+1))
		}
		for i := 4; i < 8; i++ {
			tx := victim.Coordinator(i).Begin()
			for _, k := range []kvlayout.Key{kvlayout.Key(2 * i), kvlayout.Key(2*i + 1)} {
				if err := tx.Write(0, k, []byte("held")); err != nil {
					t.Fatal(err)
				}
			}
		}
		return e, e.failNode(t, 0)
	}
	e, ev := cycle()
	stats, err := e.mgr.RecoverCompute(ev)
	if err != nil {
		t.Fatal(err)
	}
	stats.WallTime = 0
	// Eight 512-byte prefixes on each of the two log servers, side by side:
	// one round trip and 8 × 40 ns of bytes; no 176-byte record needs a
	// tail. Then observe + act at 2 µs each and 4 ns of bytes — the busiest
	// server is first replica to four of the eight writes, and a 16-byte
	// lock+version READ is 1 ns on the wire (a bare 8-byte word rounds to
	// none) — and the truncate round.
	want := Stats{
		LoggedTxs:    4,
		RolledBack:   4,
		LogBytesRead: 2 * 8 * kvlayout.LogPrefixSize,
		VTime:        8324 * time.Nanosecond,
	}
	want.Steps[StepLogPrefix] = 2320 * time.Nanosecond
	want.Steps[StepObserve] = 2004 * time.Nanosecond
	want.Steps[StepAct] = 2000 * time.Nanosecond
	want.Steps[StepTruncate] = 2000 * time.Nanosecond
	if stats != want {
		t.Fatalf("recovery stats = %+v, want %+v", stats, want)
	}

	// The act doorbell's shape, on a second run of the cycle posted op by
	// op (a cut hook that never cuts): per logged write one guarded unlock
	// CAS and that write's undo WRITEs — none here, nothing was applied —
	// and no READ.
	e, ev = cycle()
	reg := metrics.New()
	e.fab.SetMetrics(reg)
	var first, last metrics.Snapshot
	e.mgr.cut = func(s Step, landed int) bool {
		if s == StepAct {
			if landed == 0 {
				first = reg.Snapshot()
			}
			last = reg.Snapshot()
		}
		return false
	}
	if _, err := e.mgr.RecoverCompute(ev); err != nil {
		t.Fatal(err)
	}
	act := map[string]uint64{}
	for _, v := range last.Sub(first).Verbs {
		if v.Issued != 0 {
			act[v.Verb] += v.Issued
		}
	}
	if wantAct := map[string]uint64{"CAS": 8}; !maps.Equal(act, wantAct) {
		t.Fatalf("act doorbell verbs = %v, want %v", act, wantAct)
	}
}

func TestSettleMixedBatch(t *testing.T) {
	// One recovery, three verdicts: fully applied rolls forward, applied
	// to one replica is undone there, not applied has nothing to undo.
	e := newEnv(t, envConfig{coordsPer: 3})
	e.preload(t, 16)
	victim := e.nodes[0]
	park(t, victim, 0, core.PointAfterApplyAll, 1, 2)
	park(t, victim, 1, core.PointAfterApplyOne, 3, 4)
	park(t, victim, 2, core.PointAfterLog, 5, 6)

	stats, err := e.mgr.RecoverCompute(e.failNode(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	if stats.LoggedTxs != 3 || stats.RolledForward != 1 || stats.RolledBack != 2 {
		t.Fatalf("stats = %+v, want 3 logged: 1 forward, 2 back", stats)
	}
	for k := kvlayout.Key(1); k <= 6; k++ {
		want := pad16(initVal(k))
		if k <= 2 {
			want = pad16([]byte(fmt.Sprintf("doomed-%d", k)))
		}
		if got := e.mustRead(t, 1, k); !bytes.Equal(got, want) {
			t.Errorf("key %d = %q, want %q", k, got, want)
		}
	}
	e.assertReplicasConsistent(t, []kvlayout.Key{1, 2, 3, 4, 5, 6})
	for k := kvlayout.Key(1); k <= 6; k++ {
		e.mustWrite(t, 1, k, []byte("survivor"))
	}
}

// parkMidApply is park with the crash after key a reached every replica
// and key b none (the second AfterApplyOne offer), and no restart: the
// node stays down, as a real one does until RecoverCompute.
func parkMidApply(t testing.TB, victim *core.ComputeNode, a, b kvlayout.Key) {
	t.Helper()
	tx := victim.Coordinator(0).Begin()
	for _, k := range []kvlayout.Key{a, b} {
		if err := tx.Write(0, k, []byte(fmt.Sprintf("doomed-%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	offers := 0
	victim.SetInjector(func(_ kvlayout.CoordID, p core.CrashPoint) bool {
		if p == core.PointAfterApplyOne {
			offers++
		}
		return offers == 2
	})
	if err := tx.Commit(); !errors.Is(err, rdma.ErrCrashed) {
		t.Fatalf("commit err = %v, want ErrCrashed", err)
	}
}

func TestRollBackAfterPrimaryLoss(t *testing.T) {
	// Key 1 is applied on both replicas, key 2 on none, and then key 1's
	// primary — the only holder of its lock word — dies before the pass.
	// The lock word of the promoted backup is not the one the dead
	// transaction took: it must not talk the pass out of undoing key 1
	// there. (A replacement copied from the backup is the root package's
	// replaced row: re-replication is a migration, run by the Cluster.)
	for _, when := range []string{"undetected", "promoted"} {
		t.Run(when, func(t *testing.T) {
			e := newEnv(t, envConfig{memNodes: 3})
			e.preload(t, 32)
			parkMidApply(t, e.nodes[0], 1, 2)
			ev := e.failNode(t, 0)

			primary := e.ring.Replicas(e.ring.Partition(1))[0]
			for _, srv := range e.mems {
				if srv.ID() == primary {
					srv.Crash()
				}
			}
			e.fd.RegisterMemory(primary)
			mev, _ := e.fd.MarkFailed(primary)
			recoverMemory := func() {
				t.Helper()
				if err := e.mgr.RecoverMemory(mev); err != nil {
					t.Fatal(err)
				}
			}
			if when != "undetected" {
				recoverMemory()
			}

			stats, err := e.mgr.RecoverCompute(ev)
			if err != nil {
				t.Fatal(err)
			}
			if stats.LoggedTxs != 1 || stats.RolledBack != 1 {
				t.Fatalf("stats = %+v, want the logged tx rolled back", stats)
			}
			if when == "undetected" {
				recoverMemory() // the survivors learn of it only now
			}
			for _, k := range []kvlayout.Key{1, 2} {
				if got := e.mustRead(t, 1, k); !bytes.Equal(got, pad16(initVal(k))) {
					t.Errorf("key %d = %q: a rolled-back write survived", k, got)
				}
			}
			e.assertReplicasConsistent(t, []kvlayout.Key{1, 2})
		})
	}
}

func TestReexecutedRecoveryRepairsTornBackup(t *testing.T) {
	// A pass that died inside its act doorbell: the undo and the unlock
	// landed on key 1's primary (one queue pair, in that order), the undo
	// WRITE to the backup did not — its link was down for that one verb.
	// The re-executed pass finds the lock free and the primary old — no
	// live commit can have made that — and brings the backup back to it.
	e := newEnv(t, envConfig{memNodes: 3})
	e.preload(t, 32)
	parkMidApply(t, e.nodes[0], 1, 2)
	ev := e.failNode(t, 0)

	// Key 1's act ops: the undo on the primary, on the backup, the unlock.
	backup := e.ring.Replicas(e.ring.Partition(1))[1]
	e.mgr.cut = func(s Step, landed int) bool {
		if s == StepAct && landed == 1 {
			e.fab.PartitionLink(rcNodeID, backup)
		} else if s == StepAct && landed == 2 {
			e.fab.HealLink(rcNodeID, backup)
		}
		return s == StepAct && landed == 3
	}
	if _, err := e.mgr.RecoverCompute(ev); !errors.Is(err, rdma.ErrCrashed) {
		t.Fatalf("torn pass err = %v, want ErrCrashed", err)
	}
	e.mgr.cut = nil
	if got := e.slot(t, backup, 1); got.Version == e.slot(t, e.ring.Replicas(e.ring.Partition(1))[0], 1).Version {
		t.Fatalf("backup of key 1 was undone too (version %d): the pass is not torn", got.Version)
	}

	if _, err := e.mgr.RecoverCompute(ev); err != nil {
		t.Fatal(err)
	}
	e.assertReplicasConsistent(t, []kvlayout.Key{1, 2})
	if got := e.mustRead(t, 1, 1); !bytes.Equal(got, pad16(initVal(1))) {
		t.Fatalf("key 1 = %q, want initial", got)
	}
}
