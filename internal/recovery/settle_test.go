package recovery

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"pandora/internal/core"
	"pandora/internal/hotlock"
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

// keepLogs snapshots the node's log region on every server that logs for it and
// returns the call that WRITEs the snapshot back: a recovery coordinator
// that died after settling but before truncation (§3.2.3's premise)
// leaves exactly this for the pass that re-executes it.
func (e *env) keepLogs(t testing.TB, node rdma.NodeID, coordsPer int) (restore func()) {
	t.Helper()
	ep := e.fab.Endpoint(rcNodeID)
	servers := e.mgr.logNodes(node)
	images := make([][]byte, len(servers))
	for i, n := range servers {
		images[i] = make([]byte, coordsPer*kvlayout.LogAreaSize)
		if err := ep.Read(rdma.Addr{Node: n, Region: kvlayout.LogRegionID(node)}, images[i]); err != nil {
			t.Fatal(err)
		}
	}
	return func() {
		t.Helper()
		for i, n := range servers {
			if err := ep.Write(rdma.Addr{Node: n, Region: kvlayout.LogRegionID(node)}, images[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestReexecutedRecoveryKeepsLiveCommit(t *testing.T) {
	// Version ABA: the first pass settles the dead transaction and
	// releases its locks, its coordinator dies before truncation, and a
	// survivor commits key 1. The re-executed pass decides "back" either
	// way — and must undo nothing, because it holds neither lock any more.
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
			restore := e.keepLogs(t, ev.Node, 2)

			if _, err := e.mgr.RecoverCompute(ev); err != nil {
				t.Fatal(err)
			}
			restore()
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
	// trip and LogPrefixSize bytes per coordinator on the busier server —
	// plus three round trips: observe, act, truncate, however many
	// transactions the node died with. With nothing logged it is the prefix
	// doorbell and the truncation alone.
	lat := rdma.DefaultLatency()
	for _, n := range []int{1, 4, 16} {
		e := newEnv(t, envConfig{coordsPer: n, latency: lat})
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
			t.Fatalf("n=%d: stats = %+v, want %d logged and rolled back from the prefixes alone", n, stats, n)
		}
		logRead := lat.BaseRTT + time.Duration(n)*(lat.Verb(kvlayout.LogPrefixSize)-lat.BaseRTT)
		if stats.LogReadVTime != logRead {
			t.Errorf("n=%d: prefix doorbell = %v, want %v", n, stats.LogReadVTime, logRead)
		}
		if extra := stats.VTime - logRead; extra < 3*lat.BaseRTT || extra >= 3*lat.BaseRTT+500*time.Nanosecond {
			t.Errorf("n=%d: recovery is the prefix doorbell + %v, want 3 round trips (%v) and under 0.5µs of bytes", n, extra, 3*lat.BaseRTT)
		}
		again, err := e.mgr.RecoverCompute(ev)
		if err != nil {
			t.Fatal(err)
		}
		if again.LoggedTxs != 0 || again.VTime != logRead+lat.BaseRTT {
			t.Errorf("n=%d: second pass = %+v, want no logged txs in the prefix doorbell + one truncate round (%v)", n, again, logRead+lat.BaseRTT)
		}
	}
}

func TestRecoveryCycleModelTime(t *testing.T) {
	// The benchmark's failover cycle (BENCHMARK.json recovery_model_us):
	// 3 memory servers, replication 2, 8 coordinators — four logged
	// 2-write transfers, four holding locks unlogged. Pinned exactly, so
	// a lost or added round fails here without running the benchmark.
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
	stats, err := e.mgr.RecoverCompute(e.failNode(t, 0))
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
		LoggedTxs:     4,
		RolledBack:    4,
		LogBytesRead:  2 * 8 * kvlayout.LogPrefixSize,
		VTime:         8324 * time.Nanosecond,
		LogReadVTime:  2320 * time.Nanosecond,
		SettleVTime:   4004 * time.Nanosecond,
		TruncateVTime: 2000 * time.Nanosecond,
	}
	if stats != want {
		t.Fatalf("recovery stats = %+v, want %+v", stats, want)
	}
}

func TestLaneRepairMatchesSequential(t *testing.T) {
	// Two released locks share one ticket lane. One guarded CAS per lane
	// must leave the head where one repair per release would: advanced by
	// min(releases, tickets outstanding).
	for owed := uint64(0); owed <= 3; owed++ {
		t.Run(fmt.Sprintf("owed%d", owed), func(t *testing.T) {
			e := newEnv(t, envConfig{})
			e.preload(t, 512)
			k1, k2, lane := e.sameLaneKeys(t, 512)
			reg := metrics.New()
			e.mgr.cfg.Metrics = reg
			ep := e.fab.Endpoint(rcNodeID)
			if _, err := ep.FAA(lane.Tail, owed); err != nil {
				t.Fatal(err)
			}
			park(t, e.nodes[0], 0, core.PointAfterLog, k1, k2)
			ev := e.failNode(t, 0)
			restore := e.keepLogs(t, ev.Node, 2)

			pass := func(wantHead, wantRepairs uint64) {
				t.Helper()
				before := reg.Snapshot()
				if _, err := e.mgr.RecoverCompute(ev); err != nil {
					t.Fatal(err)
				}
				var head [8]byte
				if err := ep.Read(lane.Head, head[:]); err != nil {
					t.Fatal(err)
				}
				if got := kvlayout.Uint64(head[:]); got != wantHead {
					t.Errorf("lane head = %d, want %d", got, wantHead)
				}
				if got := reg.Snapshot().Sub(before).LockCount(metrics.LockTicketRepair); got != wantRepairs {
					t.Errorf("ticket repairs = %d, want %d", got, wantRepairs)
				}
			}
			pass(min(2, owed), min(1, owed))
			// A re-executed pass finds the same log but releases nothing,
			// so it repairs nothing — even with a ticket still outstanding.
			restore()
			pass(min(2, owed), 0)
		})
	}
}

// sameLaneKeys finds two of the first n keys whose locks live in one
// partition and hash to one ticket lane.
func (e *env) sameLaneKeys(t testing.TB, n int) (kvlayout.Key, kvlayout.Key, hotlock.Lane) {
	t.Helper()
	type laneID struct {
		partition uint32
		lane      uint64
	}
	first := make(map[laneID]kvlayout.Key)
	for k := kvlayout.Key(0); k < kvlayout.Key(n); k++ {
		p := e.ring.Partition(k)
		id := laneID{p, kvlayout.HotlockLane(0, k)}
		if other, ok := first[id]; ok {
			primary, _ := e.ring.Primary(p, nil)
			return other, k, hotlock.LaneFor(primary, p, 0, k)
		}
		first[id] = k
	}
	t.Fatalf("no two of %d keys share a lane", n)
	return 0, 0, hotlock.Lane{}
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
	// WRITE to the backup did not. The re-executed pass finds the lock
	// free and the primary old — no live commit can have made that — and
	// brings the backup back to it.
	e := newEnv(t, envConfig{memNodes: 3})
	e.preload(t, 32)
	parkMidApply(t, e.nodes[0], 1, 2)
	ev := e.failNode(t, 0)
	restore := e.keepLogs(t, ev.Node, 2)

	p := e.ring.Partition(1)
	backup := rdma.Addr{Node: e.ring.Replicas(p)[1], Region: kvlayout.TableRegionID(0, p)}
	ep := e.fab.Endpoint(rcNodeID)
	torn := make([]byte, e.schema[0].RegionSize())
	if err := ep.Read(backup, torn); err != nil {
		t.Fatal(err)
	}
	if _, err := e.mgr.RecoverCompute(ev); err != nil {
		t.Fatal(err)
	}
	restore()
	if err := ep.Write(backup, torn); err != nil {
		t.Fatal(err)
	}

	if _, err := e.mgr.RecoverCompute(ev); err != nil {
		t.Fatal(err)
	}
	e.assertReplicasConsistent(t, []kvlayout.Key{1, 2})
	if got := e.mustRead(t, 1, 1); !bytes.Equal(got, pad16(initVal(1))) {
		t.Fatalf("key 1 = %q, want initial", got)
	}
}
