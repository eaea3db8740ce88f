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
	"pandora/internal/memnode"
	"pandora/internal/place"
	"pandora/internal/rdma"
)

const rcNodeID = rdma.NodeID(50)

type env struct {
	fab    *rdma.Fabric
	ring   *place.Ring
	schema []kvlayout.Table
	mems   []*memnode.Server
	fd     *fdetect.Detector
	nodes  []*core.ComputeNode
	mgr    *Manager
}

type envConfig struct {
	memNodes  int
	replicas  int
	computes  int
	coordsPer int
	opts      core.Options
	latency   rdma.LatencyModel
	slots     uint64
}

func newEnv(t testing.TB, cfg envConfig) *env {
	t.Helper()
	if cfg.memNodes == 0 {
		cfg.memNodes = 2
	}
	if cfg.replicas == 0 {
		cfg.replicas = 2
	}
	if cfg.computes == 0 {
		cfg.computes = 2
	}
	if cfg.coordsPer == 0 {
		cfg.coordsPer = 2
	}
	if cfg.slots == 0 {
		cfg.slots = 1 << 10
	}
	e := &env{
		fab:    rdma.NewFabric(cfg.latency),
		schema: []kvlayout.Table{{ID: 0, ValueSize: 16, Slots: cfg.slots}},
	}
	memIDs := make([]rdma.NodeID, cfg.memNodes)
	for i := range memIDs {
		memIDs[i] = rdma.NodeID(100 + i)
	}
	e.ring = place.New(memIDs, cfg.replicas, 16)
	for _, id := range memIDs {
		e.mems = append(e.mems, memnode.NewServer(e.fab, id, e.ring, e.schema))
	}
	e.fd = fdetect.New(fdetect.Config{})
	var peers []ComputePeer
	for c := 0; c < cfg.computes; c++ {
		nodeID := rdma.NodeID(c)
		ids, err := e.fd.RegisterCompute(nodeID, cfg.coordsPer)
		if err != nil {
			t.Fatal(err)
		}
		cn := core.NewComputeNode(e.fab, nodeID, place.NewView(e.ring), e.schema, ids, cfg.opts)
		for _, m := range e.mems {
			m.EnsureLogRegion(nodeID, cfg.coordsPer)
		}
		e.nodes = append(e.nodes, cn)
		peers = append(peers, cn)
	}
	e.fab.AddNode(rcNodeID)
	e.mgr = NewManager(Config{
		Fabric:        e.fab,
		Ring:          e.ring,
		Schema:        e.schema,
		Mems:          e.mems,
		Peers:         peers,
		Protocol:      cfg.opts.Protocol,
		CoordsPerNode: cfg.coordsPer,
		RCNode:        rcNodeID,
	})
	return e
}

func (e *env) preload(t testing.TB, n int) {
	t.Helper()
	byPart := make(map[uint32][]memnode.Item)
	for k := kvlayout.Key(0); k < kvlayout.Key(n); k++ {
		p := e.ring.Partition(k)
		byPart[p] = append(byPart[p], memnode.Item{Key: k, Value: initVal(k)})
	}
	for p, items := range byPart {
		for _, rep := range e.ring.Replicas(p) {
			for _, srv := range e.mems {
				if srv.ID() == rep {
					if _, err := srv.Preload(0, p, items); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
}

func initVal(k kvlayout.Key) []byte {
	return []byte(fmt.Sprintf("init-%011d", uint64(k)))
}

// failNode crashes compute node i and returns its FD failure event.
func (e *env) failNode(t testing.TB, i int) fdetect.Event {
	t.Helper()
	e.nodes[i].Crash()
	ev, ok := e.fd.MarkFailed(e.nodes[i].ID())
	if !ok {
		t.Fatal("MarkFailed returned !ok")
	}
	return ev
}

func (e *env) read(t testing.TB, node int, k kvlayout.Key) ([]byte, error) {
	t.Helper()
	// Validation aborts are retried: a stale read-cache hit is rejected
	// (and invalidated) at commit, so the retry sees committed state.
	for attempt := 0; ; attempt++ {
		tx := e.nodes[node].Coordinator(0).Begin()
		v, err := tx.Read(0, k)
		if err != nil {
			_ = tx.Abort()
			return nil, err
		}
		cerr := tx.Commit()
		if cerr == nil {
			return v, nil
		}
		if !errors.Is(cerr, core.ErrAborted) || attempt >= 3 {
			return nil, cerr
		}
	}
}

func (e *env) mustRead(t testing.TB, node int, k kvlayout.Key) []byte {
	t.Helper()
	v, err := e.read(t, node, k)
	if err != nil {
		t.Fatalf("read key %d: %v", k, err)
	}
	return v
}

func (e *env) mustWrite(t testing.TB, node int, k kvlayout.Key, v []byte) {
	t.Helper()
	tx := e.nodes[node].Coordinator(0).Begin()
	if err := tx.Write(0, k, v); err != nil {
		t.Fatalf("write key %d: %v", k, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit key %d: %v", k, err)
	}
}

func pad16(v []byte) []byte {
	out := make([]byte, 16)
	copy(out, v)
	return out
}

// runDoomed runs a 1-read-2-write transaction on the victim node with a
// crash injector firing at the given point. It returns the tx for
// ack-state inspection.
func runDoomed(t testing.TB, victim *core.ComputeNode, point core.CrashPoint) *core.Tx {
	t.Helper()
	victim.SetInjector(func(c kvlayout.CoordID, p core.CrashPoint) bool { return p == point })
	co := victim.Coordinator(0)
	tx := co.Begin()
	err := func() error {
		if _, err := tx.Read(0, 0); err != nil {
			return err
		}
		if err := tx.Write(0, 1, []byte("doomed-one")); err != nil {
			return err
		}
		if err := tx.Write(0, 2, []byte("doomed-two")); err != nil {
			return err
		}
		return tx.Commit()
	}()
	if !victim.Crashed() {
		t.Fatalf("victim survived crash point %d (err=%v)", point, err)
	}
	if !errors.Is(err, rdma.ErrCrashed) {
		t.Fatalf("doomed tx error = %v, want ErrCrashed", err)
	}
	return tx
}

func TestRollBackNotApplied(t *testing.T) {
	// Crash right after the logging phase: logged, nothing applied.
	// Recovery must roll back (which is a no-op on data) and release the
	// locks.
	e := newEnv(t, envConfig{})
	e.preload(t, 16)
	tx := runDoomed(t, e.nodes[0], core.PointAfterLog)
	if tx.AckedCommit || tx.AckedAbort {
		t.Fatal("doomed tx acked something")
	}

	ev := e.failNode(t, 0)
	stats, err := e.mgr.RecoverCompute(ev)
	if err != nil {
		t.Fatal(err)
	}
	if stats.LoggedTxs != 1 || stats.RolledBack != 1 || stats.RolledForward != 0 {
		t.Fatalf("stats = %+v, want 1 logged, 1 rolled back", stats)
	}
	for _, k := range []kvlayout.Key{1, 2} {
		if got := e.mustRead(t, 1, k); !bytes.Equal(got, pad16(initVal(k))) {
			t.Fatalf("key %d = %q after rollback, want initial", k, got)
		}
	}
	// Locks are gone: survivor can write immediately.
	e.mustWrite(t, 1, 1, []byte("survivor"))
}

func TestRollBackPartialApply(t *testing.T) {
	// Crash after applying to exactly one replica: some replicas carry
	// the new version. Recovery must undo them (Cor2: all-or-nothing).
	e := newEnv(t, envConfig{})
	e.preload(t, 16)
	tx := runDoomed(t, e.nodes[0], core.PointAfterApplyOne)
	if tx.AckedCommit {
		t.Fatal("commit acked before full apply")
	}

	ev := e.failNode(t, 0)
	stats, err := e.mgr.RecoverCompute(ev)
	if err != nil {
		t.Fatal(err)
	}
	if stats.RolledBack != 1 {
		t.Fatalf("stats = %+v, want a rollback", stats)
	}
	for _, k := range []kvlayout.Key{1, 2} {
		if got := e.mustRead(t, 1, k); !bytes.Equal(got, pad16(initVal(k))) {
			t.Fatalf("key %d = %q after partial-apply rollback", k, got)
		}
	}
	// Every replica must carry the restored image, not just the primary.
	e.assertReplicasConsistent(t, []kvlayout.Key{1, 2})
	e.mustWrite(t, 1, 2, []byte("survivor"))
}

// assertReplicasConsistent checks all replicas of each key hold
// identical slot bytes.
func (e *env) assertReplicasConsistent(t testing.TB, keys []kvlayout.Key) {
	t.Helper()
	ep := e.fab.Endpoint(rcNodeID)
	tab := e.schema[0]
	for _, k := range keys {
		p := e.ring.Partition(k)
		// Locate the slot by probing host-side on the primary.
		var ref []byte
		for _, n := range e.mgr.Ring().Replicas(p) {
			if e.fab.IsDown(n) {
				continue
			}
			buf := make([]byte, tab.RegionSize())
			if err := ep.Read(rdma.Addr{Node: n, Region: kvlayout.TableRegionID(0, p)}, buf); err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = buf
				continue
			}
			if !bytes.Equal(ref, buf) {
				t.Fatalf("replicas of partition %d diverge", p)
			}
		}
	}
}

func TestRollForwardFullyApplied(t *testing.T) {
	// Crash after applying to every replica but before the ack: a
	// commit-ack was possible, so recovery must roll forward.
	e := newEnv(t, envConfig{})
	e.preload(t, 16)
	runDoomed(t, e.nodes[0], core.PointAfterApplyAll)

	ev := e.failNode(t, 0)
	stats, err := e.mgr.RecoverCompute(ev)
	if err != nil {
		t.Fatal(err)
	}
	if stats.RolledForward != 1 || stats.RolledBack != 0 {
		t.Fatalf("stats = %+v, want 1 rolled forward", stats)
	}
	if got := e.mustRead(t, 1, 1); !bytes.HasPrefix(got, []byte("doomed-one")) {
		t.Fatalf("key 1 = %q, want the committed value", got)
	}
	if got := e.mustRead(t, 1, 2); !bytes.HasPrefix(got, []byte("doomed-two")) {
		t.Fatalf("key 2 = %q, want the committed value", got)
	}
	e.mustWrite(t, 1, 1, []byte("survivor"))
}

func TestRollForwardAfterAck(t *testing.T) {
	// Cor3: the client saw a commit-ack; recovery must never undo it.
	e := newEnv(t, envConfig{})
	e.preload(t, 16)
	tx := runDoomed(t, e.nodes[0], core.PointAfterAck)
	if !tx.AckedCommit {
		t.Fatal("tx not commit-acked at PointAfterAck")
	}

	ev := e.failNode(t, 0)
	if _, err := e.mgr.RecoverCompute(ev); err != nil {
		t.Fatal(err)
	}
	if got := e.mustRead(t, 1, 1); !bytes.HasPrefix(got, []byte("doomed-one")) {
		t.Fatalf("commit-acked write lost: key 1 = %q", got)
	}
}

func TestNotLoggedStrayLocksStolenAfterNotification(t *testing.T) {
	// Crash after locking but before logging: a NotLogged-Stray-Tx.
	// Recovery finds no log; the stray-lock notification lets survivors
	// steal (Cor4).
	e := newEnv(t, envConfig{})
	e.preload(t, 16)
	runDoomed(t, e.nodes[0], core.PointAfterExecRead)

	ev := e.failNode(t, 0)
	stats, err := e.mgr.RecoverCompute(ev)
	if err != nil {
		t.Fatal(err)
	}
	if stats.LoggedTxs != 0 {
		t.Fatalf("stats = %+v, want no logged txs", stats)
	}
	// Values are untouched and survivors can write through stealing.
	if got := e.mustRead(t, 1, 1); !bytes.Equal(got, pad16(initVal(1))) {
		t.Fatalf("key 1 = %q", got)
	}
	e.mustWrite(t, 1, 1, []byte("stolen-write"))
	if got := e.mustRead(t, 1, 1); !bytes.HasPrefix(got, []byte("stolen-write")) {
		t.Fatalf("post-steal key 1 = %q", got)
	}
}

func TestRecoveryIdempotent(t *testing.T) {
	// §3.2.3: every recovery step may be re-executed. Recover, let a
	// survivor overwrite a recovered key, then recover again — the
	// second pass must not clobber the survivor's committed write.
	e := newEnv(t, envConfig{})
	e.preload(t, 16)
	runDoomed(t, e.nodes[0], core.PointAfterApplyOne)

	ev := e.failNode(t, 0)
	if _, err := e.mgr.RecoverCompute(ev); err != nil {
		t.Fatal(err)
	}
	e.mustWrite(t, 1, 1, []byte("survivor-v2"))

	stats, err := e.mgr.RecoverCompute(ev)
	if err != nil {
		t.Fatal(err)
	}
	if stats.LoggedTxs != 0 {
		t.Fatalf("re-executed recovery found %d logged txs; truncation failed", stats.LoggedTxs)
	}
	if got := e.mustRead(t, 1, 1); !bytes.HasPrefix(got, []byte("survivor-v2")) {
		t.Fatalf("re-executed recovery clobbered a live write: %q", got)
	}
}

func TestZombieFencing(t *testing.T) {
	// Cor1: a falsely suspected node must lose memory access before any
	// state is touched. The zombie is NOT crashed — it keeps trying.
	e := newEnv(t, envConfig{})
	e.preload(t, 16)
	zombie := e.nodes[0]
	zco := zombie.Coordinator(0)

	// The zombie has a transaction mid-flight (locked, not yet applied).
	ztx := zco.Begin()
	if err := ztx.Write(0, 5, []byte("zombie")); err != nil {
		t.Fatal(err)
	}

	// The FD falsely declares the node failed; recovery fences it.
	ev, ok := e.fd.MarkFailed(zombie.ID())
	if !ok {
		t.Fatal("MarkFailed failed")
	}
	if _, err := e.mgr.RecoverCompute(ev); err != nil {
		t.Fatal(err)
	}

	// The zombie's commit must fail — its verbs are dropped.
	err := ztx.Commit()
	if err == nil {
		t.Fatal("zombie committed after fencing")
	}
	// And the data is untouched by the zombie.
	if got := e.mustRead(t, 1, 5); !bytes.Equal(got, pad16(initVal(5))) {
		t.Fatalf("zombie corrupted key 5: %q", got)
	}
	// Survivors proceed (stealing the zombie's stray lock).
	e.mustWrite(t, 1, 5, []byte("alive"))
}

// TestCrashPointSweep is the exhaustive Cor2/Cor3 check: crash at every
// protocol point and verify the post-recovery state is exactly
// all-or-nothing and consistent with any acknowledgement the client saw.
func TestCrashPointSweep(t *testing.T) {
	points := []core.CrashPoint{
		core.PointBeforeLock, core.PointAfterLock, core.PointAfterExecRead,
		core.PointAfterValidation, core.PointAfterLog, core.PointAfterApplyOne,
		core.PointAfterApplyAll, core.PointAfterAck, core.PointAfterTruncate,
		core.PointAfterUnlock,
	}
	for _, proto := range []core.Protocol{core.ProtocolPandora, core.ProtocolTradLog} {
		for _, point := range points {
			t.Run(fmt.Sprintf("%v/point%d", proto, point), func(t *testing.T) {
				e := newEnv(t, envConfig{opts: core.Options{Protocol: proto}})
				e.preload(t, 16)
				tx := runDoomed(t, e.nodes[0], point)

				ev := e.failNode(t, 0)
				if _, err := e.mgr.RecoverCompute(ev); err != nil {
					t.Fatal(err)
				}

				v1 := e.mustRead(t, 1, 1)
				v2 := e.mustRead(t, 1, 2)
				newState := bytes.HasPrefix(v1, []byte("doomed-one"))
				// Cor2: all-or-nothing.
				if newState != bytes.HasPrefix(v2, []byte("doomed-two")) {
					t.Fatalf("torn state after recovery: key1=%q key2=%q", v1, v2)
				}
				if !newState && !bytes.Equal(v1, pad16(initVal(1))) {
					t.Fatalf("key 1 is neither old nor new: %q", v1)
				}
				// Cor3: acks bind the outcome.
				if tx.AckedCommit && !newState {
					t.Fatal("commit-acked transaction rolled back")
				}
				if tx.AckedAbort && newState {
					t.Fatal("abort-acked transaction rolled forward")
				}
				// Every stray lock is recoverable: both keys writable.
				e.mustWrite(t, 1, 1, []byte("after-1"))
				e.mustWrite(t, 1, 2, []byte("after-2"))
				e.assertReplicasConsistent(t, []kvlayout.Key{0, 1, 2})
			})
		}
	}
}

func TestInsertRollBackAndForward(t *testing.T) {
	for _, c := range []struct {
		point   core.CrashPoint
		present bool
	}{
		{core.PointAfterLog, false},
		{core.PointAfterApplyAll, true},
	} {
		t.Run(fmt.Sprintf("point%d", c.point), func(t *testing.T) {
			e := newEnv(t, envConfig{})
			e.preload(t, 16)
			victim := e.nodes[0]
			victim.SetInjector(func(_ kvlayout.CoordID, p core.CrashPoint) bool { return p == c.point })
			tx := victim.Coordinator(0).Begin()
			if err := tx.Insert(0, 500, []byte("new-key")); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); !errors.Is(err, rdma.ErrCrashed) {
				t.Fatalf("commit err = %v", err)
			}

			ev := e.failNode(t, 0)
			if _, err := e.mgr.RecoverCompute(ev); err != nil {
				t.Fatal(err)
			}
			v, err := e.read(t, 1, 500)
			if c.present {
				if err != nil || !bytes.HasPrefix(v, []byte("new-key")) {
					t.Fatalf("rolled-forward insert = (%q, %v)", v, err)
				}
			} else if !errors.Is(err, core.ErrNotFound) {
				t.Fatalf("rolled-back insert still visible: (%q, %v)", v, err)
			}
			// The slot is reusable either way.
			tx2 := e.nodes[1].Coordinator(0).Begin()
			if c.present {
				if err := tx2.Write(0, 500, []byte("over")); err != nil {
					t.Fatal(err)
				}
			} else {
				if err := tx2.Insert(0, 500, []byte("fresh")); err != nil {
					t.Fatal(err)
				}
			}
			if err := tx2.Commit(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestTradLogRecoveryFreesStrayLocks(t *testing.T) {
	// The traditional scheme releases not-logged stray locks during
	// recovery itself (no PILL stealing needed).
	e := newEnv(t, envConfig{opts: core.Options{Protocol: core.ProtocolTradLog, DisablePILL: true}})
	e.preload(t, 16)
	runDoomed(t, e.nodes[0], core.PointAfterExecRead)

	ev := e.failNode(t, 0)
	stats, err := e.mgr.RecoverCompute(ev)
	if err != nil {
		t.Fatal(err)
	}
	if stats.StrayLocksFreed == 0 {
		t.Fatalf("stats = %+v, want freed stray locks", stats)
	}
	// With PILL disabled, writes only succeed because recovery already
	// released the locks.
	e.mustWrite(t, 1, 1, []byte("freed"))
	e.mustWrite(t, 1, 2, []byte("freed"))

	// Idempotent: re-running frees nothing and breaks nothing.
	stats2, err := e.mgr.RecoverCompute(ev)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.StrayLocksFreed != 0 {
		t.Fatalf("re-run freed %d locks", stats2.StrayLocksFreed)
	}
	if got := e.mustRead(t, 1, 1); !bytes.HasPrefix(got, []byte("freed")) {
		t.Fatalf("key 1 = %q", got)
	}
}

func TestScanRecoveryFreesLocksAndScalesWithData(t *testing.T) {
	e := newEnv(t, envConfig{
		opts:    core.Options{Protocol: core.ProtocolFORD, DisablePILL: true},
		latency: rdma.DefaultLatency(),
		slots:   1 << 12,
	})
	e.preload(t, 64)
	// FORD-mode logs each object right after locking it, so a crash at
	// PointAfterLock leaves exactly one not-logged stray lock for the
	// scan to find.
	runDoomed(t, e.nodes[0], core.PointAfterLock)

	ev := e.failNode(t, 0)
	stats, err := e.mgr.ScanRecoverCompute(ev)
	if err != nil {
		t.Fatal(err)
	}
	if stats.StrayLocksFreed < 1 {
		t.Fatalf("scan freed %d locks, want >= 1", stats.StrayLocksFreed)
	}
	if stats.VTime == 0 {
		t.Fatal("scan recovery charged no time")
	}
	e.mustWrite(t, 1, 1, []byte("post-scan"))

	// The modelled scan time grows linearly with the dataset and lands
	// in the paper's regime: seconds per million keys.
	small := e.mgr.ScanTimeEstimate(250_000)
	large := e.mgr.ScanTimeEstimate(1_000_000)
	if large != 4*small {
		t.Fatalf("scan time not linear: %v vs %v", small, large)
	}
	if large < 500*time.Millisecond || large > 30*time.Second {
		t.Fatalf("1M-key scan estimate %v is out of the paper's regime (~5s)", large)
	}
}

func TestRecoverMemoryPromotesPrimaries(t *testing.T) {
	e := newEnv(t, envConfig{memNodes: 3, replicas: 2})
	e.preload(t, 64)
	dead := e.mems[0]
	dead.Crash()
	e.fd.RegisterMemory(dead.ID())
	ev, ok := e.fd.MarkFailed(dead.ID())
	if !ok {
		t.Fatal("MarkFailed")
	}
	if err := e.mgr.RecoverMemory(ev); err != nil {
		t.Fatal(err)
	}
	// Every key readable and writable post-promotion, from all nodes.
	for k := kvlayout.Key(0); k < 64; k++ {
		if got := e.mustRead(t, 1, k); !bytes.Equal(got, pad16(initVal(k))) {
			t.Fatalf("key %d = %q after memory failure", k, got)
		}
	}
	e.mustWrite(t, 0, 7, []byte("post-memfail"))
	if got := e.mustRead(t, 1, 7); !bytes.HasPrefix(got, []byte("post-memfail")) {
		t.Fatalf("cross-node read after promotion = %q", got)
	}
}

func TestRecycleStrayLocks(t *testing.T) {
	// Survivors without PILL never steal: writes succeed only because
	// recycling freed the locks.
	e := newEnv(t, envConfig{opts: core.Options{DisablePILL: true}})
	e.preload(t, 16)
	runDoomed(t, e.nodes[0], core.PointAfterValidation)
	ev := e.failNode(t, 0)
	if _, err := e.mgr.RecoverCompute(ev); err != nil {
		t.Fatal(err)
	}

	ids, released := e.mgr.RecycleStrayLocks()
	if released < 2 {
		t.Fatalf("recycle released %d locks, want >= 2", released)
	}
	if !slices.Equal(ids, ev.Coords) || len(e.mgr.View().FailedIDs()) != 0 {
		t.Fatalf("recycled ids %v, view still failing %v; want %v recycled, none left", ids, e.mgr.View().FailedIDs(), ev.Coords)
	}
	e.mustWrite(t, 1, 1, []byte("recycled"))
	// Second run is a no-op.
	if ids, again := e.mgr.RecycleStrayLocks(); again != 0 || ids != nil {
		t.Fatalf("second recycle released %d locks, recycled %v", again, ids)
	}
}

// TestRecycleKeepsLoggedIDs: a pass cut between its notification and its
// act leaves a logged word to settle; recycling releases the unlogged
// coordinator's locks and its id, but neither the logged word nor its
// owner's id, until the re-run has settled it.
func TestRecycleKeepsLoggedIDs(t *testing.T) {
	e := newEnv(t, envConfig{opts: core.Options{DisablePILL: true}})
	e.preload(t, 16)
	runDoomed(t, e.nodes[0], core.PointAfterLog) // logged: keys 1, 2
	e.nodes[0].SetInjector(nil)
	e.nodes[0].Restart()
	hold(t, e.nodes[0], 1, 3, 4) // not logged
	ev := e.failNode(t, 0)
	e.recoverCut(t, ev, StepNotify, 1)

	ids, released := e.mgr.RecycleStrayLocks()
	if !slices.Equal(ids, ev.Coords[1:]) || released != 2 {
		t.Fatalf("recycled %v, released %d; want %v and coordinator %d's 2 locks", ids, released, ev.Coords[1:], ev.Coords[1])
	}
	if got := e.mgr.View().FailedIDs(); !slices.Equal(got, ev.Coords[:1]) || len(e.mgr.View().Logged()) != 1 {
		t.Fatalf("view fails %v with %d logged words, want [%d] with 1", got, len(e.mgr.View().Logged()), ev.Coords[0])
	}
	if st, err := e.mgr.RecoverCompute(ev); err != nil || st.RolledBack+st.RolledForward != 1 {
		t.Fatalf("re-run = %+v, %v; want the logged transaction settled", st, err)
	}
	if ids, _ := e.mgr.RecycleStrayLocks(); !slices.Contains(ids, ev.Coords[0]) {
		t.Fatalf("after the re-run recycled %v, want %d among them", ids, ev.Coords[0])
	}
}

func TestRecoveryLatencyScalesWithCoordinators(t *testing.T) {
	// Table 2's shape: recovery latency grows with the number of
	// outstanding transactions (coordinators).
	latency := rdma.DefaultLatency()
	run := func(coords int) Stats {
		e := newEnv(t, envConfig{coordsPer: coords, latency: latency})
		e.preload(t, 256)
		victim := e.nodes[0]
		// Every coordinator crashes holding a logged transaction.
		for i := 0; i < coords; i++ {
			co := victim.Coordinator(i)
			tx := co.Begin()
			if err := tx.Write(0, kvlayout.Key(i), []byte("w")); err != nil {
				t.Fatal(err)
			}
			victim.SetInjector(func(_ kvlayout.CoordID, p core.CrashPoint) bool { return p == core.PointAfterLog })
			_ = tx.Commit()
			victim.SetInjector(nil)
			victim.Restart() // next coordinator continues until its own crash
		}
		victim.Crash()
		ev, _ := e.fd.MarkFailed(victim.ID())
		stats, err := e.mgr.RecoverCompute(ev)
		if err != nil {
			t.Fatal(err)
		}
		if stats.LoggedTxs != coords {
			t.Fatalf("recovered %d logged txs, want %d", stats.LoggedTxs, coords)
		}
		return stats
	}
	small := run(2)
	large := run(16)
	if large.VTime <= small.VTime {
		t.Fatalf("recovery latency did not grow with coordinators: %v (2) vs %v (16)", small.VTime, large.VTime)
	}
}
