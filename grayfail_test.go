package pandora_test

import (
	"encoding/binary"
	"testing"
	"time"

	pandora "pandora"
	"pandora/internal/core"
	"pandora/internal/kvlayout"
	"pandora/internal/rdma"
)

// TestSoftFailMidCommitLosesNothing: a false-positive failure
// declaration lands while the victim's commit is parked between
// validation and logging. The fenced zombie must not acknowledge, its
// write must not reach memory (no partial or double application), and a
// survivor must be able to steal the stray lock and proceed.
func TestSoftFailMidCommitLosesNothing(t *testing.T) {
	c := newLoaded(t, testConfig(), 64)
	victim := c.Engine(0)
	sess := c.Session(0, 0)

	entered := make(chan struct{})
	hold := make(chan struct{})
	victim.SetInjector(func(_ kvlayout.CoordID, p core.CrashPoint) bool {
		if p == core.PointAfterValidation {
			close(entered)
			<-hold
		}
		return false
	})
	defer victim.SetInjector(nil)

	type outcome struct {
		tx  *pandora.Tx
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		tx := sess.Begin()
		if err := tx.Write("kv", 7, u64(777)); err != nil {
			done <- outcome{tx, err}
			return
		}
		done <- outcome{tx, tx.Commit()}
	}()

	<-entered
	// The FD falsely declares the node failed; recovery fences the
	// zombie (Cor1) before touching state, then returns.
	if _, err := c.FailComputeSoft(0); err != nil {
		t.Fatal(err)
	}
	close(hold)
	res := <-done
	if res.err == nil || res.tx.CommitAcked() {
		t.Fatalf("zombie commit: err=%v acked=%v — a fenced coordinator acknowledged", res.err, res.tx.CommitAcked())
	}

	// The in-flight write must have had no effect.
	surv := c.Session(1, 0)
	tx := surv.Begin()
	v, err := tx.Read("kv", 7)
	if err != nil {
		t.Fatalf("survivor read: %v", err)
	}
	if got := binary.LittleEndian.Uint64(v); got != 70 {
		t.Fatalf("key 7 = %d after fenced mid-commit failure, want 70", got)
	}
	// The survivor steals the zombie's stray lock (PILL) and commits.
	if err := tx.Write("kv", 7, u64(222)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("survivor commit over stray lock: %v", err)
	}

	rep, err := c.CheckConsistency("kv")
	if err != nil {
		t.Fatal(err)
	}
	if rep.LockedSlots != 0 || len(rep.DivergentKeys) != 0 || len(rep.DuplicateKeys) != 0 {
		t.Fatalf("store not clean after soft-fail mid-commit: %+v", rep)
	}
}

// TestSoftFailAfterAckPreservesCommit: the dual direction — a write
// acknowledged BEFORE the false declaration must survive recovery
// unchanged (Cor3: never roll back a commit-acked transaction).
func TestSoftFailAfterAckPreservesCommit(t *testing.T) {
	c := newLoaded(t, testConfig(), 64)
	if err := c.Session(0, 0).Update(10, func(tx *pandora.Tx) error {
		return tx.Write("kv", 3, u64(333))
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FailComputeSoft(0); err != nil {
		t.Fatal(err)
	}
	tx := c.Session(1, 0).Begin()
	v, err := tx.Read("kv", 3)
	if err != nil {
		t.Fatal(err)
	}
	_ = tx.Commit()
	if got := binary.LittleEndian.Uint64(v); got != 333 {
		t.Fatalf("acked write lost by recovery: key 3 = %d, want 333", got)
	}
}

// TestStallLinkMidCommitEscalates: the tentpole gray-failure story end
// to end. A stalled compute→memory link makes verbs time out instead of
// wedging their coordinators; the aborted transactions report the
// suspect memory node, the FD escalates at the threshold and fails it,
// promotion moves primaries to the surviving replica, and the workload
// completes. After healing and re-replication the store is consistent.
func TestStallLinkMidCommitEscalates(t *testing.T) {
	cfg := testConfig()
	cfg.VerbTimeout = 200 * time.Microsecond
	cfg.SuspectThreshold = 2
	c := newLoaded(t, cfg, 64)

	c.StallLink(0, 0)
	s := c.Session(0, 0)
	for k := pandora.Key(0); k < 64; k++ {
		k := k
		// Keys whose primary lives on the stalled memory node abort with
		// verb timeouts until escalation fences it; the retry loop (with
		// link-fault backoff) must always come out the other side.
		if err := s.Update(10000, func(tx *pandora.Tx) error {
			return tx.Write("kv", k, u64(uint64(k)+1000))
		}); err != nil {
			t.Fatalf("key %d never committed through the stalled link: %v", k, err)
		}
	}

	st := c.LinkStats()
	if st.StalledVerbs == 0 || st.Timeouts == 0 {
		t.Fatalf("stall never engaged: %+v", st)
	}
	if got := c.Detector().Suspicions(rdma.NodeID(0)); got != 0 {
		t.Fatalf("suspicions counted against a compute node: %d", got)
	}

	c.HealAllLinks()
	if _, err := c.Rereplicate(0); err != nil {
		t.Fatalf("re-replication of the escalated memory node: %v", err)
	}

	rep, err := c.CheckConsistency("kv")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Keys != 64 || rep.LockedSlots != 0 || len(rep.DivergentKeys) != 0 || len(rep.DuplicateKeys) != 0 {
		t.Fatalf("store inconsistent after stall+escalation+rereplication: %+v", rep)
	}
	tx := c.Session(1, 0).Begin()
	for k := pandora.Key(0); k < 64; k++ {
		v, err := tx.Read("kv", k)
		if err != nil {
			t.Fatalf("read %d: %v", k, err)
		}
		if got := binary.LittleEndian.Uint64(v); got != uint64(k)+1000 {
			t.Fatalf("key %d = %d, want %d", k, got, uint64(k)+1000)
		}
	}
	_ = tx.Commit()
}
