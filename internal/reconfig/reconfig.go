// Package reconfig implements online cluster reconfiguration: adding,
// removing or replacing (re-replication, §3.2.5) a memory server on a
// *running* cluster (DESIGN.md §13).
//
// A migration coordinator moves each affected partition through an
// explicit, journaled state machine — stable → copying (fuzzy
// background copy) → cut-over (drain barrier + authoritative copy) →
// done (new view installed) — one partition at a time, so the
// transaction-visible disruption is bounded by one partition's cutover,
// not the whole reshard. Transactions that touch a partition mid-
// cutover abort with the reconfig taxonomy and retry against the
// refreshed placement epoch; they never commit against a stale view.
//
// The migration journal is persisted on the memory tier exactly like
// transaction logs (replicated whole-image writes, highest sequence
// wins), so a crashed coordinator — or a crashed source or destination
// node — leaves enough state for any other coordinator to drive every
// partition forward to completion. All steps are idempotent in the
// style of §3.2.3: re-running a partially executed migration, or racing
// two recovery coordinators over the same half-finished migration, is
// always safe.
package reconfig

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"pandora/internal/kvlayout"
	"pandora/internal/metrics"
	"pandora/internal/place"
	"pandora/internal/rdma"
	"pandora/internal/recovery"
)

// Step identifies a point between journaled migration steps at which
// the OnStep hook fires — the crash points of the chaos matrix.
type Step uint8

const (
	// StepJournalStart fires after the migration is first journaled.
	StepJournalStart Step = iota
	// StepCopied fires after a partition's fuzzy background copy.
	StepCopied
	// StepMarked fires after a partition is marked migrating and the
	// drain barrier has completed.
	StepMarked
	// StepCutoverCopied fires after the authoritative quiescent copy.
	StepCutoverCopied
	// StepInstalled fires after the partition's new view is installed
	// on the recovery manager and every live peer.
	StepInstalled
	// StepPartitionDone fires after the partition is unmarked and
	// journaled done.
	StepPartitionDone
	// StepFinalize fires before the final membership view installs.
	StepFinalize
)

// String names the step for logs and deterministic chaos output.
func (s Step) String() string {
	switch s {
	case StepJournalStart:
		return "journal-start"
	case StepCopied:
		return "copied"
	case StepMarked:
		return "marked"
	case StepCutoverCopied:
		return "cutover-copied"
	case StepInstalled:
		return "installed"
	case StepPartitionDone:
		return "partition-done"
	case StepFinalize:
		return "finalize"
	}
	return fmt.Sprintf("step(%d)", uint8(s))
}

// NoPartition marks a StepEvent that is migration-scoped rather than
// partition-scoped.
const NoPartition = ^uint32(0)

// StepEvent describes one hook firing: where the migration is and which
// nodes a crash would hit hardest.
type StepEvent struct {
	Step      Step
	Partition uint32      // NoPartition for migration-scoped steps
	Source    rdma.NodeID // representative copy source (0 if none)
	Dest      rdma.NodeID // representative copy destination (0 if none)
}

// ErrInterrupted is what chaos hooks conventionally return to simulate
// a coordinator crash between journaled steps.
var ErrInterrupted = errors.New("reconfig: coordinator interrupted")

// Config wires a migration coordinator into a cluster.
type Config struct {
	Fabric *rdma.Fabric
	Schema []kvlayout.Table
	// Mgr is the recovery manager: the coordinator serializes every
	// journaled step against recovery operations through its operation
	// lock, installs placement views and pauses the live compute nodes
	// through it, and resolves memory servers through it.
	Mgr *recovery.Manager
	// Node is the fabric node this coordinator issues verbs from. It
	// must be unique per coordinator instance.
	Node rdma.NodeID
	// Metrics, when set, receives one PhaseMigrate latency sample per
	// migrated partition, measured on the coordinator's virtual clock.
	Metrics *metrics.Registry
	// OnStep, when set, fires between journaled steps. Returning an
	// error abandons the migration mid-flight (simulating a coordinator
	// crash); the journal and any partition marks are left as-is for
	// Recover to clean up. It is always invoked OUTSIDE the operation
	// lock, so a hook may safely trigger failure handling (which takes
	// that lock).
	OnStep func(StepEvent) error
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

// Coordinator drives online add/remove migrations. One instance may run
// at most one migration at a time; independent instances (sharing the
// same recovery manager) may race over the same journaled migration
// during recovery and will converge.
type Coordinator struct {
	cfg Config
	clk rdma.VClock
	ep  *rdma.Endpoint

	active atomic.Bool // Run is in progress
}

// NewCoordinator attaches a migration coordinator to the fabric.
func NewCoordinator(cfg Config) *Coordinator {
	cfg.Fabric.EnsureNode(cfg.Node)
	c := &Coordinator{cfg: cfg}
	c.ep = cfg.Fabric.Endpoint(cfg.Node).WithClock(&c.clk)
	return c
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// hook fires the OnStep callback. It runs outside the operation lock.
func (c *Coordinator) hook(ev StepEvent) error {
	if c.cfg.OnStep == nil {
		return nil
	}
	if err := c.cfg.OnStep(ev); err != nil {
		return fmt.Errorf("reconfig: abandoned at step %v: %w", ev.Step, err)
	}
	return nil
}

// step runs one journaled migration step under the recovery manager's
// operation lock, so partition copies and view installs never
// interleave with compute recoveries or memory-failure promotions.
func (c *Coordinator) step(fn func() error) error {
	c.cfg.Mgr.LockOps()
	defer c.cfg.Mgr.UnlockOps()
	return fn()
}

// installed reports whether partition p's target placement is already
// the installed placement. This is the disambiguation rule that makes
// cutover crash-safe: once the new view is installed, writers commit
// against the new replicas, so recovery must NEVER re-copy from the old
// source (it would overwrite post-cutover commits with stale bytes) —
// it only finishes the bookkeeping.
func (c *Coordinator) installed(p uint32, target *place.Ring) bool {
	return equalIDs(c.cfg.Mgr.Ring().Replicas(p), target.Replicas(p))
}

// Run executes a full migration from the currently installed ring to
// target. For KindAdd the subject server must already be attached to
// the recovery manager (so an interrupted migration can resume onto
// it); for KindRemove the subject is detached by the caller after Run
// returns.
func (c *Coordinator) Run(kind Kind, subject rdma.NodeID, target *place.Ring) error {
	if !c.active.CompareAndSwap(false, true) {
		return errors.New("reconfig: a migration is already running on this coordinator")
	}
	defer c.active.Store(false)

	cur := c.cfg.Mgr.Ring()
	if target.Partitions() != cur.Partitions() || target.Replication() != cur.Replication() {
		return errors.New("reconfig: target ring shape differs from installed ring")
	}
	if prev := c.readJournal(); prev != nil && prev.phase == phaseRunning {
		return errors.New("reconfig: an interrupted migration is journaled; run Recover first")
	}

	moved := movedPartitions(cur, target)
	im := newImage(kind, subject, cur, target)
	if err := c.step(func() error { return c.writeJournal(im) }); err != nil {
		return err
	}
	c.logf("reconfig: %v node %d: migrating %d of %d partitions", kind, subject, len(moved), cur.Partitions())
	if err := c.hook(StepEvent{Step: StepJournalStart, Partition: NoPartition, Dest: subject}); err != nil {
		return err
	}

	for _, p := range moved {
		if err := c.advancePartition(p, target); err != nil {
			return err
		}
	}
	if err := c.hook(StepEvent{Step: StepFinalize, Partition: NoPartition}); err != nil {
		return err
	}
	return c.finalize(target)
}

// Recover drives any journaled, incomplete migration to completion and
// reports whether there was one. It is idempotent — a second full pass
// finds every partition done and the phase complete, and performs no
// work — and safe to race from two live coordinators: every step
// re-reads the journal and re-checks the installed placement under the
// operation lock. Run refuses to start while a migration is journaled
// running, so Recover runs before any later migration — a
// re-replication of a node the interrupted one names included.
func (c *Coordinator) Recover() (bool, error) {
	im := c.readJournal()
	if im == nil || im.phase == phaseComplete {
		return false, nil
	}
	cur := c.cfg.Mgr.Ring()
	if err := im.fits(cur); err != nil {
		return true, err
	}
	target, err := place.Rebuild(im.to, cur.Replication(), cur.Partitions(), cur.Epoch()+1)
	if err != nil {
		return true, fmt.Errorf("reconfig: rebuilding target ring: %w", err)
	}
	c.logf("reconfig: recovering interrupted %v of node %d", im.kind, im.subject)
	for p := uint32(0); p < cur.Partitions(); p++ {
		if im.states[p] == StateDone {
			continue
		}
		if err := c.advancePartition(p, target); err != nil {
			return true, err
		}
	}
	if err := c.hook(StepEvent{Step: StepFinalize, Partition: NoPartition}); err != nil {
		return true, err
	}
	return true, c.finalize(target)
}

// advancePartition drives one partition from whatever journaled state
// it is in to done. Every step is idempotent and re-checks the journal
// and the installed placement under the operation lock.
func (c *Coordinator) advancePartition(p uint32, target *place.Ring) error {
	start := c.clk.Now()
	src, dst := c.copyEndpoints(p, target)
	done := false

	// Step 1 — fuzzy background copy, concurrent with live writers:
	// populate the new replicas while the old placement still serves
	// transactions. The image may be stale; the cutover copy fixes it.
	if err := c.step(func() error {
		was, err := c.advanceJournal(p, StateCopying)
		if err != nil {
			return err
		}
		if was == StateDone {
			done = true
			return nil
		}
		if c.installed(p, target) {
			return nil // already cut over: only bookkeeping remains
		}
		return c.copyPartition(p, target, true)
	}); err != nil {
		return err
	}
	if done {
		return nil
	}
	if err := c.hook(StepEvent{Step: StepCopied, Partition: p, Source: src, Dest: dst}); err != nil {
		return err
	}

	// Step 2 — mark the partition migrating in the cluster's view (every
	// live peer, and any peer that restarts before the mark drops), then
	// drain: any transaction resolving p after the mark aborts with the
	// reconfig taxonomy; the pause/resume barrier waits out every
	// transaction already in flight. After this step p is quiescent.
	if err := c.step(func() error {
		if c.installed(p, target) {
			return nil
		}
		c.cfg.Mgr.Update(func(v *place.View) *place.View { return v.WithMigrating(p, true) })
		c.cfg.Mgr.PauseLive()()
		return nil
	}); err != nil {
		return err
	}
	if err := c.hook(StepEvent{Step: StepMarked, Partition: p, Source: src, Dest: dst}); err != nil {
		return err
	}

	// Step 3 — journal the cutover, then the authoritative copy: p is
	// quiescent, so refreshing every target replica yields a
	// byte-identical image (slot indexes and versions preserved).
	if err := c.step(func() error {
		if c.installed(p, target) {
			return nil
		}
		if _, err := c.advanceJournal(p, StateCutover); err != nil {
			return err
		}
		return c.copyPartition(p, target, false)
	}); err != nil {
		return err
	}
	if err := c.hook(StepEvent{Step: StepCutoverCopied, Partition: p, Source: src, Dest: dst}); err != nil {
		return err
	}

	// Step 4 — install the post-cutover view: the current ring with
	// only this partition reassigned, everywhere (manager first, then
	// peers; transactions aborting meanwhile retry and see the mark).
	if err := c.step(func() error {
		if c.installed(p, target) {
			return nil
		}
		c.cfg.Mgr.Update(func(v *place.View) *place.View {
			return v.WithRing(v.Ring().Reassign(p, target.Replicas(p)))
		})
		return nil
	}); err != nil {
		return err
	}
	if err := c.hook(StepEvent{Step: StepInstalled, Partition: p, Source: src, Dest: dst}); err != nil {
		return err
	}

	// Step 5 — unmark (transactions now run against the new placement),
	// then journal done. Unmark precedes the journal write so a crash
	// between them re-runs this partition's bookkeeping, never the
	// copy.
	if err := c.step(func() error {
		c.cfg.Mgr.Update(func(v *place.View) *place.View { return v.WithMigrating(p, false) })
		_, err := c.advanceJournal(p, StateDone)
		return err
	}); err != nil {
		return err
	}
	c.cfg.Metrics.RecordPhase(metrics.PhaseMigrate, uint64(p), c.clk.Now()-start)
	c.logf("reconfig: partition %d cut over (epoch %d)", p, c.cfg.Mgr.Ring().Epoch())
	return c.hook(StepEvent{Step: StepPartitionDone, Partition: p, Source: src, Dest: dst})
}

// copyPartition copies every table region of partition p from a live
// replica of the *installed* placement to replicas of the target
// placement, with one-sided verbs — never host-local copies, because
// the fuzzy phase races live verb traffic by design. newOnly restricts
// destinations to replicas absent from the installed placement (the
// fuzzy copy must not overwrite a live replica that concurrent writers
// target); the cutover copy, running quiescent, refreshes every target
// replica. A crashed destination is tolerated like a dead replica at
// commit; a partition with no live source is unrecoverable and errors.
func (c *Coordinator) copyPartition(p uint32, target *place.Ring, newOnly bool) error {
	curRep := c.cfg.Mgr.Ring().Replicas(p)
	for _, tab := range c.cfg.Schema {
		region := kvlayout.TableRegionID(tab.ID, p)
		buf := make([]byte, tab.RegionSize())
		srcID := place.Hole // no memory server has this id
		for _, n := range curRep {
			if c.cfg.Fabric.IsDown(n) {
				continue
			}
			if err := c.ep.Read(rdma.Addr{Node: n, Region: region}, buf); err != nil {
				continue
			}
			srcID = n
			break
		}
		if srcID == place.Hole {
			return fmt.Errorf("reconfig: partition %d has no live replica to copy table %d from", p, tab.ID)
		}
		for _, n := range target.Replicas(p) {
			if n == srcID || (newOnly && slices.Contains(curRep, n)) {
				continue
			}
			srv := c.cfg.Mgr.MemServer(n)
			if srv == nil {
				return fmt.Errorf("reconfig: target replica %d of partition %d is not attached", n, p)
			}
			if srv.Down() {
				continue
			}
			srv.EnsureTableRegion(tab.ID, p)
			addr := rdma.Addr{Node: n, Region: region}
			if err := c.ep.Write(addr, buf); err != nil {
				if errors.Is(err, rdma.ErrNodeDown) {
					continue
				}
				return err
			}
			if c.cfg.Fabric.Persistent() {
				_ = c.ep.Flush(addr, len(buf))
			}
		}
	}
	return nil
}

// copyEndpoints picks the representative source and destination node
// for partition p's hook events: the first live installed replica and
// the first target replica not currently hosting p.
func (c *Coordinator) copyEndpoints(p uint32, target *place.Ring) (src, dst rdma.NodeID) {
	curRep := c.cfg.Mgr.Ring().Replicas(p)
	for _, n := range curRep {
		if !c.cfg.Fabric.IsDown(n) {
			src = n
			break
		}
	}
	for _, n := range target.Replicas(p) {
		if !slices.Contains(curRep, n) {
			dst = n
			break
		}
	}
	return src, dst
}

// finalize installs the target membership view under a global pause —
// the one moment log placement may move, which is why intermediate
// views pin it — and journals the migration complete.
func (c *Coordinator) finalize(target *place.Ring) error {
	err := c.step(func() error {
		cur := c.cfg.Mgr.Ring()
		if !equalIDs(cur.Members(), target.Members()) {
			final := target.Sequenced(cur)
			resume := c.cfg.Mgr.PauseLive()
			c.cfg.Mgr.Update(func(v *place.View) *place.View { return v.WithRing(final) })
			resume()
		}
		return c.completeJournal()
	})
	if err == nil {
		c.logf("reconfig: migration complete (epoch %d)", c.cfg.Mgr.Ring().Epoch())
	}
	return err
}

// PartitionStatus is one partition's remaining migration state.
type PartitionStatus struct {
	Partition uint32
	State     PartitionState
}

// Status reports the journaled migration state: whether a migration is
// incomplete, what it is doing, and which partitions still have work,
// in ascending partition order.
type Status struct {
	Active    bool // an incomplete migration is journaled
	Kind      Kind
	Subject   rdma.NodeID
	Epoch     uint64 // placement epoch currently installed
	Remaining []PartitionStatus
}

// Status reads the replicated journal and the installed ring.
func (c *Coordinator) Status() (Status, error) {
	st := Status{Epoch: c.cfg.Mgr.Ring().Epoch()}
	im := c.readJournal()
	if im == nil {
		return st, nil
	}
	st.Kind, st.Subject = im.kind, im.subject
	st.Active = im.phase == phaseRunning
	for p, s := range im.states {
		if s != StateDone {
			st.Remaining = append(st.Remaining, PartitionStatus{Partition: uint32(p), State: s})
		}
	}
	return st, nil
}

// movedPartitions lists, ascending, every partition whose replica set
// differs between cur and target.
func movedPartitions(cur, target *place.Ring) []uint32 {
	var out []uint32
	for p := uint32(0); p < cur.Partitions(); p++ {
		if !equalIDs(cur.Replicas(p), target.Replicas(p)) {
			out = append(out, p)
		}
	}
	return out
}

func equalIDs(a, b []rdma.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
