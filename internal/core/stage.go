package core

// The stage pipeline (DESIGN.md §16). Every doorbell a transaction rings
// from its first lock on — the lock step, validation, log, apply,
// truncate, release, and on the abort side rollback — is a stage: one
// pooled verb batch cut into two segments that must take effect in
// order, plus the crash points that sit around and inside it. The lock
// step, Commit, the abort path and the log writers only build stages;
// run is the one place that decides how a stage reaches the fabric,
// classifies what came back, counts the commit round and honours crash
// injection. The paper's recovery
// argument (§3.2.3, Cor3) is a statement about which memory states a
// crash between two steps can leave; stageTable is the list of those
// steps.

import (
	"errors"
	"time"

	"pandora/internal/rdma"
)

// point is a crash point as a stage declares it: CrashPoint+1, so the
// zero value means "no crash point here".
type point uint8

func at(p CrashPoint) point { return point(p) + 1 }

// stageKind names a row of stageTable.
type stageKind uint8

const (
	stageRead       stageKind = iota // a read has returned: verb-less
	stageLockIntent                  // tradlog's lock-intent writes; verb-less under PILL
	stageLock                        // lock CAS, slot READ
	stageSteal                       // PILL: steal CAS, slot READ
	stageLocked                      // the lock is held: verb-less
	stageClaim                       // an insert's claim WRITE; verb-less for update and delete
	stageValidate                    // lock+version READs of the read-set entries no held lock covers
	stageDecide                      // the commit decision: verb-less
	stageLog                         // Pandora/tradlog record writes | durability flushes
	stageFordLog                     // FORD per-object record writes | durability flushes
	stageApply                       // replica writes | durability flushes
	stageAck                         // the client acknowledgement: verb-less
	stageTail                        // commit tail: truncations | releases
	stageAbortTail                   // abort: truncations | releases
	stageRollback                    // abort: pre-image writes
)

// splitRule says when a stage's two segments get a doorbell each
// instead of sharing one. RC per-pair ordering makes the shared
// doorbell safe: the second segment's verbs follow the first's on every
// queue pair.
type splitRule uint8

const (
	// splitUnfused: one doorbell, two under Options.UnfusedCommitTail
	// (the commitpipe experiment's pre-fusion baseline).
	splitUnfused splitRule = iota
	// splitAlways: FORD flushes its exec-time logs in a round of their
	// own (§7: one flush round trip per touched node) — the baseline's
	// cost is not ours to fuse away.
	splitAlways
)

// stageSpec is the static part of a stage.
type stageSpec struct {
	// cleanup stages write only state this transaction owns (pre-images,
	// its log header, its lock words), so link-faulted verbs are
	// re-posted until they land; elsewhere a link fault is a clean
	// pre-ack abort.
	cleanup bool
	// strict stages address one replica, the primary, so a dead server
	// fails them like any other fault; the others write every replica and
	// proceed past a dead one (§3.2.5).
	strict bool
	// counted stages sit on the post-validation critical path: each
	// doorbell is one commit round (metrics.Snapshot.Drain.CommitRounds).
	counted bool
	// trailing stages carry no decision — the client has been
	// acknowledged and nothing may roll back (Cor3) — so their one
	// doorbell of an uninjected, fused run is posted and not waited for:
	// the verbs land, and the charge rides the coordinator's next doorbell
	// (DESIGN.md §16 "Post at the ack, paid by the next doorbell").
	trailing bool
	split    splitRule
	// Crash points, live only while an injector is installed: before the
	// first verb, between the segments, after each verb of the first /
	// second segment, after the last verb.
	before, between, eachFirst, eachSecond, after point
}

var stageTable = [...]stageSpec{
	stageRead:       {after: at(PointAfterRead)},
	stageLockIntent: {before: at(PointBeforeLock)},
	stageLock:       {strict: true},
	stageSteal:      {strict: true},
	stageLocked:     {after: at(PointAfterLock)},
	stageClaim:      {strict: true, after: at(PointAfterExecRead)},
	stageValidate:   {strict: true},
	stageDecide:     {after: at(PointAfterValidation)},
	stageLog:        {counted: true, after: at(PointAfterLog)},
	stageFordLog:    {split: splitAlways, after: at(PointAfterFORDLog)},
	stageApply:      {counted: true, eachFirst: at(PointAfterApplyOne), between: at(PointAfterApplyAll)},
	stageAck:        {after: at(PointAfterAck)},
	stageTail: {cleanup: true, counted: true, trailing: true,
		between: at(PointAfterTruncate), eachSecond: at(PointAfterUnlock), after: at(PointAfterUnlock)},
	stageAbortTail: {cleanup: true, eachSecond: at(PointAfterUnlock)},
	stageRollback:  {cleanup: true},
}

// stage is one step of the pipeline, by value: ops [0:cut) of b are the
// first segment, the rest the second. The verb-less kinds carry no
// batch.
type stage struct {
	kind stageKind
	b    *rdma.OpBatch
	cut  int
}

// run is how a transaction posts a stage it built: through the node's
// seeded-bug rewrite (bugs.go), if any, to the executor.
func (tx *Tx) run(st stage) (inFirst bool, err error) { return tx.co.run(tx.seeded(st)) }

// seeded returns st as the node's seeded bugs would have built it.
func (tx *Tx) seeded(st stage) stage {
	if rw := tx.cn.plan.rewrite; rw != nil {
		st = rw(tx, st)
	}
	return st
}

// run executes one stage and returns the first completion, in posting
// order, that the stage does not tolerate (nil if none);
// inFirst reports that it struck the first segment, in which case the
// second segment may not have been posted at all. Per-op results stay
// in the ops.
//
// Without an injector no crash point is live and the stage is posted as
// one doorbell, or one per segment where its splitRule says so. With
// one, every declared crash point is offered to it in order and a
// segment with an each-verb point runs verb-at-a-time, so a scripted
// crash lands between any two verbs; ops a crash or failure kept from
// the fabric are left marked errNotPosted.
func (co *Coordinator) run(st stage) (inFirst bool, err error) {
	cn, spec := co.node, &stageTable[st.kind]
	var all, first, second []*rdma.Op
	if st.b != nil {
		all = st.b.Ops()
		first, second = all[:st.cut], all[st.cut:]
	}
	inj := cn.injector.Load()
	switch {
	case inj != nil:
		if cn.offer(inj, co.id, spec.before) {
			return true, rdma.ErrCrashed
		}
		if err := co.step(inj, spec, first, spec.eachFirst); err != nil {
			return true, err
		}
		if cn.offer(inj, co.id, spec.between) {
			return false, rdma.ErrCrashed
		}
		if err := co.step(inj, spec, second, spec.eachSecond); err != nil {
			return false, err
		}
		if cn.offer(inj, co.id, spec.after) {
			return false, rdma.ErrCrashed
		}
		return false, nil
	case cn.crashed.Load():
		return true, rdma.ErrCrashed
	case spec.split == splitAlways || spec.split == splitUnfused && cn.opts.UnfusedCommitTail:
		if err := co.doorbell(spec, first, false); err != nil {
			return true, err
		}
		return false, co.doorbell(spec, second, false)
	default:
		err := co.doorbell(spec, all, spec.trailing)
		if err != nil {
			for _, op := range first {
				inFirst = inFirst || !spec.tolerates(op.Err)
			}
		}
		return inFirst, err
	}
}

// post rings st as one doorbell on the transaction's endpoint and
// returns without waiting for it (DESIGN.md §16 "The lock step"): the
// verbs land now, their charge joins the endpoint's outstanding set, and
// the caller reads the completions only after the wait that covers them,
// through verdict. Only a lock stage of an uninjected run is posted: it
// has no crash point, no cleanup retry and no commit round, so run would
// do nothing else with it — on a crashed node the endpoint's gate fails
// every op with ErrCrashed, as run would have failed the stage.
func (co *Coordinator) post(st stage) { _ = co.ep.Post(st.b.Ops()...) }

// verdict is what run returns for a stage posted without waiting, read
// once waited for: the first completion, in posting order, that the
// stage does not tolerate.
func (spec *stageSpec) verdict(ops []*rdma.Op) error {
	for _, op := range ops {
		if !spec.tolerates(op.Err) {
			return op.Err
		}
	}
	return nil
}

// doorbell posts ops as one doorbell of a non-injected run and counts
// the commit round; lazy is ring's.
func (co *Coordinator) doorbell(spec *stageSpec, ops []*rdma.Op, lazy bool) error {
	if len(ops) == 0 {
		return nil
	}
	err := co.ring(ops, spec, lazy)
	if spec.counted {
		// Injected runs never get here: verb-at-a-time rounds are not
		// comparable and are not benchmarked.
		co.node.opts.Metrics.CountCommitRound(uint64(co.id))
	}
	return err
}

// errNotPosted marks an op of an injected run that never reached the
// fabric, so a builder attributing per-op results cannot mistake it for
// a verb that landed.
var errNotPosted = errors.New("core: verb not posted")

// step posts one segment of an injected run: as one doorbell, or — when
// the segment has an each-verb crash point — verb-at-a-time with the
// point offered after every verb.
func (co *Coordinator) step(inj *CrashInjector, spec *stageSpec, ops []*rdma.Op, each point) error {
	if each == 0 {
		return co.ring(ops, spec, false)
	}
	for _, op := range ops {
		op.Err = errNotPosted
	}
	for i := range ops {
		if co.node.crashed.Load() {
			return rdma.ErrCrashed
		}
		if err := co.ring(ops[i:i+1], spec, false); err != nil {
			return err
		}
		if co.node.offer(inj, co.id, each) {
			return rdma.ErrCrashed
		}
	}
	return nil
}

// tolerates reports a completion the stage proceeds past: the verb
// landed, or — unless the stage is strict — its target memory server is
// down, the memory-failure case of §3.2.5, handled by continuing against
// the live replicas (the dead one is recovery's job).
func (spec *stageSpec) tolerates(err error) bool {
	return err == nil || !spec.strict && errors.Is(err, rdma.ErrNodeDown)
}

// cleanupMaxAttempts bounds ring's retry loop (a variable so tests can
// exhaust it). In practice the loop ends much earlier: a stalled link
// either heals or escalates via the suspicion counter into an FD
// failure, at which point the verbs fail with ErrNodeDown (tolerated).
var cleanupMaxAttempts = 10000

// ring posts ops as one doorbell and classifies every completion, once:
// tolerated, or returned to the caller (the first in posting order).
// In a cleanup stage link-faulted ops are re-posted under capped
// exponential backoff instead. The ops are plain WRITEs of state only
// this transaction owns, so re-issuing the failed subset is safe; ops
// that already completed are never re-run (a retry must not smash a
// lock word another transaction acquired after our successful release).
// Each suspected node is reported to the FD once. ErrCrashed /
// ErrRevoked propagate immediately; exhausting the budget returns
// ErrIndeterminate.
//
// A lazy ring posts its first attempt and does not wait for it when
// every completion is tolerated: the charge stays outstanding on the
// endpoint. Otherwise it waits first — the round is paid, as a waited
// ring pays it — and goes on as above.
func (co *Coordinator) ring(ops []*rdma.Op, spec *stageSpec, lazy bool) error {
	ep := co.ep
	backoff := 50 * time.Microsecond
	const maxBackoff = 2 * time.Millisecond
	var reported map[rdma.NodeID]bool
	for attempt := 0; len(ops) > 0; attempt++ {
		if attempt >= cleanupMaxAttempts {
			return &indeterminateError{cause: ops[0].Err}
		}
		if attempt > 0 {
			time.Sleep(backoff) //pandora:wallclock retry backoff paces real goroutines; attempt count, not sleep length, decides the outcome
			if backoff *= 2; backoff > maxBackoff {
				backoff = maxBackoff
			}
		}
		for _, op := range ops {
			op.Err = nil
		}
		if lazy {
			lazy = false
			if _ = ep.Post(ops...); spec.verdict(ops) == nil {
				return nil
			}
			ep.Wait()
		} else {
			_ = ep.Do(ops...)
		}
		var again []*rdma.Op
		for _, op := range ops {
			if spec.tolerates(op.Err) {
				continue
			}
			le := linkFault(op.Err)
			if !spec.cleanup || le == nil {
				return op.Err
			}
			if !reported[le.Dst] {
				if reported == nil {
					reported = make(map[rdma.NodeID]bool)
				}
				reported[le.Dst] = true
				co.node.reportSuspect(le.Dst)
			}
			again = append(again, op)
		}
		ops = again
	}
	return nil
}
