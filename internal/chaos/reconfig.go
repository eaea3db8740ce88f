package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	pandora "pandora"
	"pandora/internal/reconfig"
)

// ReconfigModes lists the crash modes of the online-reconfiguration
// scenario family: which participant of a live partition migration the
// run kills at a seeded step.
func ReconfigModes() []string {
	return []string{"coordinator", "source", "destination"}
}

// RunReconfig executes the online-reconfiguration chaos scenario: a
// memory node joins a loaded, running cluster; at a seed-chosen
// journaled migration step the run crashes the migration coordinator —
// and, in the source/destination modes, also the memory node the
// in-flight partition copy was reading from or writing to — then drives
// ReconfigRecover from a standby coordinator, re-replicates whichever
// memory node died, and audits the workload invariant plus the
// structural store invariants on the healed cluster.
//
// The crash point is a pure function of the seed (the coordinator
// processes partitions in ascending order, so the step-event sequence
// is deterministic), which keeps the event log byte-identical across
// same-seed runs. FD suspicion escalation stays off for the same
// reason. The trailing audit requires a spotless store: every key
// present exactly once, no divergent replicas, zero locked slots.
func RunReconfig(cfg Config, mode string) (*Result, error) {
	cfg.fillDefaults()
	valid := false
	for _, m := range ReconfigModes() {
		if m == mode {
			valid = true
		}
	}
	if !valid {
		return nil, fmt.Errorf("chaos: unknown reconfig crash mode %q (valid: %v)", mode, ReconfigModes())
	}
	wl, err := newWorkload(cfg.Workload, cfg.Keys)
	if err != nil {
		return nil, err
	}
	cluster, err := pandora.New(pandora.Config{
		ComputeNodes:        cfg.Computes,
		MemoryNodes:         cfg.Memories,
		CoordinatorsPerNode: cfg.Coordinators,
		Replication:         2,
		Tables:              []pandora.TableSpec{wl.table()},
		VerbTimeout:         cfg.VerbTimeout,
		SuspectThreshold:    -1, // escalation would race the seeded crash point
		ReadCacheSize:       cfg.ReadCacheSize,
	})
	if err != nil {
		return nil, err
	}
	defer cluster.Close()
	if err := wl.load(cluster); err != nil {
		return nil, err
	}

	e := &engine{
		cfg:   cfg,
		c:     cluster,
		wl:    wl,
		stop:  make(chan struct{}),
		alive: make([]bool, cfg.Computes),
	}
	for i := range e.alive {
		e.alive[i] = true
	}
	res := &Result{}
	shutdown := func() {
		close(e.stop)
		e.wg.Wait()
	}

	cfg.Logf("chaos reconfig seed=%d crash=%s workload=%s computes=%d memories=%d coords=%d keys=%d",
		cfg.Seed, mode, cfg.Workload, cfg.Computes, cfg.Memories, cfg.Coordinators, cfg.Keys)

	for node := 0; node < cfg.Computes; node++ {
		for coord := 0; coord < cfg.Coordinators; coord++ {
			e.wg.Add(1)
			go e.worker(node, coord, cfg.Seed^int64(node*1000+coord+1))
		}
	}
	time.Sleep(cfg.Gap) //pandora:wallclock let the workload build up in-flight transactions before the migration starts
	// On a loaded host the gap can pass before any worker was scheduled,
	// and the whole scenario then finishes without a single commit: wait
	// (bounded) for the first acknowledgement, the event the gap stands for.
	for i := 0; i < 1000 && e.acked.Load() == 0; i++ {
		time.Sleep(time.Millisecond) //pandora:wallclock paces the wait for the live workload's first commit; the event log does not depend on it
	}

	// The crash fires at the crashAt-th partition-scoped step event;
	// should the migration move fewer partitions than that, the finalize
	// step is the guaranteed fallback, so every seed injects exactly one
	// crash.
	rng := rand.New(rand.NewSource(cfg.Seed))
	crashAt := 1 + rng.Intn(12)
	var (
		injected bool
		seen     int
		victim   pandora.NodeID
		subject  pandora.NodeID
	)
	cluster.SetReconfigHook(func(ev pandora.ReconfigStep) error {
		if ev.Step == reconfig.StepJournalStart {
			subject = ev.Dest
		}
		scoped := ev.Partition != reconfig.NoPartition
		if scoped {
			seen++
		}
		if injected || (!(scoped && seen == crashAt) && ev.Step != reconfig.StepFinalize) {
			return nil
		}
		injected = true
		where := "finalize"
		if scoped {
			where = fmt.Sprintf("%v p%d", ev.Step, ev.Partition)
		}
		switch mode {
		case "source":
			victim = ev.Source
			if victim == 0 { // migration-scoped fallback: any live source-side node
				victim = cluster.Recovery().Ring().Nodes()[0]
			}
		case "destination":
			victim = ev.Dest
			if victim == 0 { // migration-scoped fallback: the joining node itself
				victim = subject
			}
		}
		if victim != 0 {
			if err := cluster.FailMemoryID(victim); err != nil {
				return fmt.Errorf("crashing %s node %d: %w", mode, victim, err)
			}
			cfg.Logf("crash: %s node %d and coordinator at step %d (%s)", mode, victim, seen, where)
		} else {
			cfg.Logf("crash: coordinator at step %d (%s)", seen, where)
		}
		return pandora.ErrReconfigInterrupted
	})
	idx, err := cluster.AddMemory()
	cluster.SetReconfigHook(nil)
	res.Events++
	if err == nil {
		shutdown()
		return nil, fmt.Errorf("chaos: reconfig crash was never injected (migration completed)")
	}
	if !errors.Is(err, pandora.ErrReconfigInterrupted) {
		shutdown()
		return nil, fmt.Errorf("chaos: add-memory failed outside the injected crash: %w", err)
	}
	cfg.Logf("add-memory m%d (node %d) interrupted, journal left active", idx, subject)

	// A standby coordinator takes over the orphaned migration and drives
	// every remaining partition to done — with the crashed node, if any,
	// still dead (copies skip dead destinations; sources fall back to the
	// surviving replica).
	did, err := cluster.ReconfigRecover()
	if err != nil {
		shutdown()
		return nil, fmt.Errorf("chaos: migration recovery: %w", err)
	}
	res.Events++
	if !did {
		res.Violations = append(res.Violations, "no journaled migration found after the crash")
		cfg.Logf("VIOLATION: no journaled migration found after the crash")
	}
	st, err := cluster.ReconfigStatus()
	if err != nil {
		shutdown()
		return nil, fmt.Errorf("chaos: reconfig status: %w", err)
	}
	if st.Active || len(st.Remaining) != 0 {
		v := fmt.Sprintf("migration incomplete after recovery: %d partitions remain", len(st.Remaining))
		res.Violations = append(res.Violations, v)
		cfg.Logf("VIOLATION: %s", v)
	} else {
		cfg.Logf("recovery complete: node %d joined, epoch %d", subject, st.Epoch)
	}
	res.Audits++
	if v := e.audit(false); len(v) > 0 {
		res.Violations = append(res.Violations, v...)
		for _, s := range v {
			cfg.Logf("audit VIOLATION: %s", s)
		}
	} else {
		cfg.Logf("audit ok")
	}

	// Heal: restore full redundancy by replacing the crashed memory node.
	// Re-replication is itself a migration, so it refuses to start until
	// the recovery above has finished the journaled one.
	if victim != 0 {
		i := cluster.MemoryIndex(victim)
		if i < 0 {
			shutdown()
			return nil, fmt.Errorf("chaos: crashed node %d vanished from the cluster", victim)
		}
		if _, err := cluster.Rereplicate(i); err != nil {
			shutdown()
			return nil, fmt.Errorf("chaos: re-replicating crashed node %d: %w", victim, err)
		}
		cfg.Logf("rereplicate m%d", i)
		res.Events++
	}

	shutdown()

	// Final audit on the healed, quiescent cluster.
	e.c.RecycleCoordinatorIDs()
	res.Audits++
	if v := e.audit(true); len(v) > 0 {
		res.Violations = append(res.Violations, v...)
		for _, s := range v {
			cfg.Logf("final audit VIOLATION: %s", s)
		}
	} else {
		cfg.Logf("final audit ok keys=%d", cfg.Keys)
	}

	res.Acked = e.acked.Load()
	res.Aborted = e.aborted.Load()
	res.Unknown = e.unknown.Load()
	res.Metrics = e.c.MetricsSnapshot()
	if res.Acked == 0 {
		res.Violations = append(res.Violations, "workload acknowledged zero commits")
		cfg.Logf("VIOLATION: workload acknowledged zero commits")
	}
	return res, nil
}
