// Package chaos is a seeded chaos scenario engine for the pandora
// cluster: it derives a deterministic fault schedule from a seed,
// executes it against a live cluster running a concurrent workload, and
// audits the ack-bounded workload invariant plus the structural
// consistency of the store after every event. The event log is a pure
// function of the configuration — two runs with the same seed emit
// byte-identical logs (violations aside), which is what makes a chaos
// failure reproducible.
package chaos

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	pandora "pandora"
	"pandora/internal/conftest"
)

// Config parameterises one chaos run.
type Config struct {
	// Seed drives every random choice (schedule and workload key
	// picks). Same seed, same config ⇒ same schedule and event log.
	Seed int64
	// Scenario selects the fault palette: crash, graylink, memory,
	// power, or mixed (default).
	Scenario string
	// Workload is counter (default) or bank.
	Workload string

	Computes     int // compute nodes (default 3)
	Memories     int // memory nodes (default 3)
	Coordinators int // coordinators (= workers) per compute node (default 2)
	Keys         int // workload keys (default 48)

	// Events is the number of seed-drawn fault events (default 12); the
	// trailing cleanup events come on top.
	Events int
	// Gap is the wall-clock spacing between events (default 2ms) — the
	// window in which the workload runs against the faulted cluster.
	Gap time.Duration
	// VerbTimeout bounds coordinator verbs held up by stalled/slow
	// links (default 500µs). Required >0 for link-fault scenarios.
	VerbTimeout time.Duration
	// Escalate enables FD suspicion escalation (SuspectThreshold
	// default instead of disabled). Escalation races the schedule —
	// recovery may fire from a worker's suspicion reports between
	// events — so an escalated run's event log is best-effort, not
	// byte-reproducible; keep it off when comparing logs.
	Escalate bool

	// ReadCacheSize is passed through to pandora.Config.ReadCacheSize:
	// 0 = default-sized validated read cache, negative = disabled. The
	// cache-coherence-under-failure scenarios run the same schedules
	// with the cache on and assert zero violations.
	ReadCacheSize int

	// Logf receives the deterministic event log, one line per call
	// (nil discards). Keep nondeterministic output (stats, timings)
	// out of this sink.
	Logf func(format string, args ...any)
}

func (cfg *Config) fillDefaults() {
	if cfg.Scenario == "" {
		cfg.Scenario = "mixed"
	}
	if cfg.Workload == "" {
		cfg.Workload = "counter"
	}
	if cfg.Computes == 0 {
		cfg.Computes = 3
	}
	if cfg.Memories == 0 {
		cfg.Memories = 3
	}
	if cfg.Coordinators == 0 {
		cfg.Coordinators = 2
	}
	if cfg.Keys == 0 {
		cfg.Keys = 48
	}
	if cfg.Events == 0 {
		cfg.Events = 12
	}
	if cfg.Gap == 0 {
		cfg.Gap = 2 * time.Millisecond
	}
	if cfg.VerbTimeout == 0 {
		cfg.VerbTimeout = 500 * time.Microsecond
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
}

// Result summarises a chaos run. Violations empty means every audit
// passed. The op counters are wall-clock dependent (not reproducible).
type Result struct {
	Events     int      // fault events executed (incl. trailing cleanup)
	Audits     int      // audits performed
	Violations []string // invariant/consistency violations found
	Acked      int64    // transactions acknowledged committed
	Aborted    int64    // transactions aborted (retried by workers)
	Unknown    int64    // transactions with unresolved outcome
	// Metrics is the scenario's full observability delta (phase
	// histograms, abort taxonomy, verb counters). It is reported out of
	// band — never into Logf, whose output must stay byte-identical per
	// seed (the workload races the schedule, so counts are not
	// deterministic).
	Metrics pandora.Metrics
}

type engine struct {
	cfg Config
	c   *pandora.Cluster
	wl  workload

	// gate quiesces the workload for audits: workers hold the read
	// side around each transaction, audits take the write side.
	gate sync.RWMutex
	stop chan struct{}
	wg   sync.WaitGroup

	alive []bool // compute i currently usable

	acked, aborted, unknown atomic.Int64
}

// Run executes one chaos run and returns its result. A non-nil error
// means the run itself could not proceed (bad config, an inapplicable
// event); invariant violations are reported in Result.Violations.
func Run(cfg Config) (*Result, error) {
	cfg.fillDefaults()
	schedule, err := Schedule(cfg.Seed, cfg.Scenario, cfg.Computes, cfg.Memories, cfg.Events)
	if err != nil {
		return nil, err
	}
	wl, err := newWorkload(cfg.Workload, cfg.Keys)
	if err != nil {
		return nil, err
	}
	suspect := -1 // escalation off: deterministic schedules only
	if cfg.Escalate {
		suspect = 0 // FD default threshold
	}
	cluster, err := pandora.New(pandora.Config{
		ComputeNodes:        cfg.Computes,
		MemoryNodes:         cfg.Memories,
		CoordinatorsPerNode: cfg.Coordinators,
		Replication:         2,
		Tables:              []pandora.TableSpec{wl.table()},
		VerbTimeout:         cfg.VerbTimeout,
		SuspectThreshold:    suspect,
		Persistence:         cfg.Scenario == "power",
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

	cfg.Logf("chaos seed=%d scenario=%s workload=%s computes=%d memories=%d coords=%d keys=%d events=%d",
		cfg.Seed, cfg.Scenario, cfg.Workload, cfg.Computes, cfg.Memories, cfg.Coordinators, cfg.Keys, cfg.Events)

	for node := 0; node < cfg.Computes; node++ {
		for coord := 0; coord < cfg.Coordinators; coord++ {
			e.wg.Add(1)
			go e.worker(node, coord, cfg.Seed^int64(node*1000+coord+1))
		}
	}

	// Execute the schedule. Audits quiesce the workload, so they run
	// only while no link fault is active: a transaction stuck retrying
	// cleanup through a faulted link cannot finish until the heal, and
	// the quiesce would deadlock against it.
	activeLinks := 0
	for i, ev := range schedule {
		time.Sleep(cfg.Gap) //pandora:wallclock schedule pacing lets the live workload make progress between events; outcomes are audited, not timed
		if err := e.apply(ev); err != nil {
			if !cfg.Escalate {
				close(e.stop)
				e.wg.Wait()
				return nil, fmt.Errorf("chaos: event %d (%s): %w", i+1, ev, err)
			}
			// Escalation may have raced the schedule (e.g. the FD
			// already failed the node a report pushed over the
			// threshold); log and move on.
			cfg.Logf("event %d: %s (skipped: %v)", i+1, ev, err)
			continue
		}
		cfg.Logf("event %d: %s", i+1, ev)
		res.Events++
		switch ev.Kind {
		case EvPartitionLink, EvStallLink, EvSlowLink:
			activeLinks++
		case EvHealLink:
			activeLinks--
		case EvHealAllLinks:
			activeLinks = 0
		}
		if activeLinks > 0 {
			cfg.Logf("audit deferred (link faults active)")
			continue
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
	}

	close(e.stop)
	e.wg.Wait()

	// Final audit on the healed, quiescent cluster: recycle the failed
	// coordinator-ids' stray locks, then require a spotless store.
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

// apply executes one schedule event against the cluster.
func (e *engine) apply(ev Event) error {
	switch ev.Kind {
	case EvCrashCompute:
		_, err := e.c.FailCompute(ev.Compute)
		if err != nil {
			return err
		}
		e.alive[ev.Compute] = false
	case EvFailComputeSoft:
		_, err := e.c.FailComputeSoft(ev.Compute)
		if err != nil {
			return err
		}
		e.alive[ev.Compute] = false
	case EvRestartCompute:
		if err := e.c.RestartCompute(ev.Compute); err != nil {
			return err
		}
		e.alive[ev.Compute] = true
	case EvFailMemory:
		return e.c.FailMemory(ev.Mem)
	case EvPowerFailMemory:
		return e.c.PowerFailMemory(ev.Mem)
	case EvRereplicate:
		_, err := e.c.Rereplicate(ev.Mem)
		return err
	case EvPartitionLink:
		e.c.PartitionLink(ev.Compute, ev.Mem)
	case EvStallLink:
		e.c.StallLink(ev.Compute, ev.Mem)
	case EvSlowLink:
		e.c.SlowLink(ev.Compute, ev.Mem, ev.Factor, ev.Delay)
	case EvHealLink:
		e.c.HealLink(ev.Compute, ev.Mem)
	case EvHealAllLinks:
		e.c.HealAllLinks()
	}
	return nil
}

// worker runs the workload on one coordinator until stopped. It
// survives the death of its compute node: transaction failures that are
// not plain aborts re-acquire the session (picking up a restarted
// node's fresh coordinators) after a short pause.
func (e *engine) worker(node, coord int, seed int64) {
	defer e.wg.Done()
	rng := rand.New(rand.NewSource(seed))
	s := e.c.Session(node, coord)
	for {
		select {
		case <-e.stop:
			return
		default:
		}
		e.gate.RLock()
		dead := e.step(s, rng)
		e.gate.RUnlock()
		if dead {
			time.Sleep(200 * time.Microsecond) //pandora:wallclock brief real backoff before re-acquiring a session on a recovering node
			s = e.c.Session(node, coord)
		}
	}
}

// step runs one workload transaction and records its client-visible
// outcome. It reports whether the session looks dead (crashed, revoked,
// or indeterminate) and should be re-acquired.
func (e *engine) step(s *pandora.Session, rng *rand.Rand) bool {
	tx := s.Begin()
	tag, err := e.wl.step(tx, rng)
	if err == nil {
		err = tx.Commit()
	} else if !tx.Done() {
		_ = tx.Abort()
	}
	switch {
	case err == nil || tx.CommitAcked():
		// Cor3: an acknowledged commit is durable even if a later
		// cleanup step errored.
		e.wl.ack(tag)
		e.acked.Add(1)
		return false
	case pandora.IsAborted(err):
		e.aborted.Add(1)
		return false
	default:
		// Crashed, revoked (fenced zombie), or indeterminate: the
		// outcome is unresolved unless an abort was acknowledged.
		if !tx.AbortAcked() {
			e.wl.unknown(tag)
			e.unknown.Add(1)
		}
		return true
	}
}

// audit quiesces the workload and checks both the structural store
// invariants and the workload's own invariant. With final set, the
// cluster must be spotless: zero locked slots of any kind.
func (e *engine) audit(final bool) []string {
	e.gate.Lock()
	defer e.gate.Unlock()
	rep, err := e.c.CheckConsistency(e.wl.table().Name)
	if err != nil {
		return []string{fmt.Sprintf("consistency scan: %v", err)}
	}
	violations := structural(rep, e.cfg.Keys, final)
	vals, err := e.readAll()
	if err != nil {
		return append(violations, fmt.Sprintf("audit read: %v", err))
	}
	return append(violations, e.wl.check(vals)...)
}

// structural returns the violations a consistency scan of a store of
// keys keys shows: duplicate or divergent keys, a locked slot — after
// recycling (final) any, on a quiesced cluster one not owned by a failed
// coordinator — and a key count other than keys.
func structural(rep pandora.ConsistencyReport, keys int, final bool) []string {
	var violations []string
	if len(rep.DuplicateKeys) > 0 {
		violations = append(violations, fmt.Sprintf("duplicate keys: %v", rep.DuplicateKeys))
	}
	if len(rep.DivergentKeys) > 0 {
		violations = append(violations, fmt.Sprintf("divergent keys: %v", rep.DivergentKeys))
	}
	if final {
		if rep.LockedSlots != 0 {
			violations = append(violations, fmt.Sprintf(
				"%d locked slots survive recycling (%d stray)", rep.LockedSlots, rep.StrayLocks))
		}
	} else if rep.LockedSlots != rep.StrayLocks {
		// Quiesced: every held lock must belong to a failed
		// coordinator (legitimate residue awaiting PILL/recycling).
		violations = append(violations, fmt.Sprintf(
			"%d locked slots but only %d owned by failed coordinators", rep.LockedSlots, rep.StrayLocks))
	}
	if rep.Keys != keys {
		violations = append(violations, fmt.Sprintf("store holds %d keys, want %d", rep.Keys, keys))
	}
	return violations
}

// readAll reads every workload key through a coordinator on an alive
// compute node (the workload is quiesced, so borrowing a worker's
// coordinator is safe).
func (e *engine) readAll() ([]int64, error) {
	node := -1
	for i, ok := range e.alive {
		if ok {
			node = i
			break
		}
	}
	if node < 0 {
		return nil, fmt.Errorf("no alive compute node")
	}
	s := e.c.Session(node, 0)
	vals := make([]int64, e.cfg.Keys)
	// conftest.ReadBatch retries validation aborts per batch: the
	// coordinator's read cache may hold versions the workload has since
	// overwritten; commit rejects and invalidates them, and the retry
	// reads the committed state.
	err := conftest.ReadBatch(s, e.wl.table().Name, 0, e.cfg.Keys, 16, func(k int, v []byte) error {
		vals[k] = int64(binary.LittleEndian.Uint64(v))
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("audit read: %w", err)
	}
	return vals, nil
}
