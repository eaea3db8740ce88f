package chaos

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	pandora "pandora"
	"pandora/internal/core"
	"pandora/internal/kvlayout"
)

// commitPipePoints maps each crash mode of the commit-tail scenario
// family to the crash point its victim dies at.
var commitPipePoints = map[string]core.CrashPoint{
	"afterack": core.PointAfterAck,
	"midtail":  core.PointAfterTruncate,
}

// CommitPipeModes lists the crash modes of the commit-tail scenario
// family: where in the post-ack tail the victim coordinator's node dies.
func CommitPipeModes() []string {
	return []string{"afterack", "midtail"}
}

// RunCommitPipe executes the commit-tail chaos scenario (DESIGN.md §16):
// a commit is acknowledged, and the victim node crashes at a scripted
// point of its post-ack tail:
//
//   - "afterack": the crash lands right after the acknowledgement,
//     before the tail's doorbell — valid log, locks held. Recovery must
//     roll the acked transaction forward.
//   - "midtail": the tail crashes between the log truncation and the
//     lock releases — truncated log, stray locks. Recovery finds
//     nothing to replay and the stray locks fall to PILL stealing / id
//     recycling.
//
// The run is fully scripted — no background workers — so the event log
// is a pure function of the seed and two same-seed runs are
// byte-identical. Recovery is driven twice: the second pass must be a
// complete no-op (§3.2.3 idempotence). The trailing audit requires a
// spotless store and the last ACKED write surviving (Cor3: the crash
// happened after the acknowledgement in every mode).
func RunCommitPipe(cfg Config, mode string) (*Result, error) {
	cfg.fillDefaults()
	point, ok := commitPipePoints[mode]
	if !ok {
		return nil, fmt.Errorf("chaos: unknown commitpipe crash mode %q (valid: %v)", mode, CommitPipeModes())
	}
	if cfg.Computes < 2 {
		cfg.Computes = 2
	}

	cluster, err := pandora.New(pandora.Config{
		ComputeNodes:        cfg.Computes,
		MemoryNodes:         cfg.Memories,
		CoordinatorsPerNode: cfg.Coordinators,
		Replication:         2,
		Tables:              []pandora.TableSpec{{Name: "ctr", ValueSize: 8, Capacity: cfg.Keys}},
		VerbTimeout:         cfg.VerbTimeout,
		SuspectThreshold:    -1, // escalation would race the scripted crash point
		ReadCacheSize:       cfg.ReadCacheSize,
		NoAutoRecover:       true, // the script drives recovery twice itself
	})
	if err != nil {
		return nil, err
	}
	defer cluster.Close()
	if err := cluster.LoadN("ctr", cfg.Keys, func(pandora.Key) []byte { return make([]byte, 8) }); err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	key := pandora.Key(rng.Intn(cfg.Keys))
	warmups := 1 + rng.Intn(3)
	res := &Result{}
	value := func(step uint64) []byte {
		b := make([]byte, 8)
		binary.LittleEndian.PutUint64(b, step)
		return b
	}
	violate := func(format string, args ...any) {
		v := fmt.Sprintf(format, args...)
		res.Violations = append(res.Violations, v)
		cfg.Logf("VIOLATION: %s", v)
	}

	cfg.Logf("chaos commitpipe seed=%d crash=%s computes=%d memories=%d coords=%d keys=%d key=%d warmups=%d",
		cfg.Seed, mode, cfg.Computes, cfg.Memories, cfg.Coordinators, cfg.Keys, uint64(key), warmups)

	victim := cluster.Engine(0)
	sess := cluster.Session(0, 0)
	defer victim.SetInjector(nil)

	// Warm the session: each acked commit's tail is paid by the next
	// commit's first doorbell.
	var step uint64
	for i := 0; i < warmups; i++ {
		step++
		if err := sess.Update(0, func(tx *pandora.Tx) error {
			return tx.Write("ctr", key, value(step))
		}); err != nil {
			return nil, fmt.Errorf("warmup %d: %w", i, err)
		}
		res.Acked++
	}
	cfg.Logf("warmed %d acked commits", warmups)

	// The scripted crash, inside the doomed commit's post-ack tail:
	// `step` ends at its write, the last ACKED one — the value the final
	// audit must find.
	victim.SetInjector(func(_ kvlayout.CoordID, p core.CrashPoint) bool { return p == point })
	step++
	tx := sess.Begin()
	if err := tx.Write("ctr", key, value(step)); err != nil {
		return nil, fmt.Errorf("doomed write: %w", err)
	}
	err = tx.Commit()
	victim.SetInjector(nil)
	if !tx.CommitAcked() {
		violate("doomed commit not acked at the %s point (err=%v)", mode, err)
	}
	res.Acked++
	res.Events++
	if mode == "afterack" {
		cfg.Logf("crash: after ack — valid log, locks held, tail never posted")
	} else {
		cfg.Logf("crash: mid-tail — log truncated, locks stray")
	}
	if !victim.Crashed() {
		violate("victim node not crashed after the scripted %s point", mode)
	}

	// Recovery, driven twice: the first pass heals, the second must be
	// a complete no-op on the already-healed state.
	ev, ok := cluster.Detector().MarkFailed(victim.ID())
	if !ok {
		return nil, fmt.Errorf("chaos: victim already marked failed")
	}
	stats, err := cluster.Recovery().RecoverCompute(ev)
	if err != nil {
		return nil, fmt.Errorf("chaos: recovery: %w", err)
	}
	res.Events++
	cfg.Logf("recovery: %d logged txs, %d rolled forward, %d rolled back",
		stats.LoggedTxs, stats.RolledForward, stats.RolledBack)
	if mode == "midtail" {
		if stats.LoggedTxs != 0 {
			violate("recovery found %d logged txs after truncation, want 0", stats.LoggedTxs)
		}
	} else if stats.LoggedTxs != 1 || stats.RolledForward != 1 {
		violate("recovery rolled forward %d of %d logged txs, want 1 of 1 (Cor3: the commit was acked)",
			stats.RolledForward, stats.LoggedTxs)
	}
	stats2, err := cluster.Recovery().RecoverCompute(ev)
	if err != nil {
		return nil, fmt.Errorf("chaos: second recovery: %w", err)
	}
	res.Events++
	if stats2.LoggedTxs != 0 || stats2.RolledForward != 0 || stats2.RolledBack != 0 || stats2.StrayLocksFreed != 0 {
		violate("second recovery pass did work (%d logged, %d forward, %d back, %d strays), want all no-ops",
			stats2.LoggedTxs, stats2.RolledForward, stats2.RolledBack, stats2.StrayLocksFreed)
	} else {
		cfg.Logf("second recovery pass: no-op")
	}

	if err := cluster.RestartCompute(0); err != nil {
		return nil, fmt.Errorf("restarting node 0: %w", err)
	}
	res.Events++
	cfg.Logf("restart node 0")

	// The last ACKED write must have survived in every mode.
	probe := cluster.Session(1, 0)
	var got uint64
	err = probe.Update(2, func(tx *pandora.Tx) error {
		v, err := tx.Read("ctr", key)
		if err != nil {
			return err
		}
		got = binary.LittleEndian.Uint64(v)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("readback: %w", err)
	}
	if got != step {
		violate("key %d holds %d, want the last acknowledged write %d", uint64(key), got, step)
	} else {
		cfg.Logf("readback ok: key %d = %d", uint64(key), step)
	}

	// Final audit on the healed, quiescent cluster.
	cluster.RecycleCoordinatorIDs()
	res.Audits++
	rep, err := cluster.CheckConsistency("ctr")
	if err != nil {
		return nil, fmt.Errorf("chaos: consistency scan: %w", err)
	}
	for _, v := range structural(rep, cfg.Keys, true) {
		violate("%s", v)
	}
	if len(res.Violations) == 0 {
		cfg.Logf("final audit ok keys=%d", cfg.Keys)
	}
	res.Metrics = cluster.MetricsSnapshot()
	return res, nil
}
