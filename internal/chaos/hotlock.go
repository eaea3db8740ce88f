package chaos

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	pandora "pandora"
	"pandora/internal/core"
	"pandora/internal/kvlayout"
	"pandora/internal/metrics"
)

// HotlockModes lists the crash modes of the hot-lock scenario family:
// which participant of a promoted ticket lane the run kills.
func HotlockModes() []string {
	return []string{"holder", "waiter"}
}

// RunHotlock executes the adaptive-ticket-lock chaos scenario: a key is
// promoted to queued locking, and at a seed-chosen poll step the run
// crashes either the coordinator that acquired the lock through the
// queue (mode "holder" — its node dies holding the lock with an unpaid
// lane-head advance and no log record, so PILL stealing must both
// reclaim the word and repair the ticket lane) or a coordinator parked
// mid-poll in the lane (mode "waiter" — its ticket is never consumed
// and the next queued waiter must lazily advance the head past it).
//
// The run is fully scripted — no background workers — so every event
// log line is a pure function of the seed and two same-seed runs are
// byte-identical. The trailing audit requires a spotless store and a
// live lane: zero locked slots after recycling, zero queue timeouts,
// and the hot key holding the last acknowledged write.
func RunHotlock(cfg Config, mode string) (*Result, error) {
	cfg.fillDefaults()
	valid := false
	for _, m := range HotlockModes() {
		if m == mode {
			valid = true
		}
	}
	if !valid {
		return nil, fmt.Errorf("chaos: unknown hotlock crash mode %q (valid: %v)", mode, HotlockModes())
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
		HotlockThreshold:    1, // promote on the first conflict: the scenario is about the queue
	})
	if err != nil {
		return nil, err
	}
	defer cluster.Close()
	if err := cluster.LoadN("ctr", cfg.Keys, func(pandora.Key) []byte { return make([]byte, 8) }); err != nil {
		return nil, err
	}
	defer func() { core.DebugQueueWait = nil }()

	rng := rand.New(rand.NewSource(cfg.Seed))
	key := pandora.Key(rng.Intn(cfg.Keys))
	crashSpin := 1 + rng.Intn(4)
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

	cfg.Logf("chaos hotlock seed=%d crash=%s computes=%d memories=%d coords=%d keys=%d key=%d spin=%d",
		cfg.Seed, mode, cfg.Computes, cfg.Memories, cfg.Coordinators, cfg.Keys, uint64(key), crashSpin)

	switch mode {
	case "holder":
		err = runHotlockHolder(cluster, cfg, res, key, crashSpin, value, violate)
	case "waiter":
		err = runHotlockWaiter(cluster, cfg, res, key, crashSpin, value, violate)
	}
	if err != nil {
		return nil, err
	}

	// Final audit on the healed, quiescent cluster: recycling must leave
	// zero locked slots, replicas must agree, and the hot key must hold
	// the last acknowledged write.
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

// promoteKey makes `key` hot for sess's coordinator: one conflict
// against holder (which keeps its lock) crosses the threshold-1 bar.
func promoteKey(sess *pandora.Session, holder *pandora.Tx, key pandora.Key, v []byte) error {
	err := sess.Update(0, func(tx *pandora.Tx) error {
		return tx.Write("ctr", key, v)
	})
	if !pandora.IsAborted(err) {
		return fmt.Errorf("promoting conflict: got %v, want a lock-conflict abort", err)
	}
	return nil
}

// hookRelease arms DebugQueueWait to run fn once, the first time the
// given coordinator polls its lane turn for key at or past spin.
func hookRelease(coord kvlayout.CoordID, key pandora.Key, spin int, fn func()) {
	done := false
	core.DebugQueueWait = func(c kvlayout.CoordID, k kvlayout.Key, s int) {
		if !done && c == coord && k == key && s >= spin {
			done = true
			fn()
		}
	}
}

// runHotlockHolder: the queued lock holder's node dies without a log
// record. PILL stealing reclaims the word and must settle the dead
// holder's lane debt, then the lane serves further queued acquisitions.
func runHotlockHolder(cluster *pandora.Cluster, cfg Config, res *Result, key pandora.Key,
	crashSpin int, value func(uint64) []byte, violate func(string, ...any)) error {
	holder := cluster.Session(1, 0)  // dies holding the queued lock
	stealer := cluster.Session(0, 0) // blocker, then stealer
	second := cluster.Session(0, 1)  // post-repair queued waiter

	btx := stealer.Begin()
	if err := btx.Write("ctr", key, value(1)); err != nil {
		return err
	}
	if err := promoteKey(holder, btx, key, value(2)); err != nil {
		return err
	}
	res.Aborted++
	cfg.Logf("promoted key %d for holder after 1 conflict", uint64(key))

	// The holder re-acquires through the lane; the hook releases the
	// blocker at the seeded poll step.
	hookRelease(holder.CoordinatorID(), key, crashSpin, func() {
		if err := btx.Commit(); err != nil {
			violate("blocker commit: %v", err)
		}
	})
	htx := holder.Begin()
	if err := htx.Write("ctr", key, value(3)); err != nil {
		return fmt.Errorf("queued hold: %w", err)
	}
	core.DebugQueueWait = nil
	res.Acked++ // the blocker's acknowledged write
	cfg.Logf("holder acquired key %d through the lane", uint64(key))

	// Crash the holder's node mid-transaction: no log record, so the
	// lock word is stray and the lane owes one head advance.
	stats, err := cluster.FailCompute(1)
	if err != nil {
		return fmt.Errorf("failing the holder's node: %w", err)
	}
	res.Events++
	cfg.Logf("crash: holder node 1 (recovery found %d logged txs)", stats.LoggedTxs)

	before := cluster.MetricsSnapshot()
	if err := stealer.Update(2, func(tx *pandora.Tx) error {
		return tx.Write("ctr", key, value(4))
	}); err != nil {
		return fmt.Errorf("steal update: %w", err)
	}
	res.Acked++
	d := cluster.MetricsSnapshot().Sub(before)
	if got := d.LockCount(metrics.LockTicketRepair); got != 1 {
		violate("steal repaired %d tickets, want 1", got)
	} else {
		cfg.Logf("steal ok: lock reclaimed, lane debt repaired")
	}

	// Liveness: the lane must serve another queued hand-off.
	btx2 := second.Begin()
	if err := btx2.Write("ctr", key, value(5)); err != nil {
		return err
	}
	if err := promoteKey(stealer, btx2, key, value(6)); err != nil {
		return err
	}
	res.Aborted++
	hookRelease(stealer.CoordinatorID(), key, 1, func() {
		if err := btx2.Commit(); err != nil {
			violate("second blocker commit: %v", err)
		}
	})
	before = cluster.MetricsSnapshot()
	err = stealer.Update(4, func(tx *pandora.Tx) error {
		return tx.Write("ctr", key, value(7))
	})
	core.DebugQueueWait = nil
	if err != nil {
		return fmt.Errorf("post-repair queued update: %w", err)
	}
	res.Acked += 2
	d = cluster.MetricsSnapshot().Sub(before)
	if d.LockCount(metrics.LockQueuedAcquire) != 1 || d.LockCount(metrics.LockQueueTimeout) != 0 {
		violate("post-repair lane not live: %d queued acquires, %d timeouts",
			d.LockCount(metrics.LockQueuedAcquire), d.LockCount(metrics.LockQueueTimeout))
	} else {
		cfg.Logf("post-repair queued hand-off ok")
	}

	if err := cluster.RestartCompute(1); err != nil {
		return fmt.Errorf("restarting node 1: %w", err)
	}
	res.Events++
	cfg.Logf("restart node 1")
	return hotlockReadback(cluster, key, 7, violate, cfg)
}

// runHotlockWaiter: a coordinator crashes parked in the lane. Its
// ticket is never consumed (the crash-gated endpoint cannot pay the
// debt), so the lane wedges tail-ahead-of-head until the next queued
// waiter lazily repairs it.
func runHotlockWaiter(cluster *pandora.Cluster, cfg Config, res *Result, key pandora.Key,
	crashSpin int, value func(uint64) []byte, violate func(string, ...any)) error {
	holder := cluster.Session(1, 0) // live lock holder, survives
	doomed := cluster.Session(0, 0) // dies mid-poll
	fresh := cluster.Session(1, 1)  // repairs the lane afterwards

	htx := holder.Begin()
	if err := htx.Write("ctr", key, value(1)); err != nil {
		return err
	}
	if err := promoteKey(doomed, htx, key, value(2)); err != nil {
		return err
	}
	res.Aborted++
	cfg.Logf("promoted key %d for waiter after 1 conflict", uint64(key))

	// The doomed waiter joins the lane; its node dies at the seeded poll
	// step, leaving its ticket forever unconsumed.
	hookRelease(doomed.CoordinatorID(), key, crashSpin, func() {
		cluster.CrashCompute(0)
	})
	dtx := doomed.Begin()
	err := dtx.Write("ctr", key, value(3))
	core.DebugQueueWait = nil
	if err == nil {
		return fmt.Errorf("doomed waiter acquired key %d despite crashing", uint64(key))
	}
	res.Events++
	cfg.Logf("crash: waiter node 0 parked in the lane at spin %d", crashSpin)

	if err := htx.Commit(); err != nil {
		return fmt.Errorf("holder commit: %w", err)
	}
	res.Acked++

	stats, err := cluster.FailComputeSoft(0)
	if err != nil {
		return fmt.Errorf("recovering the waiter's node: %w", err)
	}
	res.Events++
	cfg.Logf("recovery of node 0 found %d logged txs (the parked waiter never logged)", stats.LoggedTxs)

	// A fresh coordinator promotes the key and queues behind the live
	// holder; its poll must advance the head past the dead ticket.
	htx2 := holder.Begin()
	if err := htx2.Write("ctr", key, value(4)); err != nil {
		return err
	}
	if err := promoteKey(fresh, htx2, key, value(5)); err != nil {
		return err
	}
	res.Aborted++
	hookRelease(fresh.CoordinatorID(), key, 1, func() {
		if err := htx2.Commit(); err != nil {
			violate("holder commit under poll: %v", err)
		}
	})
	before := cluster.MetricsSnapshot()
	err = fresh.Update(4, func(tx *pandora.Tx) error {
		return tx.Write("ctr", key, value(6))
	})
	core.DebugQueueWait = nil
	if err != nil {
		return fmt.Errorf("post-crash queued update: %w", err)
	}
	res.Acked += 2
	d := cluster.MetricsSnapshot().Sub(before)
	if got := d.LockCount(metrics.LockTicketRepair); got != 1 {
		violate("lane repair count %d, want 1 (skip the dead waiter's ticket)", got)
	} else {
		cfg.Logf("lane repaired past the dead ticket, queued hand-off ok")
	}
	if got := d.LockCount(metrics.LockQueueTimeout); got != 0 {
		violate("%d queue timeouts after the waiter crash — the lane wedged", got)
	}

	if err := cluster.RestartCompute(0); err != nil {
		return fmt.Errorf("restarting node 0: %w", err)
	}
	res.Events++
	cfg.Logf("restart node 0")
	return hotlockReadback(cluster, key, 6, violate, cfg)
}

// hotlockReadback audits the hot key's final value against the last
// acknowledged write.
func hotlockReadback(cluster *pandora.Cluster, key pandora.Key, want uint64,
	violate func(string, ...any), cfg Config) error {
	sess := cluster.Session(0, 1)
	var got uint64
	err := sess.Update(2, func(tx *pandora.Tx) error {
		v, err := tx.Read("ctr", key)
		if err != nil {
			return err
		}
		got = binary.LittleEndian.Uint64(v)
		return nil
	})
	if err != nil {
		return fmt.Errorf("readback: %w", err)
	}
	if got != want {
		violate("key %d holds %d, want the last acknowledged write %d", uint64(key), got, want)
	} else {
		cfg.Logf("readback ok: key %d = %d", uint64(key), want)
	}
	return nil
}
