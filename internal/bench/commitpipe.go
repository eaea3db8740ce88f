package bench

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"time"

	pandora "pandora"
	"pandora/internal/workload"
)

// CommitPipePass is one configuration of the commit-tail experiment:
// post-validation doorbell rounds per commit and the client-observed
// commit-ack latency (virtual time) of an uncontended persistent write
// lane.
type CommitPipePass struct {
	Commits int `json:"commits"`
	// Rounds counts the post-validation critical-path doorbells
	// (metrics.Snapshot.Drain.CommitRounds delta across the pass).
	Rounds          uint64  `json:"rounds"`
	RoundsPerCommit float64 `json:"rounds_per_commit"`

	P50  time.Duration `json:"p50_ack_ns"`
	P99  time.Duration `json:"p99_ack_ns"`
	Mean time.Duration `json:"mean_ack_ns"`

	DrainEnqueued uint64 `json:"drain_enqueued"`
	DrainFlushed  uint64 `json:"drain_flushed"`
	DrainFailures uint64 `json:"drain_failures"`
}

// CommitPipeResult is the pipelined commit tail experiment (DESIGN.md
// §16): the same persistent write lane run three ways — the legacy
// per-phase tail (log, log-flush, apply, apply-flush, truncate, unlock:
// six doorbells), the fused synchronous tail (log+flush, apply+flush,
// truncate+unlock: three, the third posted at the ack and paid by the
// coordinator's next doorbell, so it acks after the second), and the
// asynchronous commit-back tail that acks after the second doorbell and
// drains truncate+unlock off the critical path. Every pass runs on the
// virtual clock with a fixed key sequence, so the result is
// byte-identical across runs and checked in as bin/BENCH_commitpipe.json.
type CommitPipeResult struct {
	Keys    int `json:"keys"`
	Commits int `json:"commits"`

	Legacy CommitPipePass `json:"legacy"`
	Fused  CommitPipePass `json:"fused"`
	Async  CommitPipePass `json:"async"`

	// RoundReduction is legacy ÷ async rounds per commit; AckSpeedupP50
	// and FusionSpeedupP50 are the p50 ack-latency ratios of the async
	// and fused tails against the legacy baseline.
	RoundReduction   float64 `json:"round_reduction"`
	AckSpeedupP50    float64 `json:"p50_ack_speedup"`
	FusionSpeedupP50 float64 `json:"p50_fusion_speedup"`

	// Metrics is the async pass's full observability snapshot
	// (sequential on a virtual clock: byte-identical per seed).
	Metrics pandora.Metrics `json:"metrics"`
}

// String renders the result.
func (r *CommitPipeResult) String() string {
	return fmt.Sprintf(
		"Pipelined commit tail: %d persistent commits over %d keys\n"+
			"  legacy: %.1f rounds/commit, ack p50=%v p99=%v mean=%v\n"+
			"  fused:  %.1f rounds/commit, ack p50=%v p99=%v mean=%v\n"+
			"  async:  %.1f rounds/commit, ack p50=%v p99=%v mean=%v (%d drained, %d failures)\n"+
			"  round reduction: %.1f×, ack p50 speedup: %.2f× (fusion alone: %.2f×)\n",
		r.Commits, r.Keys,
		r.Legacy.RoundsPerCommit, r.Legacy.P50, r.Legacy.P99, r.Legacy.Mean,
		r.Fused.RoundsPerCommit, r.Fused.P50, r.Fused.P99, r.Fused.Mean,
		r.Async.RoundsPerCommit, r.Async.P50, r.Async.P99, r.Async.Mean,
		r.Async.DrainFlushed, r.Async.DrainFailures,
		r.RoundReduction, r.AckSpeedupP50, r.FusionSpeedupP50)
}

// JSON renders the result as one machine-readable object (the
// BENCH_commitpipe.json CI artifact).
func (r *CommitPipeResult) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// CommitPipe runs the commit-tail experiment: commits sequential
// single-write persistent transactions, identical key sequence across
// the three tail configurations.
func CommitPipe(s Scale, commits int) (*CommitPipeResult, error) {
	keys := s.Keys / 16
	if keys < 64 {
		keys = 64
	}
	r := &CommitPipeResult{Keys: keys, Commits: commits}

	legacy, _, err := commitPipePass(commits, keys, "legacy")
	if err != nil {
		return nil, fmt.Errorf("legacy pass: %w", err)
	}
	fused, _, err := commitPipePass(commits, keys, "fused")
	if err != nil {
		return nil, fmt.Errorf("fused pass: %w", err)
	}
	async, met, err := commitPipePass(commits, keys, "async")
	if err != nil {
		return nil, fmt.Errorf("async pass: %w", err)
	}
	r.Legacy, r.Fused, r.Async, r.Metrics = legacy, fused, async, met

	if async.RoundsPerCommit > 0 {
		r.RoundReduction = legacy.RoundsPerCommit / async.RoundsPerCommit
	}
	den := func(d time.Duration) float64 {
		if d < 1 {
			return 1
		}
		return float64(d)
	}
	r.AckSpeedupP50 = float64(legacy.P50) / den(async.P50)
	r.FusionSpeedupP50 = float64(legacy.P50) / den(fused.P50)
	return r, nil
}

// commitPipePass measures one tail configuration. The drain is flushed
// explicitly after every measured commit, so the async pass's ack
// latency is the client-observed one and the tail cost lands between
// episodes (where a real deployment overlaps it with think time).
func commitPipePass(commits, keys int, mode string) (CommitPipePass, pandora.Metrics, error) {
	p := CommitPipePass{Commits: commits}
	w := &workload.Micro{Keys: keys}
	c, err := clusterFor(w, func(cfg *pandora.Config) {
		cfg.CoordinatorsPerNode = 1
		cfg.ModelLatency = true
		cfg.Persistence = true
		cfg.AsyncCommitBack = mode == "async"
	})
	if err != nil {
		return p, pandora.Metrics{}, err
	}
	defer c.Close()
	if mode == "legacy" {
		for i := 0; i < c.ComputeNodes(); i++ {
			c.Engine(i).SetUnfusedTail(true)
		}
	}

	clk := c.AttachClock(0, 0)
	s := c.Session(0, 0)
	value := func(i int) []byte {
		b := make([]byte, 8)
		binary.LittleEndian.PutUint64(b, uint64(i)+1)
		return b
	}

	// Warm the address cache outside the measured window.
	if err := s.Update(0, func(tx *pandora.Tx) error {
		return tx.Write("micro", 0, value(0))
	}); err != nil {
		return p, pandora.Metrics{}, fmt.Errorf("warmup: %w", err)
	}
	c.Engine(0).FlushDrains()

	before := c.MetricsSnapshot()
	lats := make([]time.Duration, 0, commits)
	for i := 0; i < commits; i++ {
		k := pandora.Key(i % keys)
		start := clk.Now()
		if err := s.Update(0, func(tx *pandora.Tx) error {
			return tx.Write("micro", k, value(i))
		}); err != nil {
			return p, pandora.Metrics{}, fmt.Errorf("commit %d: %w", i, err)
		}
		lats = append(lats, clk.Now()-start)
		c.Engine(0).FlushDrains()
	}

	after := c.MetricsSnapshot()
	d := after.Sub(before)
	p.Rounds = d.Drain.CommitRounds
	p.RoundsPerCommit = float64(p.Rounds) / float64(commits)
	p.DrainEnqueued = d.Drain.Enqueued
	p.DrainFlushed = d.Drain.Flushed
	p.DrainFailures = d.Drain.Failures
	p.P50, p.P99, p.Mean = latSummary(lats)
	return p, after, nil
}
