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
}

// CommitPipeResult is the pipelined commit tail experiment (DESIGN.md
// §16): the same persistent write lane run two ways — the legacy
// per-phase tail (log, log-flush, apply, apply-flush, truncate, unlock:
// six doorbells) and the fused tail (log+flush, apply+flush,
// truncate+unlock: three, the third posted at the ack and paid by the
// coordinator's next doorbell, so it acks after the second). Both passes
// run on the virtual clock with a fixed key sequence, so the result is
// byte-identical across runs and checked in as bin/BENCH_commitpipe.json.
type CommitPipeResult struct {
	Keys    int `json:"keys"`
	Commits int `json:"commits"`

	Legacy CommitPipePass `json:"legacy"`
	Fused  CommitPipePass `json:"fused"`

	// RoundReduction is legacy ÷ fused rounds per commit; AckSpeedupP50
	// is the ratio of their p50 ack latencies.
	RoundReduction float64 `json:"round_reduction"`
	AckSpeedupP50  float64 `json:"p50_ack_speedup"`

	// Metrics is the fused pass's full observability snapshot
	// (sequential on a virtual clock: byte-identical per seed).
	Metrics pandora.Metrics `json:"metrics"`
}

// String renders the result.
func (r *CommitPipeResult) String() string {
	return fmt.Sprintf(
		"Pipelined commit tail: %d persistent commits over %d keys\n"+
			"  legacy: %.1f rounds/commit, ack p50=%v p99=%v mean=%v\n"+
			"  fused:  %.1f rounds/commit, ack p50=%v p99=%v mean=%v\n"+
			"  round reduction: %.1f×, ack p50 speedup: %.2f×\n",
		r.Commits, r.Keys,
		r.Legacy.RoundsPerCommit, r.Legacy.P50, r.Legacy.P99, r.Legacy.Mean,
		r.Fused.RoundsPerCommit, r.Fused.P50, r.Fused.P99, r.Fused.Mean,
		r.RoundReduction, r.AckSpeedupP50)
}

// JSON renders the result as one machine-readable object (the
// BENCH_commitpipe.json CI artifact).
func (r *CommitPipeResult) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// CommitPipe runs the commit-tail experiment: commits sequential
// single-write persistent transactions, identical key sequence across
// the two tail configurations.
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
	fused, met, err := commitPipePass(commits, keys, "fused")
	if err != nil {
		return nil, fmt.Errorf("fused pass: %w", err)
	}
	r.Legacy, r.Fused, r.Metrics = legacy, fused, met

	if fused.RoundsPerCommit > 0 {
		r.RoundReduction = legacy.RoundsPerCommit / fused.RoundsPerCommit
	}
	r.AckSpeedupP50 = float64(legacy.P50) / float64(max(fused.P50, 1))
	return r, nil
}

// commitPipePass measures one tail configuration. A commit's latency is
// the client-observed one: it ends at Commit's return, and the fused
// tail's round is paid by the next commit's first doorbell.
func commitPipePass(commits, keys int, mode string) (CommitPipePass, pandora.Metrics, error) {
	p := CommitPipePass{Commits: commits}
	w := &workload.Micro{Keys: keys}
	c, err := clusterFor(w, func(cfg *pandora.Config) {
		cfg.CoordinatorsPerNode = 1
		cfg.ModelLatency = true
		cfg.Persistence = true
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
	}

	after := c.MetricsSnapshot()
	d := after.Sub(before)
	p.Rounds = d.Drain.CommitRounds
	p.RoundsPerCommit = float64(p.Rounds) / float64(commits)
	p.P50, p.P99, p.Mean = latSummary(lats)
	return p, after, nil
}
