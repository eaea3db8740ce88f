package bench

import (
	"fmt"
	"time"

	pandora "pandora"
	"pandora/internal/core"
	"pandora/internal/kvlayout"
	"pandora/internal/metrics"
	"pandora/internal/trace"
	"pandora/internal/workload"
)

// TimelineResult is a throughput-over-time experiment.
type TimelineResult struct {
	Title  string
	Bucket time.Duration
	Series []Series
	// VerbsPerTx is, per series, the verbs the fabric carried for each
	// committed transaction — the run's cost on the model, which no host
	// scheduler moves. Fig6 fills it.
	VerbsPerTx []float64
	Notes      []string
}

// String renders the timeline.
func (r *TimelineResult) String() string {
	s := renderSeries(r.Title, r.Series, r.Bucket)
	for _, n := range r.Notes {
		s += "note: " + n + "\n"
	}
	return s
}

// timelineTotals is what a timeline run added up to: the driver's counts
// and the cluster's metrics when the run ended.
type timelineTotals struct {
	workload.Result
	Metrics metrics.Snapshot
}

// verbsPerTx is the verbs issued per committed transaction.
func (tt *timelineTotals) verbsPerTx() float64 {
	var verbs uint64
	for _, v := range tt.Metrics.Verbs {
		verbs += v.Issued
	}
	return float64(verbs) / float64(tt.Committed)
}

// runTimeline runs one workload timeline with an optional mid-run fault
// script.
func runTimeline(s Scale, w workload.Workload, edit func(*pandora.Config), script func(c *pandora.Cluster, rec *trace.Recorder)) ([]trace.Point, *timelineTotals, error) {
	return runTimelinePaced(s, w, 0, edit, script)
}

// runTimelinePaced is runTimeline with per-worker think time.
func runTimelinePaced(s Scale, w workload.Workload, pace time.Duration, edit func(*pandora.Config), script func(c *pandora.Cluster, rec *trace.Recorder)) ([]trace.Point, *timelineTotals, error) {
	c, err := clusterFor(w, func(cfg *pandora.Config) {
		cfg.CoordinatorsPerNode = s.Coordinators
		if edit != nil {
			edit(cfg)
		}
	})
	if err != nil {
		return nil, nil, err
	}
	defer c.Close()
	rec := trace.NewRecorder(s.Timeline+s.Bucket, s.Bucket)
	done := make(chan workload.Result, 1)
	go func() {
		done <- workload.Run(workload.DriverConfig{
			Cluster:  c,
			Workload: w,
			Duration: s.Timeline,
			Recorder: rec,
			Seed:     7,
			Pace:     pace,
		})
	}()
	if script != nil {
		script(c, rec)
	}
	res := <-done
	return rec.Series(), &timelineTotals{Result: res, Metrics: c.MetricsSnapshot()}, nil
}

// Fig6 reproduces Figure 6: steady-state throughput of non-recoverable
// FORD (no PILL, no coordinator-id checks) vs recoverable Pandora. The
// difference must be negligible: the failed-ids bitset lookup costs
// nanoseconds and no failures occur. On the model that reads: the two
// variants put the same verbs on the fabric for a committed transaction,
// up to the retries of their aborts.
func Fig6(s Scale) (*TimelineResult, error) {
	r := &TimelineResult{Title: "Figure 6: steady-state, FORD (no PILL) vs Pandora (PILL)", Bucket: s.Bucket}
	// Both variants run Pandora's protocol; the "noPILL" line disables
	// the failed-ids checks and lock stealing, i.e. it is the
	// non-recoverable steady state. (Comparing against FORD-mode would
	// additionally measure FORD's costlier per-object logging.)
	for _, v := range []struct {
		name string
		pill bool
	}{
		{"noPILL", false},
		{"PILL", true},
	} {
		pts, totals, err := runTimeline(s, s.workloadByName("micro"), func(cfg *pandora.Config) {
			cfg.Protocol = pandora.ProtocolPandora
			cfg.DisablePILL = !v.pill
		}, nil)
		if err != nil {
			return nil, err
		}
		r.Series = append(r.Series, Series{Name: v.name, Points: pts})
		r.VerbsPerTx = append(r.VerbsPerTx, totals.verbsPerTx())
	}
	a := meanRate(r.Series[0].Points, s.Timeline/4, s.Timeline, s.Bucket)
	b := meanRate(r.Series[1].Points, s.Timeline/4, s.Timeline, s.Bucket)
	r.Notes = append(r.Notes,
		fmt.Sprintf("steady-state mean: noPILL=%.0f tps, PILL=%.0f tps (ratio %.3f)", a, b, b/a),
		fmt.Sprintf("verbs per committed tx: noPILL=%.2f, PILL=%.2f", r.VerbsPerTx[0], r.VerbsPerTx[1]))
	return r, nil
}

// Fig7 reproduces Figure 7: Pandora steady-state throughput while
// failures arrive with decreasing MTTF — half the coordinators (one of
// two compute nodes) crash and are restored each period. PILL's
// overhead (failed-ids checks plus occasional lock stealing) must stay
// negligible.
func Fig7(s Scale, mttfs []time.Duration) (*TimelineResult, error) {
	r := &TimelineResult{Title: "Figure 7: Pandora steady-state vs MTTF", Bucket: s.Bucket}
	// Paced clients and a modest coordinator count keep the single-CPU
	// scheduler out of the measurement; the question is whether PILL's
	// under-failure work (bitset checks, occasional steals) costs
	// throughput, not how fast the box is.
	if s.Coordinators > 16 {
		s.Coordinators = 16
	}
	pace := time.Millisecond
	for _, mttf := range append([]time.Duration{0}, mttfs...) {
		name := "no-failures"
		if mttf > 0 {
			name = fmt.Sprintf("MTTF=%v", mttf)
		}
		mttf := mttf
		pts, _, err := runTimelinePaced(s, s.workloadByName("micro"), pace, nil, func(c *pandora.Cluster, rec *trace.Recorder) {
			if mttf == 0 {
				return
			}
			end := time.Now().Add(s.Timeline)
			for time.Now().Before(end) {
				time.Sleep(mttf)
				if _, err := c.FailCompute(0); err != nil {
					return
				}
				if err := c.RestartCompute(0); err != nil {
					return
				}
				// Restored coordinators rejoin the run (and its
				// recorder).
				go workload.Run(workload.DriverConfig{
					Cluster:  c,
					Workload: s.workloadByName("micro"),
					Duration: time.Until(end),
					Nodes:    []int{0},
					Recorder: rec,
					Seed:     time.Now().UnixNano() % 1000,
					Pace:     pace,
				})
			}
		})
		if err != nil {
			return nil, err
		}
		r.Series = append(r.Series, Series{Name: name, Points: pts})
	}
	base := meanRate(r.Series[0].Points, s.Timeline/4, s.Timeline, s.Bucket)
	for i := 1; i < len(r.Series); i++ {
		m := meanRate(r.Series[i].Points, s.Timeline/4, s.Timeline, s.Bucket)
		r.Notes = append(r.Notes, fmt.Sprintf("%s mean %.0f tps (%.1f%% of failure-free)", r.Series[i].Name, m, 100*m/base))
	}
	return r, nil
}

// Failover reproduces Figures 8-12: the fail-over throughput of one
// workload under (a) a compute fault without resource reuse, (b) a
// compute fault with the failed coordinators restored ~10 ms after the
// fault, and (c) a memory fault (stop-the-world reconfiguration).
func Failover(s Scale, benchName string, coordinators int) (*TimelineResult, error) {
	if coordinators == 0 {
		coordinators = s.Coordinators
	}
	s.Coordinators = coordinators
	r := &TimelineResult{
		Title:  fmt.Sprintf("Fail-over throughput: %s (%d coordinators/node)", benchName, coordinators),
		Bucket: s.Bucket,
	}
	faultAt := s.Timeline / 3
	// Closed-loop clients with think time: offered load is proportional
	// to live coordinators, so a compute fault visibly removes its share
	// of capacity (the multi-core testbed enforces this through CPU
	// loss; in-process the survivors would otherwise absorb the cycles).
	pace := 2 * time.Millisecond

	// (a) compute fault, no reuse: throughput drops to the survivors'
	// share and stays there.
	pts, _, err := runTimelinePaced(s, s.workloadByName(benchName), pace, nil, func(c *pandora.Cluster, _ *trace.Recorder) {
		time.Sleep(faultAt)
		_, _ = c.FailCompute(0)
	})
	if err != nil {
		return nil, err
	}
	r.Series = append(r.Series, Series{Name: "compute-fault", Points: pts})

	// (b) compute fault with resource reuse: the failed coordinators are
	// brought back (<10 ms after the fault, §6.4) and rejoin.
	w := s.workloadByName(benchName)
	pts, _, err = runTimelinePaced(s, w, pace, nil, func(c *pandora.Cluster, rec *trace.Recorder) {
		time.Sleep(faultAt)
		if _, err := c.FailCompute(0); err != nil {
			return
		}
		time.Sleep(10 * time.Millisecond)
		if err := c.RestartCompute(0); err != nil {
			return
		}
		workload.Run(workload.DriverConfig{
			Cluster:  c,
			Workload: w,
			Duration: s.Timeline - faultAt - 10*time.Millisecond,
			Recorder: rec,
			Nodes:    []int{0},
			Seed:     99,
			Pace:     pace,
		})
	})
	if err != nil {
		return nil, err
	}
	r.Series = append(r.Series, Series{Name: "compute-reuse", Points: pts})

	// (c) memory fault: the whole KVS pauses for reconfiguration, then
	// resumes against the promoted primaries.
	pts, _, err = runTimelinePaced(s, s.workloadByName(benchName), pace, func(cfg *pandora.Config) {
		cfg.MemoryNodes = 3 // keep a full replica set after the fault
		cfg.Replication = 2
	}, func(c *pandora.Cluster, _ *trace.Recorder) {
		time.Sleep(faultAt)
		_ = c.FailMemory(0)
	})
	if err != nil {
		return nil, err
	}
	r.Series = append(r.Series, Series{Name: "memory-fault", Points: pts})

	pre := meanRate(r.Series[0].Points, 0, faultAt, s.Bucket)
	post := meanRate(r.Series[0].Points, faultAt+2*s.Bucket, s.Timeline, s.Bucket)
	reuse := meanRate(r.Series[1].Points, faultAt+2*s.Bucket, s.Timeline, s.Bucket)
	r.Notes = append(r.Notes,
		fmt.Sprintf("compute fault: pre %.0f -> post %.0f tps (%.0f%%, paper: ~2/3 and non-blocking)", pre, post, 100*post/pre),
		fmt.Sprintf("with reuse: post %.0f tps (%.0f%% of pre-fault)", reuse, 100*reuse/pre))
	return r, nil
}

// StallSensitivity reproduces Figures 13-14: 100%-write microbenchmark
// on the stalling path (conflicting transactions wait for recovery
// instead of aborting), with hot-set size hot. Fast recovery (Pandora)
// dips and stabilises; slow recovery (the failed node is detected but
// log recovery + notification are withheld for `slow`) starves the
// stalled transactions — with a small hot set, throughput collapses.
func StallSensitivity(s Scale, hot int, slow time.Duration) (*TimelineResult, error) {
	r := &TimelineResult{
		Title:  fmt.Sprintf("Stall sensitivity: hot=%d objects", hot),
		Bucket: s.Bucket,
	}
	faultAt := s.Timeline / 3
	w := &workload.Micro{Keys: s.Keys, WriteRatio: 1, HotKeys: hot}

	// At the fault instant the victim's coordinators must actually hold
	// locks on hot objects (the paper's crashed coordinators are
	// mid-transaction); park each of them on its first acquired lock
	// shortly before the crash so the stray-lock population is
	// deterministic.
	parkAndCrash := func(c *pandora.Cluster) {
		time.Sleep(faultAt - faultAt/4)
		victim := c.Engine(0)
		victim.SetInjector(func(_ kvlayout.CoordID, p core.CrashPoint) bool {
			if p != core.PointAfterExecRead {
				return victim.Crashed()
			}
			for !victim.Crashed() {
				time.Sleep(50 * time.Microsecond)
			}
			return true
		})
		time.Sleep(faultAt / 4)
		victim.Crash()
	}

	// Fast recovery (Pandora).
	pts, _, err := runTimeline(s, w, func(cfg *pandora.Config) {
		cfg.StallOnConflict = true
	}, func(c *pandora.Cluster, _ *trace.Recorder) {
		parkAndCrash(c)
		_, _ = c.FailCompute(0)
	})
	if err != nil {
		return nil, err
	}
	r.Series = append(r.Series, Series{Name: "fast-recovery", Points: pts})

	// Slow recovery: the node crashes but recovery (and therefore the
	// stray-lock notification that unblocks stalled transactions) is
	// delayed by `slow` — emulating the Baseline's seconds-long scan.
	pts, _, err = runTimeline(s, w, func(cfg *pandora.Config) {
		cfg.StallOnConflict = true
		cfg.NoAutoRecover = true
	}, func(c *pandora.Cluster, _ *trace.Recorder) {
		parkAndCrash(c)
		ev, ok := c.Detector().MarkFailed(c.Engine(0).ID())
		if !ok {
			return
		}
		time.Sleep(slow)
		_, _ = c.Recovery().RecoverCompute(ev)
	})
	if err != nil {
		return nil, err
	}
	r.Series = append(r.Series, Series{Name: "slow-recovery", Points: pts})

	pre := meanRate(r.Series[1].Points, 0, faultAt, s.Bucket)
	during := meanRate(r.Series[1].Points, faultAt+s.Bucket, faultAt+slow, s.Bucket)
	fastPost := meanRate(r.Series[0].Points, faultAt+2*s.Bucket, s.Timeline, s.Bucket)
	r.Notes = append(r.Notes,
		fmt.Sprintf("slow recovery: pre %.0f -> during-outage %.0f tps (%.0f%%)", pre, during, 100*during/max(pre, 1)),
		fmt.Sprintf("fast recovery: post-fault %.0f tps", fastPost))
	return r, nil
}
