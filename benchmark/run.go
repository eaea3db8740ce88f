package main

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"
	"time"

	pandora "pandora"
	"pandora/internal/metrics"
)

// Sizes of a run at scale 1.
const (
	tableKeys      = 200000
	setupPasses    = 5
	steadyShare    = 0.85  // of -seconds for the window, the rest for failover cycles
	failoverShare  = 0.65  // the same for the failover workload: the coordinator-id space holds about 8000 cycles, some 10 s of them
	warmShare      = 0.1   // warm-up, as a share of -seconds, unmeasured
	replayPerSec   = 12000 // single-session replay length per second of -seconds
	cyclesPerSec   = 50    // traced failover cycles per second of -seconds
	variesShare    = 0.3   // two-session window of a traced run
	noisySliceIQR  = 0.15
	minReplayTxs   = 200
	minTraceCycles = minCycles
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    float64
	outDir   string
}

func (o options) keys() int {
	if k := int(tableKeys * o.scale); k > 256 {
		return k
	}
	return 256
}

func (o options) dur(share float64) time.Duration {
	return time.Duration(o.seconds * o.scale * share * float64(time.Second))
}

func (o options) count(perSec int, floor int) int {
	if n := int(float64(perSec) * o.seconds * o.scale); n > floor {
		return n
	}
	return floor
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runInfo is what a run knows beyond its result: noise indicators for
// -compare and the counts that must repeat exactly.
type runInfo struct {
	Samples        int64            `json:"tx_samples"`
	SliceQuartiles [3]float64       `json:"tx_per_s_slice_quartiles"`
	SliceIQRShare  float64          `json:"tx_per_s_slice_iqr_share"`
	WindowP50US    float64          `json:"tx_p50_us_whole_window"`
	WindowP99US    float64          `json:"tx_p99_us_whole_window"`
	GCs            uint32           `json:"gc_cycles"`
	Exact          map[string]int64 `json:"exact,omitempty"`
	Problems       []string         `json:"problems,omitempty"`
}

// run performs one measurement of one workload, traced or not.
func run(o options) (result, runInfo, error) {
	vals := map[string]float64{}
	var (
		info runInfo
		acct accounting
		err  error
	)
	if o.trace {
		err = runTraced(o, vals, &info, &acct)
	} else {
		err = runUntraced(o, vals, &info, &acct)
	}
	if err != nil {
		return result{}, info, err
	}
	specs := endToEndSpecs
	if o.trace {
		specs = perLayerSpecs
	}
	res := result{
		Correct:   len(acct.problems) == 0,
		Attempted: acct.attempted,
		Failed:    acct.failed + int64(len(acct.problems)),
		Metrics:   map[string]metricValue{},
	}
	for _, s := range specs {
		res.Metrics[s.Name] = metricValue{vals[s.Name], s.Unit}
	}
	info.Problems = acct.problems
	return res, info, nil
}

// accounting collects what counts against a run: Update calls that
// returned an error and output checks that failed.
type accounting struct {
	attempted, failed int64
	problems          []string
}

func (a *accounting) calls(k workerCounters, what string) {
	a.attempted += k.calls
	a.failed += k.failed
	if k.firstErr != nil {
		a.problems = append(a.problems, fmt.Sprintf("%s: %d of %d Update calls failed, first: %v", what, k.failed, k.calls, k.firstErr))
	}
}

func (a *accounting) check(ok bool, format string, args ...any) {
	a.attempted++
	if !ok {
		a.problems = append(a.problems, fmt.Sprintf(format, args...))
	}
}

func runUntraced(o options, vals map[string]float64, info *runInfo, acct *accounting) error {
	c, setupS, heapMB, err := setup(o.workload, o.keys(), setupPasses)
	if err != nil {
		return err
	}
	defer c.Close()
	vals["setup_s"], vals["heap_mb"] = setupS, heapMB

	// Every run has a two-session window and a run of failover cycles;
	// the failover workload gives the cycles as much as the id space
	// holds (and, having no transaction mix of its own, fills its window
	// with uniform transfers).
	share := steadyShare
	if o.workload == wlFailover {
		share = failoverShare
	}
	tx := runSteady(c, o.workload, o.keys(), o.seed, o.dur(warmShare), o.dur(share))
	acct.calls(tx.workerCounters, "steady window")
	fo, err := runFailover(c, o.seed, o.dur(1-share), 0, false)
	if err != nil {
		return err
	}
	acct.calls(fo.workerCounters, "failover survivor")
	acct.check(fo.badCycles == 0, "failover: %d of %d cycles did not see 4 logged txs rolled", fo.badCycles, fo.cycles)
	acct.check(tx.committed > 0 && fo.cycles >= minCycles, "window too short: %d txs, %d failover cycles", tx.committed, fo.cycles)
	checkOutputs(c, o, acct)

	n := float64(tx.committed)
	if n == 0 {
		n = 1
	}
	// Host-clock metrics of the window are the best slice's, the median
	// the best sub-slice's (see the comment on slices); recovery, counts
	// and modelled times cover the whole run.
	vals["tx_per_s"] = tx.best(func(s sliceStats) float64 { return s.txPerS }, true)
	vals["tx_p50_us"] = tx.bestP50NS / 1e3
	vals["cpu_us_per_tx"] = tx.best(func(s sliceStats) float64 { return s.cpuUSPerTx }, false)
	vals["allocs_per_tx"] = float64(tx.mallocs) / n
	vals["bytes_per_tx"] = float64(tx.bytes) / n
	vals["model_tx_p50_us"] = tx.model.quantile(0.50) / 1e3
	vals["model_tx_mean_us"] = tx.model.mean() / 1e3
	vals["recovery_p50_us"] = median(fo.recNS) / 1e3
	vals["recovery_model_us"] = median(fo.vtimeNS) / 1e3
	vals["steal_model_us"] = float64(fo.stealModelNS) / float64(fo.cycles*heldPerCycle) / 1e3

	info.Samples = tx.committed
	info.SliceQuartiles = quartiles(tx.rates())
	info.SliceIQRShare = tx.sliceIQRShare()
	info.WindowP50US = tx.host.quantile(0.5) / 1e3
	info.WindowP99US = tx.host.quantile(0.99) / 1e3
	info.GCs = tx.gcs
	return nil
}

// runTraced produces the per-layer numbers:
//
//   - a short two-session window for the counts that exist only under
//     concurrency (marked "varies"; uniform transfers for failover);
//   - the workload's transaction list replayed by one session on a fresh
//     cluster, spans off, then again on another fresh cluster, spans on:
//     the difference is the tracing overhead and every count of the two
//     runs must agree exactly;
//   - a fixed number of traced failover cycles;
//   - the probes.
//
// For the failover workload the cycles are the transaction list.
func runTraced(o options, vals map[string]float64, info *runInfo, acct *accounting) error {
	cycles := o.count(cyclesPerSec, minTraceCycles)
	var (
		varies     *txStats
		base, trcd *txStats // single-session, spans off / on
		baseNS     float64
		trcdNS     float64
		tr         *tracer
		fo         *failoverResult
		baseExact  map[string]int64
		trcdExact  map[string]int64
	)
	// Each stage gets a fresh cluster, is checked at quiescence and
	// closed before the next one is built.
	stage := func(fn func(c *pandora.Cluster) error) error {
		c, err := buildCluster(o.workload, o.keys())
		if err != nil {
			return err
		}
		defer c.Close()
		runtime.GC() // the previous stage's cluster must not be collected during this one
		if err := fn(c); err != nil {
			return err
		}
		checkOutputs(c, o, acct)
		return nil
	}

	var err error
	if o.workload == wlFailover {
		var fa *failoverResult
		err = stage(func(c *pandora.Cluster) (err error) {
			// The cycles first: they must start on a fresh cluster, like
			// their traced twin.
			if fa, err = runFailover(c, o.seed, 0, cycles, false); err == nil {
				varies = runSteady(c, o.workload, o.keys(), o.seed, o.dur(warmShare), o.dur(variesShare))
			}
			return err
		})
		if err == nil {
			err = stage(func(c *pandora.Cluster) (err error) {
				fo, err = runFailover(c, o.seed, 0, cycles, true)
				return err
			})
		}
		if err != nil {
			return err
		}
		acct.calls(fa.workerCounters, "failover survivor, spans off")
		acct.calls(varies.workerCounters, "two-session window")
		base, trcd, tr = &fa.txStats, &fo.txStats, fo.tracer
		baseNS, trcdNS = float64(fa.survivorNS), float64(fo.survivorNS)
		baseExact = exactCounts(base, fa.recModelNS+fa.stealModelNS)
		trcdExact = exactCounts(trcd, fo.recModelNS+fo.stealModelNS)
	} else {
		n := o.count(replayPerSec, minReplayTxs)
		var rb, rt *replayResult
		err = stage(func(c *pandora.Cluster) (err error) {
			varies = runSteady(c, o.workload, o.keys(), o.seed, o.dur(warmShare), o.dur(variesShare))
			fo, err = runFailover(c, o.seed, 0, cycles, true)
			return err
		})
		if err == nil {
			err = stage(func(c *pandora.Cluster) error {
				rb = runReplay(c, o.workload, o.keys(), o.seed, n, false)
				return nil
			})
		}
		if err == nil {
			err = stage(func(c *pandora.Cluster) error {
				rt = runReplay(c, o.workload, o.keys(), o.seed, n, true)
				return nil
			})
		}
		if err != nil {
			return err
		}
		acct.calls(varies.workerCounters, "two-session window")
		acct.calls(rb.workerCounters, "replay, spans off")
		acct.calls(rt.workerCounters, "replay, spans on")
		base, trcd, tr = &rb.txStats, &rt.txStats, rt.tracer
		baseNS, trcdNS = float64(rb.wallNS), float64(rt.wallNS)
		baseExact, trcdExact = exactCounts(base, rb.modelNS), exactCounts(trcd, rt.modelNS)
		if err := fo.tracer.writeFile(o.outDir, o.workload+"-failover"); err != nil {
			return fmt.Errorf("trace file: %w", err)
		}
	}
	acct.calls(fo.workerCounters, "failover survivor, spans on")
	acct.check(fo.badCycles == 0, "failover: %d of %d cycles did not see 4 logged txs rolled", fo.badCycles, fo.cycles)
	diff := diffExact(baseExact, trcdExact)
	acct.check(len(diff) == 0, "single-session counts differ between spans off and on: %s", strings.Join(diff, "; "))
	if err := tr.writeFile(o.outDir, o.workload); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}

	layerMetrics(vals, varies, base, trcd, tr, baseNS, trcdNS, fo)
	if err := runProbes(o.scale, vals); err != nil {
		return err
	}
	info.Samples = trcd.committed
	info.Exact = trcdExact
	info.GCs = trcd.gcs
	return nil
}

// layerMetrics turns the runs of a traced invocation into the per-layer
// values that are not probes.
func layerMetrics(vals map[string]float64, varies, base, trcd *txStats, tr *tracer, baseNS, trcdNS float64, fo *failoverResult) {
	per := func(x float64, n int64) float64 {
		if n == 0 {
			return 0
		}
		return x / float64(n)
	}
	// Two-session counts.
	vn := varies.committed
	vals["pandora.attempts_per_tx"] = per(float64(varies.sumAttempts), varies.calls)
	vals["pandora.max_attempts"] = float64(varies.maxAttempts)
	vals["pandora.over50_attempts_per_mtx"] = per(float64(varies.over50)*1e6, varies.calls)
	vals["core.aborts_per_ktx"] = per(float64(abortTotal(varies.metrics))*1e3, vn)
	vals["core.abort_lock_conflict_per_ktx"] = per(float64(varies.metrics.AbortCount(metrics.AbortLockConflict))*1e3, vn)
	vals["core.abort_validation_per_ktx"] = per(float64(varies.metrics.AbortCount(metrics.AbortValidationVersion))*1e3, vn)
	vals["core.abort_cache_stale_per_ktx"] = per(float64(varies.metrics.AbortCount(metrics.AbortCacheStale))*1e3, vn)
	vals["hotlock.lock_retry_per_ktx"] = per(float64(varies.metrics.LockCount(metrics.LockRetry))*1e3, vn)
	vals["hotlock.promotions_per_ktx"] = per(float64(varies.metrics.LockCount(metrics.LockPromotion))*1e3, vn)
	vals["hotlock.queued_acquire_per_ktx"] = per(float64(varies.metrics.LockCount(metrics.LockQueuedAcquire))*1e3, vn)
	vals["hotlock.queue_timeout_per_ktx"] = per(float64(varies.metrics.LockCount(metrics.LockQueueTimeout))*1e3, vn)
	faa, _ := verbCount(varies.metrics, metrics.VerbFAA)
	vals["rdma.faa_per_tx"] = per(float64(faa), vn)
	vals["host.tx_per_s_median_slice"] = median(varies.rates())
	vals["host.tx_p50_us_window"] = varies.host.quantile(0.5) / 1e3
	vals["host.tx_p95_us_slice"] = varies.best(func(s sliceStats) float64 { return s.p95NS }, false) / 1e3
	vals["host.tx_p99_us_window"] = varies.host.quantile(0.99) / 1e3
	vals["host.slice_iqr_share"] = varies.sliceIQRShare()

	// Single-session counts, from the traced replay (the untraced one
	// agrees exactly or the run is marked incorrect).
	n := trcd.committed
	var verbs, retried uint64
	for v := metrics.Verb(0); v < metrics.NumVerbs; v++ {
		issued, re := verbCount(trcd.metrics, v)
		verbs += issued
		retried += re
	}
	perVerb := func(v metrics.Verb) float64 {
		issued, _ := verbCount(trcd.metrics, v)
		return per(float64(issued), n)
	}
	vals["rdma.read_per_tx"] = perVerb(metrics.VerbRead)
	vals["rdma.write_per_tx"] = perVerb(metrics.VerbWrite)
	vals["rdma.cas_per_tx"] = perVerb(metrics.VerbCAS)
	vals["rdma.flush_per_tx"] = perVerb(metrics.VerbFlush)
	vals["rdma.verbs_per_tx"] = per(float64(verbs), n)
	vals["rdma.retried_per_ktx"] = per(float64(retried)*1e3, n)
	vals["core.commit_rounds_per_tx"] = per(float64(trcd.metrics.Drain.CommitRounds), n)
	vals["cache.hit_share"] = trcd.cache.HitRate()
	vals["cache.puts_per_tx"] = per(float64(trcd.cache.Puts), n)
	vals["cache.invalidations_per_ktx"] = per(float64(trcd.cache.Invalidations)*1e3, n)
	vals["cache.evictions_per_ktx"] = per(float64(trcd.cache.Evictions)*1e3, n)

	// Spans.
	vals["trace.base_ns_per_tx"] = per(baseNS, base.committed)
	vals["trace.traced_ns_per_tx"] = per(trcdNS, n)
	vals["trace.accounted_share"] = per(float64(tr.agg[spUpdate].hostNS), int64(trcdNS))
	vals["pandora.update_self_ns"] = per(float64(tr.updateSelfNS()), n)
	vals["core.begin_ns"], _ = tr.perCall(spBegin)
	vals["core.read_ns"], vals["core.model_read_ns"] = tr.perCall(spRead)
	vals["core.readrange_ns"], _ = tr.perCall(spReadRange)
	vals["core.write_ns"], vals["core.model_write_ns"] = tr.perCall(spWrite)
	vals["core.commit_ns"], vals["core.model_commit_ns"] = tr.perCall(spCommit)
	vals["core.commit_ro_ns"], _ = tr.perCall(spCommitRO)

	// Failover cycles.
	cy := int64(fo.cycles)
	vals["pandora.restart_compute_us"] = fo.restart.quantile(0.5) / 1e3
	vals["recovery.wall_us"] = per(float64(fo.recWallNS), cy) / 1e3
	vals["recovery.model_us"] = per(float64(fo.recModelNS), cy) / 1e3
	vals["recovery.logged_txs_per_cycle"] = per(float64(fo.logged), cy)
	vals["recovery.rolled_forward_per_cycle"] = per(float64(fo.forward), cy)
	vals["recovery.rolled_back_per_cycle"] = per(float64(fo.back), cy)
	vals["recovery.log_bytes_per_cycle"] = per(float64(fo.logBytes), cy)
	vals["recovery.steps_per_cycle"] = per(float64(fo.metrics.PhaseCount(metrics.PhaseRecoveryStep)), cy)
	vals["recovery.steal_model_us"] = per(float64(fo.stealModelNS), cy*heldPerCycle) / 1e3
	vals["recovery.rolled_tx_us"] = fo.rolled.quantile(0.5) / 1e3
	vals["recovery.steal_tx_us"] = fo.steal.quantile(0.5) / 1e3
	vals["recovery.p90_us"] = quantileOf(fo.recNS, 0.9) / 1e3
	vals["recovery.cpu_us_per_cycle"] = per(fo.cpuUS, cy)
	vals["recovery.allocs_per_cycle"] = per(float64(fo.mallocs), cy)
	vals["recovery.bytes_per_cycle"] = per(float64(fo.bytes), cy)
}

// checkOutputs verifies, at quiescence, what the workload must have
// left behind on cluster c. Every failed check counts as a failure.
func checkOutputs(c *pandora.Cluster, o options, acct *accounting) {
	c.Engine(0).FlushDrains()
	c.Engine(1).FlushDrains()
	table, _ := tableFor(o.workload)
	tables := []struct {
		name string
		keys int
	}{{table, o.keys()}, {foTable, foKeys}}
	for _, t := range tables {
		rep, err := c.CheckConsistency(t.name)
		acct.check(err == nil && len(rep.DuplicateKeys) == 0 && len(rep.DivergentKeys) == 0 && rep.LockedSlots == 0 && rep.Keys == t.keys,
			"%s: CheckConsistency: %d keys (want %d), %d duplicate, %d divergent, %d locked slots, err %v",
			t.name, rep.Keys, t.keys, len(rep.DuplicateKeys), len(rep.DivergentKeys), rep.LockedSlots, err)

		// One read-only transaction over the whole table: balances are
		// conserved, kv values still carry their keys.
		var sum uint64
		var rows, wrongKey int
		err = c.Session(1, coordsPerNode-1).Update(3, func(tx *pandora.Tx) error {
			sum, rows, wrongKey = 0, 0, 0
			return tx.ReadRange(t.name, 0, pandora.Key(t.keys), func(k pandora.Key, v []byte) bool {
				word := binary.LittleEndian.Uint64(v)
				if word != uint64(k) {
					wrongKey++
				}
				sum += word
				rows++
				return true
			})
		})
		if t.name == "kv" {
			acct.check(err == nil && rows == t.keys && wrongKey == 0, "kv: %d of %d rows do not carry their key, err %v", wrongKey, rows, err)
		} else {
			acct.check(err == nil && rows == t.keys && sum == uint64(t.keys)*startBalance,
				"%s: balance not conserved: %d rows sum to %d, want %d, err %v", t.name, rows, sum, uint64(t.keys)*startBalance, err)
		}
	}
}
