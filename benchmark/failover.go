package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	pandora "pandora"
	"pandora/internal/core"
	"pandora/internal/kvlayout"
)

// One failover cycle, scripted so every cycle does the same work:
//
//  1. coordinators 0-3 of compute node 0 run a transfer on a private
//     key pair and park at core.PointAfterLog (logged, nothing applied);
//  2. coordinators 4-7 take the write locks of four more pairs and stop
//     before commit (not logged);
//  3. the node is crashed and its goroutines are waited for;
//  4. FailCompute(0) is timed: recovery finds the four logged txs;
//  5. the survivor session on node 1 runs one transfer on each of the
//     eight pairs: four after a roll-back, four that must steal the dead
//     coordinator's locks (PILL);
//  6. RestartCompute(0) brings the node back with fresh coordinator ids.
const (
	loggedPerCycle = 4
	heldPerCycle   = 4
	pairsPerCycle  = loggedPerCycle + heldPerCycle
)

// failoverResult is what a run of cycles yields. The embedded txStats
// cover the survivor's transfers, with the counter deltas taken around
// the whole loop.
type failoverResult struct {
	txStats
	cycles  int
	recNS   []float64 // FailCompute wall time of each cycle
	vtimeNS []float64 // RecoveryStats.VTime of each cycle
	restart hist      // RestartCompute wall
	steal   hist      // survivor transfers that steal locks
	rolled  hist      // survivor transfers on rolled-back pairs

	stealModelNS, survivorNS        int64
	recWallNS, recModelNS           int64
	logged, forward, back, logBytes int64
	badCycles                       int64 // LoggedTxs != 4 or rolled forward + back != 4
	tracer                          *tracer
}

// minCycles is the fewest cycles a time-bounded run makes.
const minCycles = 20

// runFailover runs scripted cycles on table fo: `cycles` of them when
// that is positive, otherwise until budget has passed (and at least
// minCycles). It also stops when the coordinator-id space (eight fresh
// ids per restart) runs out.
func runFailover(c *pandora.Cluster, seed int64, budget time.Duration, cycles int, traced bool) (*failoverResult, error) {
	res := &failoverResult{}
	surv := newWorker(c, 1, 0, foTable)
	if traced {
		surv.tr = newTracer(surv.clk)
		res.tracer = surv.tr
	}
	idsLeft := kvlayout.MaxCoordIDs - int(c.Detector().UsedIDs())
	maxCycles := idsLeft / coordsPerNode
	if cycles > 0 && cycles < maxCycles {
		maxCycles = cycles
	}
	perm := rand.New(rand.NewSource(seed)).Perm(foKeys)
	pair := func(cycle, j int) (a, b pandora.Key) {
		at := (cycle*2*pairsPerCycle + 2*j) % foKeys
		return pandora.Key(perm[at]), pandora.Key(perm[at+1])
	}
	res.recNS = make([]float64, 0, maxCycles)
	res.vtimeNS = make([]float64, 0, maxCycles)

	cacheBefore := c.ReadCacheStats(1, 0)
	before := takeCounters(c)
	start := time.Now()
	for res.cycles < maxCycles && (cycles > 0 || res.cycles < minCycles || time.Since(start) < budget) {
		cy := res.cycles
		if err := parkVictims(c, func(j int) (pandora.Key, pandora.Key) { return pair(cy, j) }); err != nil {
			return nil, fmt.Errorf("cycle %d: %w", cy, err)
		}

		v0 := surv.clk.Now()
		t0 := time.Now()
		st, err := c.FailCompute(0)
		t1 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("cycle %d: FailCompute: %w", cy, err)
		}
		res.recNS = append(res.recNS, float64(t1.Sub(t0)))
		res.vtimeNS = append(res.vtimeNS, float64(st.VTime))
		res.recWallNS += int64(st.WallTime)
		res.recModelNS += int64(st.VTime)
		res.logged += int64(st.LoggedTxs)
		res.forward += int64(st.RolledForward)
		res.back += int64(st.RolledBack)
		res.logBytes += int64(st.LogBytesRead)
		if st.LoggedTxs != loggedPerCycle || st.RolledForward+st.RolledBack != loggedPerCycle {
			res.badCycles++
		}
		if traced {
			surv.tr.root(spFailCompute, t0, t1, v0, v0+st.VTime)
		}

		t0 = time.Now()
		for j := 0; j < pairsPerCycle; j++ {
			a, b := pair(cy, j)
			surv.cur = txn{kind: kindTransfer, keys: [4]pandora.Key{a, b}}
			host, model, err := surv.run()
			if err != nil {
				continue
			}
			res.committed++
			res.host.record(int64(host))
			res.model.record(int64(model))
			if j < loggedPerCycle {
				res.rolled.record(int64(host))
			} else {
				res.steal.record(int64(host))
				res.stealModelNS += int64(model)
			}
		}
		res.survivorNS += int64(time.Since(t0))

		t0 = time.Now()
		if err := c.RestartCompute(0); err != nil {
			return nil, fmt.Errorf("cycle %d: RestartCompute: %w", cy, err)
		}
		t1 = time.Now()
		res.restart.record(int64(t1.Sub(t0)))
		if traced {
			v := surv.clk.Now()
			surv.tr.root(spRestartCompute, t0, t1, v, v)
		}
		res.cycles++
	}
	after := takeCounters(c)
	res.cache = cacheSub(c.ReadCacheStats(1, 0), cacheBefore)
	res.cpuUS, res.mallocs, res.bytes, res.gcs, res.metrics = after.sub(before)
	res.workerCounters = surv.workerCounters

	return res, nil
}

// parkVictims runs steps 1-3 of a cycle on compute node 0 and returns
// with the node crashed and quiesced.
func parkVictims(c *pandora.Cluster, pair func(j int) (pandora.Key, pandora.Key)) error {
	victim := c.Engine(0)
	var parked, done sync.WaitGroup
	crash := make(chan struct{})
	// The injector sits on the victim only, so the survivor keeps its
	// batched doorbells.
	victim.SetInjector(func(_ kvlayout.CoordID, p core.CrashPoint) bool {
		if p != core.PointAfterLog {
			return false
		}
		parked.Done()
		<-crash
		return true
	})
	errs := make([]error, loggedPerCycle)
	parked.Add(loggedPerCycle)
	for j := 0; j < loggedPerCycle; j++ {
		done.Add(1)
		go func(j int) {
			defer done.Done()
			var buf [32]byte
			a, b := pair(j)
			tx := c.Session(0, j).Begin()
			if err := transfer(tx, foTable, a, b, &buf); err != nil {
				errs[j] = err
				parked.Done()
				return
			}
			_ = tx.Commit() // parks in the injector, then fails with the crash
		}(j)
	}
	held := make([]*pandora.Tx, 0, heldPerCycle)
	var heldErr error
	for j := loggedPerCycle; j < pairsPerCycle; j++ {
		var buf [32]byte
		a, b := pair(j)
		tx := c.Session(0, j).Begin()
		if err := transfer(tx, foTable, a, b, &buf); err != nil && heldErr == nil {
			heldErr = err
		}
		held = append(held, tx)
	}
	parked.Wait()
	victim.Crash()
	close(crash)
	done.Wait()
	for _, tx := range held {
		_ = tx.Abort() // on a crashed node this only drops the tx's hold on the node
	}
	for _, err := range append(errs, heldErr) {
		if err != nil {
			return fmt.Errorf("victim transfer: %w", err)
		}
	}
	return nil
}
