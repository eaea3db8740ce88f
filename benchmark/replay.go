package main

import (
	"fmt"
	"sort"
	"time"

	pandora "pandora"
	"pandora/internal/metrics"
)

// replayResult is a single-session run of a fixed transaction list on a
// fresh cluster. With one session nothing races, so every count and
// every modelled time in it repeats exactly for one seed.
type replayResult struct {
	txStats
	wallNS  int64
	modelNS int64
	tracer  *tracer
}

func runReplay(c *pandora.Cluster, workload string, keys int, seed int64, n int, traced bool) *replayResult {
	table, _ := tableFor(workload)
	w := newWorker(c, 0, 0, table)
	res := &replayResult{}
	if traced {
		w.tr = newTracer(w.clk)
		res.tracer = w.tr
	}
	list := make([]txn, n)
	g := newGenerator(workload, keys, seed)
	for i := range list {
		g.next(&list[i])
	}
	cacheBefore := c.ReadCacheStats(0, 0)
	before := takeCounters(c)
	v0 := w.clk.Now()
	t0 := time.Now()
	for i := range list {
		w.cur = list[i]
		host, model, err := w.run()
		if err != nil {
			continue
		}
		res.committed++
		res.host.record(int64(host))
		res.model.record(int64(model))
	}
	res.wallNS = int64(time.Since(t0))
	res.modelNS = int64(w.clk.Now() - v0)
	after := takeCounters(c)
	res.cpuUS, res.mallocs, res.bytes, res.gcs, res.metrics = after.sub(before)
	res.cache = cacheSub(c.ReadCacheStats(0, 0), cacheBefore)
	res.workerCounters = w.workerCounters
	return res
}

// verbCount sums one verb kind over every destination node.
func verbCount(m pandora.Metrics, verb metrics.Verb) (issued, retried uint64) {
	name := verb.String()
	for _, v := range m.Verbs {
		if v.Verb == name {
			issued += v.Issued
			retried += v.Retried
		}
	}
	return issued, retried
}

func abortTotal(m pandora.Metrics) (n uint64) {
	for _, a := range m.Aborts {
		n += a.Count
	}
	return n
}

// exactCounts lists the counts of a single-session run that must repeat
// exactly; two runs of the same list are compared on them.
func exactCounts(s *txStats, modelNS int64) map[string]int64 {
	out := map[string]int64{
		"committed":     s.committed,
		"calls":         s.calls,
		"attempts":      s.sumAttempts,
		"model_ns":      modelNS,
		"commit_rounds": int64(s.metrics.Drain.CommitRounds),
		"aborts":        int64(abortTotal(s.metrics)),
		"cache_hits":    int64(s.cache.Hits),
		"cache_misses":  int64(s.cache.Misses),
		"cache_puts":    int64(s.cache.Puts),
		"cache_inval":   int64(s.cache.Invalidations),
		"cache_evict":   int64(s.cache.Evictions),
	}
	for v := metrics.Verb(0); v < metrics.NumVerbs; v++ {
		issued, retried := verbCount(s.metrics, v)
		out["verb_"+v.String()] = int64(issued)
		out["retried_"+v.String()] = int64(retried)
	}
	for _, l := range s.metrics.Locks {
		out["lock_"+l.Event] = int64(l.Count)
	}
	for _, p := range s.metrics.Phases {
		out["phase_"+p.Phase] = int64(p.Count)
	}
	return out
}

// diffExact lists the counts on which two runs of one list disagree,
// in name order; empty when they match.
func diffExact(a, b map[string]int64) []string {
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []string
	for _, k := range keys {
		if b[k] != a[k] {
			out = append(out, fmt.Sprintf("%s: %d != %d", k, a[k], b[k]))
		}
	}
	return out
}
