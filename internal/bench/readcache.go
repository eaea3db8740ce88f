package bench

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"time"

	pandora "pandora"
	"pandora/internal/cache"
	"pandora/internal/workload"
)

// ReadCacheResult is the validated-read-cache experiment: per-read
// modelled latency of a zipfian read-heavy workload with the cache on
// vs the flag-gated no-cache baseline (Config.ReadCacheSize = -1).
// Latencies are virtual time (the 2 µs-RTT model), so the improvement
// is a count of fabric round trips avoided, not scheduler noise.
type ReadCacheResult struct {
	Keys     int     `json:"keys"`
	Txns     int     `json:"txns"`
	OpsPerTx int     `json:"ops_per_tx"`
	ZipfS    float64 `json:"zipf_s"`

	Hits    uint64  `json:"hits"`
	Misses  uint64  `json:"misses"`
	HitRate float64 `json:"hit_rate"`
	// Refreshes and Ghosts are the stale hits validation refreshed in
	// place and the entries it turned into ghosts (DESIGN.md §11). The
	// pass has no writer, so no hit goes stale: both read 0.
	Refreshes uint64 `json:"refreshes"`
	Ghosts    uint64 `json:"ghosts"`

	P50Cached    time.Duration `json:"p50_cached_ns"`
	P99Cached    time.Duration `json:"p99_cached_ns"`
	MeanCached   time.Duration `json:"mean_cached_ns"`
	P50Baseline  time.Duration `json:"p50_baseline_ns"`
	P99Baseline  time.Duration `json:"p99_baseline_ns"`
	MeanBaseline time.Duration `json:"mean_baseline_ns"`

	// Speedup is P50Baseline / P50Cached with the cached p50 floored at
	// 1 ns: a hit costs zero virtual time, so the unfloored ratio is
	// infinite whenever hits hold the median.
	Speedup float64 `json:"p50_speedup"`

	AbortsCached   int `json:"aborts_cached"`
	AbortsBaseline int `json:"aborts_baseline"`

	// Metrics is the cached pass's full observability snapshot (phase
	// histograms in virtual nanoseconds, abort taxonomy, per-node verb
	// counters). The pass is sequential and seeded on a virtual clock,
	// so this section is byte-identical across runs.
	Metrics pandora.Metrics `json:"metrics"`
}

// String renders the result.
func (r *ReadCacheResult) String() string {
	return fmt.Sprintf(
		"Validated read cache: %d txns × %d reads, %d keys, zipf s=%.2f\n"+
			"  hit rate %.1f%% (%d hits / %d misses; %d refreshes, %d ghosts)\n"+
			"  read latency cached:   p50=%v p99=%v mean=%v (%d aborts)\n"+
			"  read latency baseline: p50=%v p99=%v mean=%v (%d aborts)\n"+
			"  p50 speedup: %.0f×\n",
		r.Txns, r.OpsPerTx, r.Keys, r.ZipfS,
		100*r.HitRate, r.Hits, r.Misses, r.Refreshes, r.Ghosts,
		r.P50Cached, r.P99Cached, r.MeanCached, r.AbortsCached,
		r.P50Baseline, r.P99Baseline, r.MeanBaseline, r.AbortsBaseline,
		r.Speedup)
}

// JSON renders the result as one machine-readable object (the
// BENCH_readcache.json CI artifact).
func (r *ReadCacheResult) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// ReadCache runs the read-cache experiment at scale s: txns read-only
// transactions of 4 zipfian point reads each, once with the cache at
// its default size and once with the cache disabled, same key sequence.
func ReadCache(s Scale, txns int) (*ReadCacheResult, error) {
	const ops = 4
	const zipfS = 1.3
	r := &ReadCacheResult{Keys: s.Keys, Txns: txns, OpsPerTx: ops, ZipfS: zipfS}

	cLat, cAborts, stats, met, err := readCachePass(s, txns, ops, zipfS, 0)
	if err != nil {
		return nil, err
	}
	bLat, bAborts, _, _, err := readCachePass(s, txns, ops, zipfS, -1)
	if err != nil {
		return nil, err
	}
	r.Metrics = met

	r.Hits, r.Misses = stats.Hits, stats.Misses
	r.Refreshes, r.Ghosts = stats.Refreshes, stats.Ghosts
	r.HitRate = stats.HitRate()
	r.P50Cached, r.P99Cached, r.MeanCached = latSummary(cLat)
	r.P50Baseline, r.P99Baseline, r.MeanBaseline = latSummary(bLat)
	r.AbortsCached, r.AbortsBaseline = cAborts, bAborts
	den := r.P50Cached
	if den < 1 {
		den = 1
	}
	r.Speedup = float64(r.P50Baseline) / float64(den)
	return r, nil
}

// readCachePass runs one measurement pass with the given cache size and
// returns the per-read virtual latencies, the abort count, and the
// coordinator's cache counters.
func readCachePass(s Scale, txns, ops int, zipfS float64, cacheSize int) ([]time.Duration, int, cache.Stats, pandora.Metrics, error) {
	w := &workload.Micro{Keys: s.Keys}
	c, err := clusterFor(w, func(cfg *pandora.Config) {
		cfg.ComputeNodes = 1
		cfg.CoordinatorsPerNode = 1
		cfg.ModelLatency = true
		cfg.ReadCacheSize = cacheSize
	})
	if err != nil {
		return nil, 0, cache.Stats{}, pandora.Metrics{}, err
	}
	defer c.Close()

	clk := c.AttachClock(0, 0)
	sess := c.Session(0, 0)
	rng := rand.New(rand.NewSource(1))
	z := rand.NewZipf(rng, zipfS, 1, uint64(s.Keys-1))
	lats := make([]time.Duration, 0, txns*ops)
	aborts := 0
	for i := 0; i < txns; i++ {
		tx := sess.Begin()
		failed := false
		for j := 0; j < ops; j++ {
			k := pandora.Key(z.Uint64())
			before := clk.Now()
			if _, err := tx.Read("micro", k); err != nil {
				if !tx.Done() {
					_ = tx.Abort()
				}
				if !pandora.IsAborted(err) {
					return nil, 0, cache.Stats{}, pandora.Metrics{}, fmt.Errorf("read key %d: %w", uint64(k), err)
				}
				aborts++
				failed = true
				break
			}
			lats = append(lats, clk.Now()-before)
		}
		if failed {
			continue
		}
		if err := tx.Commit(); err != nil {
			if !pandora.IsAborted(err) {
				return nil, 0, cache.Stats{}, pandora.Metrics{}, fmt.Errorf("commit: %w", err)
			}
			aborts++
		}
	}
	return lats, aborts, c.ReadCacheStats(0, 0), c.MetricsSnapshot(), nil
}

// latSummary returns (p50, p99, mean) of a latency sample.
func latSummary(lats []time.Duration) (p50, p99, mean time.Duration) {
	if len(lats) == 0 {
		return 0, 0, 0
	}
	sorted := append([]time.Duration(nil), lats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum time.Duration
	for _, l := range sorted {
		sum += l
	}
	return sorted[len(sorted)/2], sorted[len(sorted)*99/100], sum / time.Duration(len(sorted))
}
