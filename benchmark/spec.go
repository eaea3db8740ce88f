package main

// The metric and workload catalogue. BENCHMARK.json is generated from
// these tables (-manifest) and bench_test.go checks that the checked-in
// file, the tables and the emitted metric names agree.

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// Workload names; later issues cite them.
const (
	wlTransfer = "transfer_uniform"
	wlReadZipf = "read_zipf"
	wlRMWHot   = "rmw_hot"
	wlFailover = "failover"
)

var workloadSpecs = []workloadSpec{
	{wlTransfer, "2R+2W transfers on uniform keys, working set 50x the read cache: the write path (lock, validate, log, apply, release), rdma doorbells and kvlayout log encoding do the work; cache and hotlock do none"},
	{wlReadZipf, "70% four Zipf(1.3) point reads, 20% 16-key range reads, 10% RMW: cache, rdma.ReadBatch, resolve and validation dominate and the commit tail is rare, so a write-path gain that costs reads shows"},
	{wlRMWHot, "the transfer transaction on 8 hot keys: lock-conflict aborts, Session.Update's backoff ladder, hotlock promotion and ticket lanes and the abort/release path carry the difference"},
	{wlFailover, "scripted compute crashes for 35% of the run: 4 coordinators logged, 4 holding locks, FailCompute timed, a survivor transacts on all 8 pairs, RestartCompute: recovery, fdetect, log decode, PILL steals"},
}

// metricSpec describes one metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change is a
// regression; per-layer metrics carry none.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	// Host marks an end-to-end metric read off the host's clock. Only
	// for these may -compare call a regression no larger than the runs'
	// own slice noise "unresolved"; counts, allocations and modelled
	// times do not see the host and are held to their bound.
	Host bool
	// Kind says where a per-layer number comes from: "trace" (host span
	// times of the single-session replay), "exact" (single-session counts
	// and modelled times, repeat exactly for one seed), "varies"
	// (two-session counts), "probe" (isolated call loop).
	Kind string
	// Moves names the end-to-end metric and workload the layer metric is
	// expected to move.
	Moves string
	Def   string
}

var endToEndSpecs = []metricSpec{
	{Name: "setup_s", Host: true, Unit: "s", Better: "lower", Bound: 0.25, Def: "pandora.New + load; median of five consecutive build+load passes"},
	{Name: "heap_mb", Unit: "MB", Better: "lower", Bound: 0.05, Def: "HeapInuse after set-up and a forced GC"},
	{Name: "tx_per_s", Host: true, Unit: "tx/s", Better: "higher", Bound: 0.25, Def: "committed txs per second in the best of the window's forty slices"},
	{Name: "tx_p50_us", Host: true, Unit: "us", Better: "lower", Bound: 0.25, Def: "Update call to return, committed txs: lowest median of the window's two hundred sub-slices"},
	{Name: "cpu_us_per_tx", Host: true, Unit: "us", Better: "lower", Bound: 0.25, Def: "process user+sys CPU (getrusage) per committed tx, lowest slice"},
	{Name: "allocs_per_tx", Unit: "allocs", Better: "lower", Bound: 0.03, Def: "MemStats.Mallocs delta per committed tx"},
	{Name: "bytes_per_tx", Unit: "B", Better: "lower", Bound: 0.08, Def: "MemStats.TotalAlloc delta per committed tx"},
	{Name: "model_tx_p50_us", Unit: "model_us", Better: "lower", Bound: 0.03, Def: "session VClock delta per committed tx, retries included, median"},
	{Name: "model_tx_mean_us", Unit: "model_us", Better: "lower", Bound: 0.05, Def: "same, mean: moves with the share and depth of retries"},
	{Name: "recovery_p50_us", Host: true, Unit: "us", Better: "lower", Bound: 0.25, Def: "wall time of FailCompute(0) per failover cycle, median over all cycles"},
	{Name: "recovery_model_us", Unit: "model_us", Better: "lower", Bound: 0.01, Def: "RecoveryStats.VTime per cycle, median"},
	{Name: "steal_model_us", Unit: "model_us", Better: "lower", Bound: 0.03, Def: "survivor VClock delta of a transfer that must steal both locks of a dead coordinator, mean"},
}

var perLayerSpecs = []metricSpec{
	// pandora
	{Name: "pandora.update_self_ns", Unit: "ns", Better: "lower", Kind: "trace", Moves: "cpu_us_per_tx, host.tx_p99_us_window on rmw_hot", Def: "Update span minus begin, commit and operation spans, per tx"},
	{Name: "pandora.attempts_per_tx", Unit: "ratio", Better: "lower", Kind: "varies", Moves: "host.tx_p99_us_window, cpu_us_per_tx on rmw_hot", Def: "callback runs per Update call"},
	{Name: "pandora.max_attempts", Unit: "count", Better: "lower", Kind: "varies", Moves: "model_tx_mean_us, host.tx_p99_us_window on rmw_hot", Def: "most callback runs of one Update call"},
	{Name: "pandora.over50_attempts_per_mtx", Unit: "count", Better: "lower", Kind: "varies", Moves: "model_tx_mean_us, host.tx_p99_us_window on rmw_hot", Def: "Update calls that needed more than 50 attempts, per million"},
	{Name: "pandora.restart_compute_us", Unit: "us", Better: "lower", Kind: "trace", Moves: "none end to end (cycle rate)", Def: "RestartCompute(0) wall time, median over cycles"},
	{Name: "pandora.new_ms", Unit: "ms", Better: "lower", Kind: "probe", Moves: "setup_s everywhere", Def: "pandora.New of the benchmark cluster, no load"},

	// core
	{Name: "core.begin_ns", Unit: "ns", Better: "lower", Kind: "trace", Moves: "tx_p50_us everywhere", Def: "Update entry to callback entry (Session.Begin), per tx"},
	{Name: "core.read_ns", Unit: "ns", Better: "lower", Kind: "trace", Moves: "tx_p50_us, cpu_us_per_tx on read_zipf", Def: "Tx.Read span, mean per call"},
	{Name: "core.readrange_ns", Unit: "ns", Better: "lower", Kind: "trace", Moves: "tx_per_s, host.tx_p99_us_window on read_zipf", Def: "Tx.ReadRange span (16 keys), mean per call"},
	{Name: "core.write_ns", Unit: "ns", Better: "lower", Kind: "trace", Moves: "tx_p50_us, cpu_us_per_tx on transfer_uniform, rmw_hot", Def: "Tx.Write span (resolve + eager lock), mean per call"},
	{Name: "core.commit_ns", Unit: "ns", Better: "lower", Kind: "trace", Moves: "tx_p50_us, tx_per_s, allocs_per_tx on transfer_uniform, rmw_hot", Def: "callback return to Update return (Tx.Commit), txs with writes, mean"},
	{Name: "core.commit_ro_ns", Unit: "ns", Better: "lower", Kind: "trace", Moves: "tx_p50_us on read_zipf", Def: "same, read-only txs"},
	{Name: "core.model_read_ns", Unit: "model_ns", Better: "lower", Kind: "exact", Moves: "model_tx_p50_us on read_zipf", Def: "VClock delta of a Tx.Read span, mean per call"},
	{Name: "core.model_write_ns", Unit: "model_ns", Better: "lower", Kind: "exact", Moves: "model_tx_p50_us on transfer_uniform, rmw_hot", Def: "VClock delta of a Tx.Write span, mean per call"},
	{Name: "core.model_commit_ns", Unit: "model_ns", Better: "lower", Kind: "exact", Moves: "model_tx_p50_us on transfer_uniform, rmw_hot", Def: "VClock delta of the commit span, mean per tx"},
	{Name: "core.commit_rounds_per_tx", Unit: "count", Better: "lower", Kind: "exact", Moves: "model_tx_p50_us on transfer_uniform", Def: "post-validation critical-path doorbell rounds per tx"},
	{Name: "core.aborts_per_ktx", Unit: "count", Better: "lower", Kind: "varies", Moves: "host.tx_p99_us_window, model_tx_mean_us on rmw_hot", Def: "aborts of any kind per thousand committed txs"},
	{Name: "core.abort_lock_conflict_per_ktx", Unit: "count", Better: "lower", Kind: "varies", Moves: "model_tx_mean_us, host.tx_p99_us_window on rmw_hot", Def: "lock-conflict aborts per thousand txs"},
	{Name: "core.abort_validation_per_ktx", Unit: "count", Better: "lower", Kind: "varies", Moves: "model_tx_mean_us, host.tx_p99_us_window on rmw_hot", Def: "validation-version aborts per thousand txs"},
	{Name: "core.abort_cache_stale_per_ktx", Unit: "count", Better: "lower", Kind: "varies", Moves: "model_tx_mean_us, host.tx_p99_us_window on rmw_hot, read_zipf", Def: "stale-cache-hit aborts per thousand txs"},
	{Name: "core.commit_1r2w_sync_ns", Unit: "ns", Better: "lower", Kind: "probe", Moves: "core.commit_ns", Def: "Tx.Commit of a 1R+2W tx on a warm coordinator, synchronous tail"},
	{Name: "core.commit_1r2w_async_ns", Unit: "ns", Better: "lower", Kind: "probe", Moves: "core.commit_ns", Def: "same with AsyncCommitBack"},
	{Name: "core.commit_ro_ns_probe", Unit: "ns", Better: "lower", Kind: "probe", Moves: "core.commit_ro_ns", Def: "Tx.Commit of a one-read tx on a warm coordinator"},
	{Name: "core.commit_1r2w_allocs", Unit: "allocs", Better: "lower", Kind: "probe", Moves: "allocs_per_tx on transfer_uniform", Def: "heap allocations of one synchronous 1R+2W Tx.Commit"},

	// rdma
	{Name: "rdma.verbs_per_tx", Unit: "count", Better: "lower", Kind: "exact", Moves: "cpu_us_per_tx, model_tx_p50_us everywhere", Def: "fabric verbs issued per tx"},
	{Name: "rdma.read_per_tx", Unit: "count", Better: "lower", Kind: "exact", Moves: "model_tx_p50_us on read_zipf", Def: "READ verbs per tx"},
	{Name: "rdma.write_per_tx", Unit: "count", Better: "lower", Kind: "exact", Moves: "model_tx_p50_us on transfer_uniform", Def: "WRITE verbs per tx"},
	{Name: "rdma.cas_per_tx", Unit: "count", Better: "lower", Kind: "exact", Moves: "model_tx_p50_us on transfer_uniform", Def: "CAS verbs per tx"},
	{Name: "rdma.faa_per_tx", Unit: "count", Better: "lower", Kind: "varies", Moves: "model_tx_mean_us, host.tx_p99_us_window on rmw_hot", Def: "FAA verbs per tx (ticket lanes), two-session run"},
	{Name: "rdma.flush_per_tx", Unit: "count", Better: "lower", Kind: "exact", Moves: "none with persistence off", Def: "FLUSH verbs per tx"},
	{Name: "rdma.retried_per_ktx", Unit: "count", Better: "lower", Kind: "exact", Moves: "model_tx_mean_us", Def: "retransmitted verbs per thousand txs"},
	{Name: "rdma.read64_ns", Unit: "ns", Better: "lower", Kind: "probe", Moves: "cpu_us_per_tx via rdma.read_per_tx", Def: "Endpoint.Read of 64 B"},
	{Name: "rdma.write64_ns", Unit: "ns", Better: "lower", Kind: "probe", Moves: "cpu_us_per_tx via rdma.write_per_tx", Def: "Endpoint.Write of 64 B"},
	{Name: "rdma.cas_ns", Unit: "ns", Better: "lower", Kind: "probe", Moves: "cpu_us_per_tx via rdma.cas_per_tx", Def: "Endpoint.CAS"},
	{Name: "rdma.faa_ns", Unit: "ns", Better: "lower", Kind: "probe", Moves: "cpu_us_per_tx on rmw_hot", Def: "Endpoint.FAA"},
	{Name: "rdma.do1_ns", Unit: "ns", Better: "lower", Kind: "probe", Moves: "cpu_us_per_tx everywhere", Def: "pooled OpBatch of 1 READ, Endpoint.Do"},
	{Name: "rdma.do4_ns", Unit: "ns", Better: "lower", Kind: "probe", Moves: "cpu_us_per_tx everywhere", Def: "pooled OpBatch of 4 mixed ops over two nodes"},
	{Name: "rdma.do16_ns", Unit: "ns", Better: "lower", Kind: "probe", Moves: "cpu_us_per_tx everywhere", Def: "pooled OpBatch of 16 mixed ops over two nodes"},
	{Name: "rdma.readbatch16_ns", Unit: "ns", Better: "lower", Kind: "probe", Moves: "core.readrange_ns on read_zipf", Def: "Endpoint.ReadBatch of 16 slots of 64 B"},
	{Name: "rdma.do4_contended_ns", Unit: "ns", Better: "lower", Kind: "probe", Moves: "tx_per_s, host.tx_p99_us_window on rmw_hot", Def: "do4 from two goroutines on one stripe, per call"},
	{Name: "rdma.do4_allocs", Unit: "allocs", Better: "lower", Kind: "probe", Moves: "allocs_per_tx everywhere", Def: "heap allocations of one pooled do4"},

	// kvlayout
	{Name: "kvlayout.encode_slot_ns", Unit: "ns", Better: "lower", Kind: "probe", Moves: "setup_s", Def: "Table.EncodeSlot, 16 B value"},
	{Name: "kvlayout.decode_slot_ns", Unit: "ns", Better: "lower", Kind: "probe", Moves: "core.read_ns", Def: "Table.DecodeSlot, 16 B value"},
	{Name: "kvlayout.logrec_encode_ns", Unit: "ns", Better: "lower", Kind: "probe", Moves: "cpu_us_per_tx on transfer_uniform, rmw_hot", Def: "LogRecord.Encode, two 16 B writes"},
	{Name: "kvlayout.logrec_decode_ns", Unit: "ns", Better: "lower", Kind: "probe", Moves: "recovery_p50_us on failover", Def: "DecodeLogRecord, two 16 B writes"},
	{Name: "kvlayout.logrec_encode_allocs", Unit: "allocs", Better: "lower", Kind: "probe", Moves: "allocs_per_tx on transfer_uniform, rmw_hot", Def: "heap allocations of one LogRecord.Encode"},

	// cache
	{Name: "cache.hit_share", Unit: "ratio", Better: "higher", Kind: "exact", Moves: "model_tx_p50_us, rdma.read_per_tx, tx_p50_us on read_zipf", Def: "read-cache hits / (hits + misses)"},
	{Name: "cache.puts_per_tx", Unit: "count", Better: "lower", Kind: "exact", Moves: "cpu_us_per_tx on transfer_uniform (miss + put cost)", Def: "read-cache puts per tx"},
	{Name: "cache.invalidations_per_ktx", Unit: "count", Better: "lower", Kind: "exact", Moves: "cache.hit_share on rmw_hot", Def: "read-cache invalidations per thousand txs"},
	{Name: "cache.evictions_per_ktx", Unit: "count", Better: "lower", Kind: "exact", Moves: "cache.hit_share on read_zipf", Def: "read-cache evictions per thousand txs"},
	{Name: "cache.get_hit_ns", Unit: "ns", Better: "lower", Kind: "probe", Moves: "core.read_ns on read_zipf", Def: "Cache.Get, hit"},
	{Name: "cache.get_miss_ns", Unit: "ns", Better: "lower", Kind: "probe", Moves: "core.read_ns on transfer_uniform", Def: "Cache.Get, miss"},
	{Name: "cache.put_ns", Unit: "ns", Better: "lower", Kind: "probe", Moves: "core.read_ns on transfer_uniform", Def: "Cache.Put of 40 B with eviction"},

	// hotlock
	{Name: "hotlock.lock_retry_per_ktx", Unit: "count", Better: "lower", Kind: "varies", Moves: "host.tx_p99_us_window, core.abort_lock_conflict_per_ktx on rmw_hot", Def: "failed lock CASes per thousand txs"},
	{Name: "hotlock.promotions_per_ktx", Unit: "count", Better: "lower", Kind: "varies", Moves: "model_tx_mean_us, host.tx_p99_us_window on rmw_hot", Def: "keys promoted to queued locking per thousand txs"},
	{Name: "hotlock.queued_acquire_per_ktx", Unit: "count", Better: "lower", Kind: "varies", Moves: "model_tx_mean_us, host.tx_p99_us_window on rmw_hot", Def: "locks taken through a ticket lane per thousand txs"},
	{Name: "hotlock.queue_timeout_per_ktx", Unit: "count", Better: "lower", Kind: "varies", Moves: "model_tx_mean_us, host.tx_p99_us_window on rmw_hot", Def: "queued waiters that gave up per thousand txs"},
	{Name: "hotlock.on_conflict_ns", Unit: "ns", Better: "lower", Kind: "probe", Moves: "cpu_us_per_tx on rmw_hot", Def: "Tracker.OnConflict"},
	{Name: "hotlock.on_acquired_ns", Unit: "ns", Better: "lower", Kind: "probe", Moves: "core.write_ns everywhere", Def: "Tracker.OnAcquired"},
	{Name: "hotlock.queued_ns", Unit: "ns", Better: "lower", Kind: "probe", Moves: "core.write_ns everywhere", Def: "Tracker.Queued"},

	// metrics
	{Name: "metrics.record_phase_ns", Unit: "ns", Better: "lower", Kind: "probe", Moves: "cpu_us_per_tx everywhere (x phases per tx)", Def: "Registry.RecordPhase"},
	{Name: "metrics.count_verb_ns", Unit: "ns", Better: "lower", Kind: "probe", Moves: "cpu_us_per_tx everywhere (x verbs per tx)", Def: "Registry.CountVerb, warm node"},
	{Name: "metrics.snapshot_us", Unit: "us", Better: "lower", Kind: "probe", Moves: "none (off the tx path)", Def: "Registry.Snapshot"},

	// place
	{Name: "place.partition_ns", Unit: "ns", Better: "lower", Kind: "probe", Moves: "core.read_ns, core.write_ns via resolve", Def: "Ring.Partition"},
	{Name: "place.replicas_ns", Unit: "ns", Better: "lower", Kind: "probe", Moves: "core.write_ns via resolve", Def: "Ring.Replicas"},
	{Name: "place.primary_ns", Unit: "ns", Better: "lower", Kind: "probe", Moves: "core.read_ns via resolve", Def: "Ring.Primary"},

	// recovery (failover cycles)
	{Name: "recovery.wall_us", Unit: "us", Better: "lower", Kind: "trace", Moves: "recovery_p50_us", Def: "RecoveryStats.WallTime, mean per cycle"},
	{Name: "recovery.model_us", Unit: "model_us", Better: "lower", Kind: "exact", Moves: "recovery_model_us", Def: "RecoveryStats.VTime, mean per cycle"},
	{Name: "recovery.logged_txs_per_cycle", Unit: "count", Better: "lower", Kind: "exact", Moves: "recovery_p50_us", Def: "RecoveryStats.LoggedTxs per cycle (scripted: 4)"},
	{Name: "recovery.rolled_forward_per_cycle", Unit: "count", Better: "lower", Kind: "exact", Moves: "recovery_p50_us", Def: "RecoveryStats.RolledForward per cycle"},
	{Name: "recovery.rolled_back_per_cycle", Unit: "count", Better: "lower", Kind: "exact", Moves: "recovery_p50_us", Def: "RecoveryStats.RolledBack per cycle"},
	{Name: "recovery.log_bytes_per_cycle", Unit: "B", Better: "lower", Kind: "exact", Moves: "recovery_p50_us, recovery_model_us", Def: "RecoveryStats.LogBytesRead per cycle"},
	{Name: "recovery.steps_per_cycle", Unit: "count", Better: "lower", Kind: "exact", Moves: "recovery_model_us", Def: "recovery-step phase samples per cycle"},
	{Name: "recovery.steal_model_us", Unit: "model_us", Better: "lower", Kind: "exact", Moves: "steal_model_us", Def: "survivor VClock delta of a transfer that steals both locks, mean"},
	{Name: "recovery.steal_tx_us", Unit: "us", Better: "lower", Kind: "trace", Moves: "none end to end (host view of steal_model_us)", Def: "survivor transfer on a pair whose locks the dead coordinator still held, median"},
	{Name: "recovery.rolled_tx_us", Unit: "us", Better: "lower", Kind: "trace", Moves: "none end to end", Def: "survivor transfer on a pair recovery rolled back, median"},
	{Name: "recovery.p90_us", Unit: "us", Better: "lower", Kind: "trace", Moves: "recovery_p50_us", Def: "FailCompute(0) wall time, 90th percentile over all cycles"},
	{Name: "recovery.cpu_us_per_cycle", Unit: "us", Better: "lower", Kind: "trace", Moves: "recovery_p50_us", Def: "process CPU of one whole failover cycle"},
	{Name: "recovery.allocs_per_cycle", Unit: "allocs", Better: "lower", Kind: "trace", Moves: "recovery_p50_us (GC pressure)", Def: "heap allocations of one whole failover cycle"},
	{Name: "recovery.bytes_per_cycle", Unit: "B", Better: "lower", Kind: "trace", Moves: "recovery_p50_us (GC pressure)", Def: "bytes allocated by one whole failover cycle"},

	// memnode / reconfig
	{Name: "memnode.preload_ns_per_key", Unit: "ns", Better: "lower", Kind: "probe", Moves: "setup_s everywhere", Def: "Server.Preload per 16 B item"},
	{Name: "reconfig.add_memory_ms", Unit: "ms", Better: "lower", Kind: "probe", Moves: "none (guard)", Def: "Cluster.AddMemory on a loaded 50 000-key table"},
	{Name: "reconfig.remove_memory_ms", Unit: "ms", Better: "lower", Kind: "probe", Moves: "none (guard)", Def: "Cluster.RemoveMemory of that node"},

	// the host, as the two-session window of the traced run saw it
	{Name: "host.tx_per_s_median_slice", Unit: "tx/s", Better: "higher", Kind: "varies", Moves: "tx_per_s (best slice) when the host is quiet", Def: "committed txs per second, median of the window's slices"},
	{Name: "host.tx_p50_us_window", Unit: "us", Better: "lower", Kind: "varies", Moves: "tx_p50_us (best slice) when the host is quiet", Def: "Update call to return over the whole window, median"},
	{Name: "host.tx_p95_us_slice", Unit: "us", Better: "lower", Kind: "varies", Moves: "none end to end (the tail; too noisy on the reference host to gate)", Def: "same, 95th percentile: lowest of the window's slices"},
	{Name: "host.tx_p99_us_window", Unit: "us", Better: "lower", Kind: "varies", Moves: "none end to end (the tail; too noisy on the reference host to gate)", Def: "same, 99th percentile over the whole window: sits on the share of txs that meet a GC cycle (about 0.02)"},
	{Name: "host.slice_iqr_share", Unit: "ratio", Better: "lower", Kind: "varies", Moves: "none (noise indicator)", Def: "inter-quartile range of the slice rates / their median"},

	// the tracing itself
	{Name: "trace.base_ns_per_tx", Unit: "ns", Better: "lower", Kind: "trace", Moves: "tx_p50_us (single session)", Def: "single-session replay, spans off, wall per tx"},
	{Name: "trace.traced_ns_per_tx", Unit: "ns", Better: "lower", Kind: "trace", Moves: "none (base + tracing overhead)", Def: "same replay, spans on"},
	{Name: "trace.accounted_share", Unit: "ratio", Better: "higher", Kind: "trace", Moves: "none (trace quality)", Def: "sum of span self times / traced wall time"},
}

// manifest is the shape of BENCHMARK.json.
type manifest struct {
	Command    []string          `json:"command"`
	Paths      []string          `json:"paths"`
	RunSeconds int               `json:"run_seconds"`
	Workloads  []workloadSpec    `json:"workloads"`
	EndToEnd   []manifestMetric  `json:"end_to_end"`
	PerLayer   []manifestLayered `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type manifestLayered struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// defaultSeconds is BENCHMARK.json's run_seconds and the default of
// -seconds.
const defaultSeconds = 25

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
		Workloads:  workloadSpecs,
	}
	for _, s := range endToEndSpecs {
		m.EndToEnd = append(m.EndToEnd, manifestMetric{s.Name, s.Unit, s.Better, s.Bound})
	}
	for _, s := range perLayerSpecs {
		m.PerLayer = append(m.PerLayer, manifestLayered{s.Name, s.Unit, s.Better})
	}
	return m
}
