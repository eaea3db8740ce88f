package main

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"time"

	pandora "pandora"
	"pandora/internal/cache"
	"pandora/internal/hotlock"
	"pandora/internal/kvlayout"
	"pandora/internal/memnode"
	"pandora/internal/metrics"
	"pandora/internal/place"
	"pandora/internal/rdma"
)

// Probes call one layer's exported functions in a loop, outside any
// transaction. They bound what a layer can cost per call; the traced
// workloads say how many calls a transaction makes.

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink uint64

// probeNS times fn over five batches of iters/5 calls and returns the
// median batch's nanoseconds per call.
func probeNS(iters int, fn func(i int)) float64 {
	const batches = 5
	per := iters / batches
	if per < 1 {
		per = 1
	}
	var ns []float64
	for b := 0; b < batches; b++ {
		t0 := time.Now()
		for i := 0; i < per; i++ {
			fn(b*per + i)
		}
		ns = append(ns, float64(time.Since(t0))/float64(per))
	}
	return median(ns)
}

// allocsPer returns the heap allocations of one fn call, averaged over
// n calls after one warm-up call.
func allocsPer(n int, fn func()) float64 {
	fn()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

// runProbes fills out with every probe metric. scale shrinks the
// iteration counts (and the reconfig table) for the smoke test.
func runProbes(scale float64, out map[string]float64) error {
	n := func(iters int) int {
		if s := int(float64(iters) * scale); s > 50 {
			return s
		}
		return 50
	}
	probeRDMA(n, out)
	probeLayout(n, out)
	probeCache(n, out)
	probeHotlock(n, out)
	probeMetrics(n, out)
	if err := probePlaceAndMemnode(n, out); err != nil {
		return err
	}
	if err := probeCore(n, out); err != nil {
		return err
	}
	return probeReconfig(n(50000), out)
}

func probeRDMA(n func(int) int, out map[string]float64) {
	const regionSize = 1 << 20
	f := rdma.NewFabric(rdma.DefaultLatency())
	f.AddNode(0)
	for id := rdma.NodeID(1); id <= 2; id++ {
		f.AddNode(id)
		f.RegisterRegion(id, 0, regionSize)
	}
	var clk rdma.VClock
	ep := f.Endpoint(0).WithClock(&clk)
	buf := make([]byte, 64)
	at := func(i int) rdma.Addr {
		return rdma.Addr{Node: rdma.NodeID(1 + i&1), Offset: uint64(i*64) % regionSize}
	}
	out["rdma.read64_ns"] = probeNS(n(200000), func(i int) { _ = ep.Read(at(i), buf) })
	out["rdma.write64_ns"] = probeNS(n(200000), func(i int) { _ = ep.Write(at(i), buf) })
	word := rdma.Addr{Node: 1, Offset: regionSize - 8}
	out["rdma.cas_ns"] = probeNS(n(200000), func(i int) {
		old, _, _ := ep.CAS(word, uint64(i), uint64(i+1))
		sink += old
	})
	out["rdma.faa_ns"] = probeNS(n(200000), func(i int) {
		old, _ := ep.FAA(word, 1)
		sink += old
	})

	// doK posts one pooled batch of k ops (READ, WRITE, CAS, READ, ...)
	// spread over both memory nodes: the commit path's doorbell shape.
	doK := func(ep *rdma.Endpoint, k, i int, spread bool) {
		b := rdma.GetBatch()
		for j := 0; j < k; j++ {
			a := rdma.Addr{Node: 1, Offset: 0}
			if spread {
				a = at(i*k + j)
			}
			switch j % 4 {
			case 1:
				b.AddWrite(a, b.Bytes(64))
			case 2:
				a.Offset &^= 7
				b.AddCAS(a, 0, 0)
			default:
				b.AddRead(a, b.Bytes(64))
			}
		}
		_ = ep.Do(b.Ops()...)
		b.Put()
	}
	out["rdma.do1_ns"] = probeNS(n(200000), func(i int) { doK(ep, 1, i, true) })
	out["rdma.do4_ns"] = probeNS(n(100000), func(i int) { doK(ep, 4, i, true) })
	out["rdma.do16_ns"] = probeNS(n(50000), func(i int) { doK(ep, 16, i, true) })
	out["rdma.do4_allocs"] = allocsPer(n(20000), func() { doK(ep, 4, 1, true) })

	addrs := make([]rdma.Addr, 16)
	out["rdma.readbatch16_ns"] = probeNS(n(50000), func(i int) {
		for j := range addrs {
			addrs[j] = at(i*16 + j)
		}
		b := rdma.GetBatch()
		_, _ = ep.ReadBatch(b, addrs, 64)
		b.Put()
	})

	// Two goroutines, each with its own endpoint, hammer one 64-byte
	// stripe of node 1.
	iters := n(100000)
	var wg sync.WaitGroup
	t0 := time.Now()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ep := f.Endpoint(0)
			for i := 0; i < iters; i++ {
				doK(ep, 4, i, false)
			}
		}()
	}
	wg.Wait()
	out["rdma.do4_contended_ns"] = float64(time.Since(t0)) / float64(iters)
}

func probeLayout(n func(int) int, out map[string]float64) {
	tab := kvlayout.Table{ValueSize: 16, Slots: 1024}
	buf := make([]byte, tab.SlotSize())
	val := make([]byte, 16)
	out["kvlayout.encode_slot_ns"] = probeNS(n(1000000), func(i int) {
		tab.EncodeSlot(buf, kvlayout.Slot{Version: uint64(i), Key: kvlayout.Key(i), Present: true, Value: val})
	})
	out["kvlayout.decode_slot_ns"] = probeNS(n(1000000), func(i int) {
		sink += tab.DecodeSlot(buf).Version
	})
	rec := kvlayout.LogRecord{TxID: 7, Coord: 3, Writes: []kvlayout.LogWrite{
		{Partition: 1, Slot: 10, Key: 1, OldVersion: 1, NewVersion: 2, OldValue: val},
		{Partition: 2, Slot: 20, Key: 2, OldVersion: 5, NewVersion: 6, OldValue: val},
	}}
	var enc []byte
	out["kvlayout.logrec_encode_ns"] = probeNS(n(500000), func(i int) {
		rec.TxID = uint64(i)
		enc = rec.Encode()
	})
	out["kvlayout.logrec_encode_allocs"] = allocsPer(n(20000), func() { enc = rec.Encode() })
	out["kvlayout.logrec_decode_ns"] = probeNS(n(500000), func(i int) {
		r, _ := kvlayout.DecodeLogRecord(enc)
		sink += r.TxID
	})
}

func probeCache(n func(int) int, out map[string]float64) {
	c := cache.New(cache.DefaultEntries)
	val := make([]byte, 40)
	for k := 0; k < cache.DefaultEntries/2; k++ {
		c.Put(0, kvlayout.Key(k), 0, uint64(k), 1, val, 0)
	}
	// Half-full and 4-way, a few sets still overflow: probe only keys
	// that are resident.
	var resident []kvlayout.Key
	for k := 0; k < cache.DefaultEntries/2; k++ {
		if _, ok := c.Get(0, kvlayout.Key(k), 0); ok {
			resident = append(resident, kvlayout.Key(k))
		}
	}
	out["cache.get_hit_ns"] = probeNS(n(1000000), func(i int) {
		v, _ := c.Get(0, resident[i%len(resident)], 0)
		sink += v.Version
	})
	out["cache.get_miss_ns"] = probeNS(n(1000000), func(i int) {
		if _, ok := c.Get(0, kvlayout.Key(1<<40+i), 0); ok {
			sink++
		}
	})
	out["cache.put_ns"] = probeNS(n(1000000), func(i int) {
		c.Put(0, kvlayout.Key(1<<20+i), 0, uint64(i), 1, val, 0)
	})
}

func probeHotlock(n func(int) int, out map[string]float64) {
	t := hotlock.NewTracker(0)
	out["hotlock.on_conflict_ns"] = probeNS(n(1000000), func(i int) {
		if t.OnConflict(0, kvlayout.Key(i&1023)) {
			sink++
		}
	})
	out["hotlock.on_acquired_ns"] = probeNS(n(1000000), func(i int) {
		if t.OnAcquired(0, kvlayout.Key(i&1023)) {
			sink++
		}
	})
	out["hotlock.queued_ns"] = probeNS(n(1000000), func(i int) {
		if t.Queued(0, kvlayout.Key(i&1023)) {
			sink++
		}
	})
}

func probeMetrics(n func(int) int, out map[string]float64) {
	r := metrics.New()
	out["metrics.record_phase_ns"] = probeNS(n(1000000), func(i int) {
		r.RecordPhase(metrics.PhaseRead, 3, time.Duration(2000+i&1023))
	})
	out["metrics.count_verb_ns"] = probeNS(n(1000000), func(i int) {
		r.CountVerb(1000, metrics.VerbRead, false, metrics.VerbOK)
	})
	out["metrics.snapshot_us"] = probeNS(n(2000), func(i int) {
		sink += r.Snapshot().Drain.CommitRounds
	}) / 1e3
}

func probePlaceAndMemnode(n func(int) int, out map[string]float64) error {
	members := []rdma.NodeID{1000, 1001, 1002}
	ring := place.New(members, 2, 16)
	out["place.partition_ns"] = probeNS(n(1000000), func(i int) { sink += uint64(ring.Partition(kvlayout.Key(i))) })
	out["place.replicas_ns"] = probeNS(n(1000000), func(i int) { sink += uint64(ring.Replicas(uint32(i & 15))[0]) })
	alive := func(rdma.NodeID) bool { return true }
	out["place.primary_ns"] = probeNS(n(1000000), func(i int) {
		p, _ := ring.Primary(uint32(i&15), alive)
		sink += uint64(p)
	})

	// Preload one partition's share of a table on its primary.
	keys := n(100000)
	schema := []kvlayout.Table{{ID: 0, ValueSize: 16, Slots: 1 << 15}} // 3x the 6250 keys a partition gets, like pandora.New
	fab := rdma.NewFabric(rdma.LatencyModel{})
	srv := memnode.NewServer(fab, ring.Replicas(0)[0], ring, schema)
	val := make([]byte, 16)
	var items []memnode.Item
	for k := 0; k < keys; k++ {
		if ring.Partition(kvlayout.Key(k)) == 0 {
			items = append(items, memnode.Item{Key: kvlayout.Key(k), Value: val})
		}
	}
	t0 := time.Now()
	if _, err := srv.Preload(0, 0, items); err != nil {
		return fmt.Errorf("memnode probe: %w", err)
	}
	out["memnode.preload_ns_per_key"] = float64(time.Since(t0)) / float64(len(items))
	return nil
}

// probeCore times Tx.Commit alone on a warm coordinator, reached through
// Cluster.Engine(0).Coordinator(0): the read and the two eager-locking
// writes run untimed before each commit.
func probeCore(n func(int) int, out map[string]float64) error {
	const keys = 4096
	t0 := time.Now()
	c, err := pandora.New(clusterConfig(wlTransfer, keys))
	out["pandora.new_ms"] = float64(time.Since(t0)) / 1e6
	if err != nil {
		return fmt.Errorf("core probe: %w", err)
	}
	defer c.Close()
	val := make([]byte, 16)
	if err := c.LoadN("acct", keys, func(pandora.Key) []byte { return val }); err != nil {
		return fmt.Errorf("core probe: %w", err)
	}
	table := c.TableID("acct")
	co := c.Engine(0).Coordinator(0)
	var firstErr error
	commit := func(i int, writes bool) time.Duration {
		k := kvlayout.Key(3 * (i % (keys / 3)))
		tx := co.Begin()
		_, err := tx.Read(table, k)
		if err == nil && writes {
			binary.LittleEndian.PutUint64(val, uint64(i))
			if err = tx.Write(table, k+1, val); err == nil {
				err = tx.Write(table, k+2, val)
			}
		}
		if err != nil {
			_ = tx.Abort()
			if firstErr == nil {
				firstErr = err
			}
			return 0
		}
		t0 := time.Now()
		err = tx.Commit()
		d := time.Since(t0)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		return d
	}
	timed := func(iters int, writes bool) float64 {
		for i := 0; i < iters/4; i++ { // warm the address cache and pools
			commit(i, writes)
		}
		var h hist
		for i := 0; i < iters; i++ {
			h.record(int64(commit(i, writes)))
		}
		return h.quantile(0.5)
	}
	out["core.commit_1r2w_sync_ns"] = timed(n(40000), true)
	out["core.commit_ro_ns_probe"] = timed(n(40000), false)

	// Allocations of Commit alone: MemStats read around each call.
	var a, b runtime.MemStats
	var mallocs uint64
	iters := n(2000)
	for i := 0; i < iters; i++ {
		k := kvlayout.Key(3 * (i % (keys / 3)))
		tx := co.Begin()
		_, _ = tx.Read(table, k)
		_ = tx.Write(table, k+1, val)
		_ = tx.Write(table, k+2, val)
		runtime.ReadMemStats(&a)
		err := tx.Commit()
		runtime.ReadMemStats(&b)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		mallocs += b.Mallocs - a.Mallocs
	}
	out["core.commit_1r2w_allocs"] = float64(mallocs) / float64(iters)

	c.Engine(0).SetAsyncCommitBack(true)
	out["core.commit_1r2w_async_ns"] = timed(n(40000), true)
	c.Engine(0).FlushDrains()
	c.Engine(0).SetAsyncCommitBack(false)
	if firstErr != nil {
		return fmt.Errorf("core probe: %w", firstErr)
	}
	return nil
}

// probeReconfig times adding a memory node to, and removing it from, a
// loaded cluster.
func probeReconfig(keys int, out map[string]float64) error {
	c, err := buildCluster(wlTransfer, keys)
	if err != nil {
		return fmt.Errorf("reconfig probe: %w", err)
	}
	defer c.Close()
	t0 := time.Now()
	idx, err := c.AddMemory()
	if err != nil {
		return fmt.Errorf("reconfig probe: AddMemory: %w", err)
	}
	out["reconfig.add_memory_ms"] = float64(time.Since(t0)) / 1e6
	t0 = time.Now()
	if err := c.RemoveMemory(idx); err != nil {
		return fmt.Errorf("reconfig probe: RemoveMemory: %w", err)
	}
	out["reconfig.remove_memory_ms"] = float64(time.Since(t0)) / 1e6
	return nil
}
