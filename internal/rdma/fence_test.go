package rdma

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pandora/internal/race"
)

func TestEndpointGate(t *testing.T) {
	f := NewFabric(LatencyModel{})
	f.AddNode(0)
	f.AddNode(1)
	f.RegisterRegion(1, 0, 64)

	var alive atomic.Bool
	alive.Store(true)
	ep := f.Endpoint(0).WithGate(alive.Load)
	addr := Addr{Node: 1}

	if err := ep.Write(addr, []byte{1}); err != nil {
		t.Fatal(err)
	}
	alive.Store(false)
	if err := ep.Write(addr, []byte{2}); !errors.Is(err, ErrCrashed) {
		t.Fatalf("gated write err = %v, want ErrCrashed", err)
	}
	if err := ep.Read(addr, make([]byte, 1)); !errors.Is(err, ErrCrashed) {
		t.Fatalf("gated read err = %v", err)
	}
	if _, _, err := ep.CAS(addr, 0, 1); !errors.Is(err, ErrCrashed) {
		t.Fatalf("gated CAS err = %v", err)
	}
	if _, err := ep.FAA(addr, 1); !errors.Is(err, ErrCrashed) {
		t.Fatalf("gated FAA err = %v", err)
	}
	op := &Op{Kind: OpWrite, Addr: addr, Buf: []byte{3}}
	if err := ep.Do(op); !errors.Is(err, ErrCrashed) {
		t.Fatalf("gated batch err = %v", err)
	}

	// An ungated endpoint for the same node is unaffected: the gate is
	// per-incarnation, not per-node.
	if err := f.Endpoint(0).Write(addr, []byte{4}); err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 1)
	_ = f.Endpoint(0).Read(addr, b)
	if b[0] != 4 {
		t.Fatalf("memory = %d, want 4 (gated write must not have landed)", b[0])
	}
}

// TestRevokeFencesInFlightVerbs checks the QP-flush semantics: after
// Revoke returns, no verb from the revoked node can land — even one
// already executing. We approximate "in flight" by hammering writes
// from many goroutines while revoking, then verifying memory never
// changes after the post-revoke snapshot.
func TestRevokeFencesInFlightVerbs(t *testing.T) {
	f := NewFabric(LatencyModel{})
	f.AddNode(0)
	f.AddNode(1)
	f.RegisterRegion(1, 0, 64)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ep := f.Endpoint(0)
			buf := []byte{byte(g + 1)}
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := ep.Write(Addr{Node: 1}, buf); errors.Is(err, ErrRevoked) {
					return
				}
			}
		}(g)
	}
	time.Sleep(2 * time.Millisecond) //pandora:wallclock real-concurrency test: lets the live hammer goroutines race the fence
	f.Revoke(1, 0)
	// Snapshot immediately after Revoke returns: the barrier guarantees
	// every in-flight write has landed, so the byte must never change
	// again.
	snap := make([]byte, 1)
	if err := f.Endpoint(1).Read(Addr{Node: 1}, snap); err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * time.Millisecond) //pandora:wallclock real-concurrency test: lets the live hammer goroutines race the fence
	after := make([]byte, 1)
	if err := f.Endpoint(1).Read(Addr{Node: 1}, after); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if snap[0] != after[0] {
		t.Fatalf("memory changed after revocation barrier: %d -> %d", snap[0], after[0])
	}
}

// TestSetCrashedFencesInFlightVerbs is the same property for the local
// crash flag — the window that let stale applies land in the chaos test
// before the barrier existed.
func TestSetCrashedFencesInFlightVerbs(t *testing.T) {
	f := NewFabric(LatencyModel{})
	f.AddNode(0)
	f.AddNode(1)
	f.RegisterRegion(1, 0, 64)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ep := f.Endpoint(0)
			buf := []byte{byte(g + 1)}
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := ep.Write(Addr{Node: 1}, buf); errors.Is(err, ErrCrashed) {
					return
				}
			}
		}(g)
	}
	time.Sleep(2 * time.Millisecond) //pandora:wallclock real-concurrency test: lets the live hammer goroutines race the fence
	f.SetCrashed(0, true)
	snap := make([]byte, 1)
	if err := f.Endpoint(1).Read(Addr{Node: 1}, snap); err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * time.Millisecond) //pandora:wallclock real-concurrency test: lets the live hammer goroutines race the fence
	after := make([]byte, 1)
	if err := f.Endpoint(1).Read(Addr{Node: 1}, after); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if snap[0] != after[0] {
		t.Fatalf("memory changed after crash barrier: %d -> %d", snap[0], after[0])
	}
}

func TestTransportFaultsMaskedByRC(t *testing.T) {
	f := NewFabric(LatencyModel{BaseRTT: time.Microsecond})
	f.AddNode(0)
	f.AddNode(1)
	f.RegisterRegion(1, 0, 64)
	f.SetFaults(FaultModel{LossProb: 0.4, DupProb: 0.3, Seed: 7})

	var clk VClock
	ep := f.Endpoint(0).WithClock(&clk)
	addr := Addr{Node: 1}

	// Semantics are unaffected: a counter incremented 500 times lands on
	// exactly 500 even with 40% loss and 30% duplication.
	for i := 0; i < 500; i++ {
		if _, err := ep.FAA(addr, 1); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ep.FAA(addr, 0)
	if err != nil || got != 500 {
		t.Fatalf("counter = %d (%v), want 500 — transport faults leaked into semantics", got, err)
	}
	if f.Retransmits() == 0 {
		t.Fatal("no retransmissions recorded at 40% loss")
	}
	if f.DuplicatesDropped() == 0 {
		t.Fatal("no duplicates dropped at 30% duplication")
	}
	// Latency is affected: the virtual clock charges more than the
	// fault-free cost.
	faultFree := 501 * time.Microsecond
	if clk.Now() <= faultFree {
		t.Fatalf("clock %v did not charge retransmissions (fault-free %v)", clk.Now(), faultFree)
	}
	// Deterministic: same seed, same pattern.
	before := f.Retransmits()
	f.SetFaults(FaultModel{LossProb: 0.4, Seed: 7})
	for i := 0; i < 100; i++ {
		_, _ = ep.FAA(addr, 1)
	}
	a := f.Retransmits() - before
	f.SetFaults(FaultModel{LossProb: 0.4, Seed: 7})
	base2 := f.Retransmits()
	for i := 0; i < 100; i++ {
		_, _ = ep.FAA(addr, 1)
	}
	if b := f.Retransmits() - base2; a != b {
		t.Fatalf("fault pattern not reproducible: %d vs %d retransmits", a, b)
	}
}

// TestRevokeFencesParallelFanout is the QP-flush property for batches:
// several hammers issue multi-node fan-outs at once, and Revoke must
// linearize against every in-flight verb targeting the revoked node
// while the verbs to the other nodes go on.
func TestRevokeFencesParallelFanout(t *testing.T) {
	const nodes = 4
	f := NewFabric(LatencyModel{})
	f.AddNode(0)
	for i := 1; i <= nodes; i++ {
		f.AddNode(NodeID(i))
		f.RegisterRegion(NodeID(i), 0, 8<<10)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ep := f.Endpoint(0)
			buf := make([]byte, 4<<10)
			for i := range buf {
				buf[i] = byte(g + 1)
			}
			ops := make([]*Op, nodes)
			for i := range ops {
				ops[i] = &Op{Kind: OpWrite, Addr: Addr{Node: NodeID(i + 1)}, Buf: buf}
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = ep.Do(ops...) // node 1 starts failing after the revoke
			}
		}(g)
	}
	time.Sleep(2 * time.Millisecond) //pandora:wallclock real-concurrency test: lets the live hammer goroutines race the fence
	f.Revoke(1, 0)
	// After Revoke returns, the barrier guarantees every in-flight verb
	// to node 1 has landed; its memory must never change again, even
	// while the hammer keeps writing to nodes 2..4.
	snap := make([]byte, 1)
	if err := f.Endpoint(1).Read(Addr{Node: 1}, snap); err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * time.Millisecond) //pandora:wallclock real-concurrency test: lets the live hammer goroutines race the fence
	after := make([]byte, 1)
	if err := f.Endpoint(1).Read(Addr{Node: 1}, after); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if snap[0] != after[0] {
		t.Fatalf("memory changed after revocation barrier: %d -> %d", snap[0], after[0])
	}
}

// TestSetCrashedFencesParallelFanout: the issuer-side crash fence must
// cover every barrier shard (fenceAll), because the crashed node's
// endpoints have verbs in flight toward several nodes at once.
func TestSetCrashedFencesParallelFanout(t *testing.T) {
	const nodes = 4
	f := NewFabric(LatencyModel{})
	f.AddNode(0)
	for i := 1; i <= nodes; i++ {
		f.AddNode(NodeID(i))
		f.RegisterRegion(NodeID(i), 0, 8<<10)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ep := f.Endpoint(0)
			buf := make([]byte, 4<<10)
			for i := range buf {
				buf[i] = byte(g + 1)
			}
			ops := make([]*Op, nodes)
			for i := range ops {
				ops[i] = &Op{Kind: OpWrite, Addr: Addr{Node: NodeID(i + 1)}, Buf: buf}
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := ep.Do(ops...); errors.Is(err, ErrCrashed) {
					return
				}
			}
		}(g)
	}
	time.Sleep(2 * time.Millisecond) //pandora:wallclock real-concurrency test: lets the live hammer goroutines race the fence
	f.SetCrashed(0, true)
	// All shards were fenced: no verb of the crashed issuer may land on
	// ANY node after SetCrashed returns.
	snap := make([]byte, nodes)
	for i := 1; i <= nodes; i++ {
		if err := f.Endpoint(NodeID(i)).Read(Addr{Node: NodeID(i)}, snap[i-1:i]); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(2 * time.Millisecond) //pandora:wallclock real-concurrency test: lets the live hammer goroutines race the fence
	for i := 1; i <= nodes; i++ {
		after := make([]byte, 1)
		if err := f.Endpoint(NodeID(i)).Read(Addr{Node: NodeID(i)}, after); err != nil {
			t.Fatal(err)
		}
		if snap[i-1] != after[0] {
			t.Fatalf("node %d memory changed after crash fence: %d -> %d", i, snap[i-1], after[0])
		}
	}
	close(stop)
	wg.Wait()
}

// TestDoSameNodeOrdering: ops to the same destination share a queue
// pair, so a Do batch executes them in posting order — the lock-CAS /
// slot-READ doorbell of the commit path depends on it.
func TestDoSameNodeOrdering(t *testing.T) {
	f := NewFabric(LatencyModel{})
	f.AddNode(0)
	f.AddNode(1)
	f.RegisterRegion(1, 0, 64<<10)

	ep := f.Endpoint(0)
	// CAS then READ of the same word: the READ must observe the swap.
	got := make([]byte, 8)
	cas := &Op{Kind: OpCAS, Addr: Addr{Node: 1}, Expect: 0, Swap: 0xbeef}
	read := &Op{Kind: OpRead, Addr: Addr{Node: 1}, Buf: got}
	if err := ep.Do(cas, read); err != nil {
		t.Fatal(err)
	}
	if !cas.Swapped {
		t.Fatal("CAS did not swap")
	}
	if v := uint64(got[0]) | uint64(got[1])<<8; v != 0xbeef {
		t.Fatalf("READ after CAS in one batch saw %#x, want 0xbeef", v)
	}

	// The same with large payloads: WRITE then READ of 16 KiB.
	src := make([]byte, 16<<10)
	for i := range src {
		src[i] = 0x5a
	}
	dst := make([]byte, 16<<10)
	w := &Op{Kind: OpWrite, Addr: Addr{Node: 1, Offset: 4096}, Buf: src}
	r := &Op{Kind: OpRead, Addr: Addr{Node: 1, Offset: 4096}, Buf: dst}
	if err := ep.Do(w, r); err != nil {
		t.Fatal(err)
	}
	for i := range dst {
		if dst[i] != 0x5a {
			t.Fatalf("byte %d: READ saw %#x before its same-QP WRITE landed", i, dst[i])
		}
	}
}

// TestWarmEndpointSurvivesFences: handles live in the fabric's table and
// rights are read per verb, so one long-lived endpoint sees every fence
// while it holds and nothing of it afterwards — the verb after a
// transition, either way, is an ordinary verb and allocates nothing —
// and it reaches a region registered after its first verb.
func TestWarmEndpointSurvivesFences(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as testing.AllocsPerRun: nobody else allocates meanwhile
	f := NewFabric(LatencyModel{})
	f.AddNode(0)
	f.AddNode(1)
	f.RegisterRegion(1, 0, 64)
	ep := f.Endpoint(0)
	buf := make([]byte, 8)

	// verb posts one READ and checks its outcome and, unlike
	// AllocsPerRun, the allocations of this first call.
	var before, after runtime.MemStats
	verb := func(when string, region RegionID, want error) {
		t.Helper()
		runtime.ReadMemStats(&before)
		err := ep.Read(Addr{Node: 1, Region: region}, buf)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, want) {
			t.Fatalf("%s: err = %v, want %v", when, err, want)
		}
		if n := after.Mallocs - before.Mallocs; n > 0 && !race.Enabled {
			t.Errorf("%s: the verb allocated %d times, want 0", when, n)
		}
	}
	if err := ep.Read(Addr{Node: 1}, buf); err != nil { // warm
		t.Fatal(err)
	}

	fences := []struct {
		name        string
		fence, lift func()
		err         error
	}{
		{"Revoke", func() { f.Revoke(1, 0) }, func() { f.Restore(1, 0) }, ErrRevoked},
		{"SetDown", func() { f.SetDown(1, true) }, func() { f.SetDown(1, false) }, ErrNodeDown},
		{"SetCrashed", func() { f.SetCrashed(0, true) }, func() { f.SetCrashed(0, false) }, ErrCrashed},
		{"PowerFail", func() { f.PowerFail(1) }, func() { f.SetDown(1, false) }, ErrNodeDown},
	}
	for _, fc := range fences {
		fc.fence()
		verb("under "+fc.name, 0, fc.err)
		fc.lift()
		verb("after "+fc.name, 0, nil)
	}

	verb("before the late registration", 7, ErrNoRegion)
	f.RegisterRegion(1, 7, 64)
	verb("after the late registration", 7, nil)
}
