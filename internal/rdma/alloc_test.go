package rdma

import (
	"runtime"
	"testing"
	"time"

	"pandora/internal/race"
)

// skipIfRace skips allocation-count assertions under the race detector:
// its instrumentation allocates inside sync.Pool and channel operations,
// so AllocsPerRun is meaningless there. The skip message names the
// contract the test guards so a -race log still shows what was deferred
// to the no-race CI lane.
func skipIfRace(t *testing.T, contract string) {
	t.Helper()
	if race.Enabled {
		t.Skipf("-race instrumentation allocates; %s is enforced by the no-race lane", contract)
	}
}

func allocFabric(nodes, regionSize int) *Fabric {
	f := NewFabric(LatencyModel{BaseRTT: time.Microsecond, BytesPerSec: 1e9})
	f.AddNode(0)
	for i := 1; i <= nodes; i++ {
		f.AddNode(NodeID(i))
		f.RegisterRegion(NodeID(i), 0, regionSize)
	}
	return f
}

// TestSingleVerbsZeroAlloc: each single-verb helper must be heap-free in
// steady state — they run once per slot probe / lock attempt.
func TestSingleVerbsZeroAlloc(t *testing.T) {
	skipIfRace(t, "the single-verb zero-alloc contract (one fabric verb, zero heap allocations)")
	f := allocFabric(1, 1<<16)
	var clk VClock
	ep := f.Endpoint(0).WithClock(&clk)
	buf := make([]byte, 64)

	cases := []struct {
		name string
		fn   func()
	}{
		{"Write", func() {
			if err := ep.Write(Addr{Node: 1}, buf); err != nil {
				t.Fatal(err)
			}
		}},
		{"Read", func() {
			if err := ep.Read(Addr{Node: 1}, buf); err != nil {
				t.Fatal(err)
			}
		}},
		{"CAS", func() {
			if _, _, err := ep.CAS(Addr{Node: 1, Offset: 128}, 0, 0); err != nil {
				t.Fatal(err)
			}
		}},
		{"FAA", func() {
			if _, err := ep.FAA(Addr{Node: 1, Offset: 136}, 1); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		tc.fn() // warm up
		if n := testing.AllocsPerRun(200, tc.fn); n > 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", tc.name, n)
		}
	}
}

// TestPooledBatchesZeroAlloc covers the commit hot path's batch shapes:
// lock-and-read (validate), replicated apply (applyWrites), log append +
// flush (writePandoraLog), and unlock. Built through GetBatch with
// arena-backed buffers, each must settle to zero heap allocations per
// batch once the pool is warm.
func TestPooledBatchesZeroAlloc(t *testing.T) {
	skipIfRace(t, "the pooled-batch zero-alloc contract (commit hot-path batches settle to zero allocs once the pool is warm)")
	f := allocFabric(3, 1<<16)
	f.EnablePersistence()
	var clk VClock
	ep := f.Endpoint(0).WithClock(&clk)

	cases := []struct {
		name string
		fn   func()
	}{
		{"lock-read", func() { // validate(): CAS lock word + read version
			b := GetBatch()
			for n := 1; n <= 3; n++ {
				b.AddCAS(Addr{Node: NodeID(n)}, 0, 0)
				b.AddRead(Addr{Node: NodeID(n), Offset: 8}, b.Bytes(16))
			}
			if err := ep.Do(b.Ops()...); err != nil {
				t.Fatal(err)
			}
			b.Put()
		}},
		{"replicated-write", func() { // applyWrites(): payload shared across replicas
			b := GetBatch()
			payload := b.Bytes(72)
			for n := 1; n <= 3; n++ {
				b.AddWrite(Addr{Node: NodeID(n), Offset: 256}, payload)
			}
			if err := ep.Do(b.Ops()...); err != nil {
				t.Fatal(err)
			}
			b.Put()
		}},
		{"log-flush", func() { // writePandoraLog(): append records then flush
			b := GetBatch()
			rec := b.Bytes(128)
			for n := 1; n <= 3; n++ {
				b.AddWrite(Addr{Node: NodeID(n), Offset: 1024}, rec)
			}
			if err := ep.Do(b.Ops()...); err != nil {
				t.Fatal(err)
			}
			wn := b.Len()
			for n := 1; n <= 3; n++ {
				b.AddFlush(Addr{Node: NodeID(n), Offset: 1024}, 128)
			}
			if err := ep.Do(b.Ops()[wn:]...); err != nil {
				t.Fatal(err)
			}
			b.Put()
		}},
		{"unlock", func() { // unlockAll(): zero the lock words
			b := GetBatch()
			zero := b.Bytes(8)
			for n := 1; n <= 3; n++ {
				b.AddWrite(Addr{Node: NodeID(n)}, zero)
			}
			if err := ep.Do(b.Ops()...); err != nil {
				t.Fatal(err)
			}
			b.Put()
		}},
	}
	for _, tc := range cases {
		tc.fn() // warm the pool
		if n := testing.AllocsPerRun(200, tc.fn); n > 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", tc.name, n)
		}
	}
}

// fanoutBatch posts one pooled batch of a size-byte WRITE to each of
// nodes 1..nodes: the replicated-apply shape, scaled up.
func fanoutBatch(t *testing.T, ep *Endpoint, nodes, size int) {
	b := GetBatch()
	for n := 1; n <= nodes; n++ {
		b.AddWrite(Addr{Node: NodeID(n)}, b.Bytes(size))
	}
	if err := ep.Do(b.Ops()...); err != nil {
		t.Fatal(err)
	}
	b.Put()
}

// TestFanoutZeroAlloc: a large multi-node fan-out is posted like any
// other batch — on the caller's goroutine, out of the pooled batch — so
// it allocates nothing either.
func TestFanoutZeroAlloc(t *testing.T) {
	skipIfRace(t, "the fan-out zero-alloc contract (an 8-node x 4 KiB pooled batch, zero heap allocations)")
	f := allocFabric(8, 1<<20)
	var clk VClock
	ep := f.Endpoint(0).WithClock(&clk)
	run := func() { fanoutBatch(t, ep, 8, 4096) }
	run() // warm the pool
	if n := testing.AllocsPerRun(100, run); n > 0 {
		t.Errorf("8-node fan-out: %.1f allocs/op, want 0", n)
	}
}

// TestDoSpawnsNoGoroutines: Do runs on the goroutine that called it,
// whatever the batch's size and spread. A dispatcher would show here as
// workers left behind by the first large fan-out.
func TestDoSpawnsNoGoroutines(t *testing.T) {
	f := allocFabric(8, 1<<20)
	ep := f.Endpoint(0)
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		fanoutBatch(t, ep, 8, 32<<10)
	}
	// ">", not "!=": an earlier test's goroutine may still be exiting.
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines: %d before the fan-outs, %d after", before, after)
	}
}

// TestPostWaitZeroAlloc: two lock doorbells posted to distinct nodes and
// waited for together allocate nothing once the endpoint's outstanding
// set has grown to fit them.
func TestPostWaitZeroAlloc(t *testing.T) {
	skipIfRace(t, "the post+wait zero-alloc contract (two posted lock doorbells and one wait, zero heap allocations)")
	f := allocFabric(2, 1<<16)
	var clk VClock
	ep := f.Endpoint(0).WithClock(&clk)
	run := func() {
		var bs [2]*OpBatch
		for i := range bs {
			b := GetBatch()
			b.AddCAS(Addr{Node: NodeID(i + 1)}, 0, 0)
			b.AddRead(Addr{Node: NodeID(i + 1), Offset: 8}, b.Bytes(40))
			if err := ep.Post(b.Ops()...); err != nil {
				t.Fatal(err)
			}
			bs[i] = b
		}
		ep.Wait()
		for _, b := range bs {
			b.Put()
		}
	}
	run() // warm the pool and the outstanding set
	if n := testing.AllocsPerRun(200, run); n > 0 {
		t.Errorf("post, post, wait: %.1f allocs/op, want 0", n)
	}
}
