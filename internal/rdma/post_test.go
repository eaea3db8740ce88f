package rdma

import (
	"testing"
	"time"
)

// Post and Wait (endpoint.go): a posted doorbell's verbs land at once and
// its charge waits; the next Wait, or a Do, charges everything
// outstanding as one doorbell.

// postFabric is a fault-free fabric with memory nodes 1..nodes and an
// endpoint on node 0 charging a fresh clock.
func postFabric(nodes int) (*Fabric, LatencyModel) {
	lat := LatencyModel{BaseRTT: 2 * time.Microsecond, BytesPerSec: 1 << 30}
	f := NewFabric(lat)
	f.AddNode(0)
	for i := 1; i <= nodes; i++ {
		f.AddNode(NodeID(i))
		f.RegisterRegion(NodeID(i), 0, 64<<10)
	}
	return f, lat
}

// lockOps is the lock doorbell's shape on node: a CAS of the lock word,
// then a READ of the 40-byte slot behind it.
func lockOps(node NodeID) []*Op {
	return []*Op{
		{Kind: OpCAS, Addr: Addr{Node: node}, Swap: 1},
		{Kind: OpRead, Addr: Addr{Node: node}, Buf: make([]byte, 40)},
	}
}

// doCharge is what one Do of ops charges on a fresh fabric of the shape.
func doCharge(t *testing.T, nodes int, ops []*Op) time.Duration {
	t.Helper()
	f, _ := postFabric(nodes)
	var clk VClock
	if err := f.Endpoint(0).WithClock(&clk).Do(ops...); err != nil {
		t.Fatal(err)
	}
	return clk.Now()
}

// TestPostThenWaitChargesTheUnion: two lock doorbells posted to distinct
// nodes and then waited for charge exactly what one Do of both charges —
// the larger of the two — and so do two posted to one node, which
// pipeline on its queue pair. Post alone charges nothing, but the verbs
// have landed.
func TestPostThenWaitChargesTheUnion(t *testing.T) {
	for _, tc := range []struct {
		name string
		a, b NodeID
	}{{"distinct", 1, 2}, {"same", 1, 1}} {
		t.Run(tc.name, func(t *testing.T) {
			f, lat := postFabric(2)
			var clk VClock
			ep := f.Endpoint(0).WithClock(&clk)
			a, b := lockOps(tc.a), lockOps(tc.b)
			b[0].Addr.Offset, b[1].Addr.Offset = 64, 64
			if err := ep.Post(a...); err != nil {
				t.Fatal(err)
			}
			if err := ep.Post(b...); err != nil {
				t.Fatal(err)
			}
			if clk.Now() != 0 {
				t.Fatalf("Post charged %v before any wait", clk.Now())
			}
			if !a[0].Swapped || !b[0].Swapped {
				t.Fatal("a posted CAS has not landed")
			}
			ep.Wait()
			want := doCharge(t, 2, append(lockOps(tc.a), lockOps(tc.b)...))
			if clk.Now() != want {
				t.Fatalf("post, post, wait charged %v; one Do of the union charges %v", clk.Now(), want)
			}
			// Distinct nodes: the larger of two equal doorbells. One node: the
			// second pipelines behind the first on its queue pair.
			one, union := doCharge(t, 2, lockOps(1)), want
			if tc.a == tc.b {
				union -= one - lat.BaseRTT
			}
			if union != one {
				t.Fatalf("union charged %v for doorbells of %v each", want, one)
			}
			ep.Wait()
			if clk.Now() != want {
				t.Fatalf("a second wait charged %v more", clk.Now()-want)
			}
		})
	}
}

// TestDoBehindPostChargesTheUnionOnce: a Do — and a single verb, which is
// a Do of one op — issued while a doorbell is outstanding waits for it
// too, and charges the union once; nothing is left for the next Wait.
func TestDoBehindPostChargesTheUnionOnce(t *testing.T) {
	f, _ := postFabric(2)
	var clk VClock
	ep := f.Endpoint(0).WithClock(&clk)
	if err := ep.Post(lockOps(1)...); err != nil {
		t.Fatal(err)
	}
	read := &Op{Kind: OpRead, Addr: Addr{Node: 2, Offset: 128}, Buf: make([]byte, 4096)}
	if err := ep.Do(read); err != nil {
		t.Fatal(err)
	}
	want := doCharge(t, 2, append(lockOps(1), &Op{Kind: OpRead, Addr: Addr{Node: 2, Offset: 128}, Buf: make([]byte, 4096)}))
	if clk.Now() != want {
		t.Fatalf("Do behind a post charged %v, want the union's %v", clk.Now(), want)
	}
	ep.Wait()
	if clk.Now() != want {
		t.Fatalf("the wait after the Do charged %v more", clk.Now()-want)
	}

	if err := ep.Post(lockOps(1)...); err != nil {
		t.Fatal(err)
	}
	before := clk.Now()
	if err := ep.Write(Addr{Node: 1, Offset: 256}, make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	single := doCharge(t, 2, append(lockOps(1), &Op{Kind: OpWrite, Addr: Addr{Node: 1, Offset: 256}, Buf: make([]byte, 8)}))
	if got := clk.Now() - before; got != single {
		t.Fatalf("a single verb behind a post charged %v, want the union's %v", got, single)
	}
}

// TestCopiesShareNothingOutstanding: an endpoint's With* copy starts with
// nothing outstanding, and its doorbells leave the original's alone.
func TestCopiesShareNothingOutstanding(t *testing.T) {
	f, _ := postFabric(1)
	var clk, other VClock
	ep := f.Endpoint(0).WithClock(&clk)
	if err := ep.Post(lockOps(1)...); err != nil {
		t.Fatal(err)
	}
	cp := ep.WithClock(&other)
	if err := cp.Write(Addr{Node: 1, Offset: 256}, make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	if clk.Now() != 0 {
		t.Fatalf("a copy's verb charged the original's outstanding doorbell: %v", clk.Now())
	}
	ep.Wait()
	if want := doCharge(t, 1, lockOps(1)); clk.Now() != want {
		t.Fatalf("wait charged %v, want %v", clk.Now(), want)
	}
}
