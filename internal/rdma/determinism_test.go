package rdma

import (
	"testing"
	"time"
)

// runDeterminismWorkload drives one fixed mixed workload — single verbs,
// small batches, and large multi-node fan-outs — against a fresh fabric
// with seeded transport faults, and returns the charged virtual time
// plus the fault counters.
func runDeterminismWorkload(t *testing.T, seed uint64) (time.Duration, int64, int64) {
	t.Helper()
	const nodes = 4
	f := NewFabric(LatencyModel{BaseRTT: 2 * time.Microsecond, BytesPerSec: 1 << 30})
	f.AddNode(0)
	for i := 1; i <= nodes; i++ {
		f.AddNode(NodeID(i))
		f.RegisterRegion(NodeID(i), 0, 64<<10)
	}
	f.SetFaults(FaultModel{LossProb: 0.2, DupProb: 0.1, Seed: seed})

	var clk VClock
	ep := f.Endpoint(0).WithClock(&clk)
	small := make([]byte, 64)
	big := make([]byte, 16<<10)
	for round := 0; round < 50; round++ {
		// Single verbs.
		if err := ep.Write(Addr{Node: 1, Offset: 128}, small); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ep.CAS(Addr{Node: 2}, uint64(round), uint64(round+1)); err != nil {
			t.Fatal(err)
		}
		// Small multi-node batch.
		b := GetBatch()
		b.AddRead(Addr{Node: 1, Offset: 128}, b.Bytes(64))
		b.AddWrite(Addr{Node: 3, Offset: 256}, small)
		if err := ep.Do(b.Ops()...); err != nil {
			t.Fatal(err)
		}
		b.Put()
		// Large multi-node fan-out.
		b = GetBatch()
		for n := 1; n <= nodes; n++ {
			b.AddWrite(Addr{Node: NodeID(n), Offset: 4096}, big)
		}
		if err := ep.Do(b.Ops()...); err != nil {
			t.Fatal(err)
		}
		b.Put()
	}
	return clk.Now(), f.Retransmits(), f.DuplicatesDropped()
}

// TestEngineDeterministic: the same seed and workload must produce
// bit-identical virtual-clock totals and fault counters, run after run.
// Every batch rolls the fault PRNG in posting order, which is what this
// test pins down.
func TestEngineDeterministic(t *testing.T) {
	d1, r1, dup1 := runDeterminismWorkload(t, 42)
	d2, r2, dup2 := runDeterminismWorkload(t, 42)
	if d1 != d2 {
		t.Errorf("virtual time not reproducible: %v vs %v", d1, d2)
	}
	if r1 != r2 {
		t.Errorf("retransmit count not reproducible: %d vs %d", r1, r2)
	}
	if dup1 != dup2 {
		t.Errorf("duplicate count not reproducible: %d vs %d", dup1, dup2)
	}
	if r1 == 0 {
		t.Error("workload injected no retransmissions; determinism check is vacuous")
	}
}

// TestDoChargesMaxOverDestinations: without faults and link rules, a
// batch of one verb per node charges the max of its per-verb durations,
// however large: the queue pairs run side by side on the model clock.
func TestDoChargesMaxOverDestinations(t *testing.T) {
	lat := LatencyModel{BaseRTT: 2 * time.Microsecond, BytesPerSec: 1 << 30}
	f := NewFabric(lat)
	f.AddNode(0)
	for i := 1; i <= 4; i++ {
		f.AddNode(NodeID(i))
		f.RegisterRegion(NodeID(i), 0, 64<<10)
	}
	var clk VClock
	ep := f.Endpoint(0).WithClock(&clk)

	// 4 x 16 KiB to distinct nodes.
	big := make([]byte, 16<<10)
	ops := make([]*Op, 4)
	for i := range ops {
		ops[i] = &Op{Kind: OpWrite, Addr: Addr{Node: NodeID(i + 1)}, Buf: big}
	}
	if err := ep.Do(ops...); err != nil {
		t.Fatal(err)
	}
	if want := lat.Verb(len(big)); clk.Now() != want {
		t.Fatalf("Do charged %v, want max-of-durations %v", clk.Now(), want)
	}
}
