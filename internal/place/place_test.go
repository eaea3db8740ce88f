package place

import (
	"testing"
	"testing/quick"

	"pandora/internal/kvlayout"
	"pandora/internal/rdma"
)

func nodes(n int) []rdma.NodeID {
	out := make([]rdma.NodeID, n)
	for i := range out {
		out[i] = rdma.NodeID(100 + i)
	}
	return out
}

func TestNewValidation(t *testing.T) {
	for _, c := range []struct {
		nodes, replicas int
		partitions      uint32
	}{
		{2, 3, 8}, // more replicas than nodes
		{2, 0, 8}, // zero replicas
		{2, 2, 0}, // zero partitions
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d nodes, %d replicas, %d partitions) did not panic", c.nodes, c.replicas, c.partitions)
				}
			}()
			New(nodes(c.nodes), c.replicas, c.partitions)
		}()
	}
}

func TestReplicasDistinctAndComplete(t *testing.T) {
	r := New(nodes(5), 3, 64)
	for p := uint32(0); p < 64; p++ {
		reps := r.Replicas(p)
		if len(reps) != 3 {
			t.Fatalf("partition %d has %d replicas, want 3", p, len(reps))
		}
		seen := map[rdma.NodeID]bool{}
		for _, n := range reps {
			if seen[n] {
				t.Fatalf("partition %d has duplicate replica %d", p, n)
			}
			seen[n] = true
		}
	}
}

func TestPlacementDeterministic(t *testing.T) {
	a := New(nodes(4), 2, 32)
	b := New(nodes(4), 2, 32)
	for p := uint32(0); p < 32; p++ {
		ra, rb := a.Replicas(p), b.Replicas(p)
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("partition %d placement differs between identical rings", p)
			}
		}
	}
	prop := func(k uint64) bool {
		return a.Partition(kvlayout.Key(k)) == b.Partition(kvlayout.Key(k)) &&
			a.Partition(kvlayout.Key(k)) < 32
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionBalance(t *testing.T) {
	r := New(nodes(4), 1, 64)
	counts := map[rdma.NodeID]int{}
	for p := uint32(0); p < 64; p++ {
		counts[r.Replicas(p)[0]]++
	}
	// With 64 vnodes per node, no node should be starved or own nearly
	// everything.
	for n, c := range counts {
		if c == 0 {
			t.Fatalf("node %d owns no partitions", n)
		}
		if c > 40 {
			t.Fatalf("node %d owns %d/64 partitions; ring is badly unbalanced", n, c)
		}
	}
	if len(counts) != 4 {
		t.Fatalf("only %d/4 nodes own primaries", len(counts))
	}
}

func TestKeyBalanceAcrossPartitions(t *testing.T) {
	r := New(nodes(2), 2, 16)
	counts := make([]int, 16)
	for k := kvlayout.Key(0); k < 16000; k++ {
		counts[r.Partition(k)]++
	}
	for p, c := range counts {
		if c < 500 || c > 2000 {
			t.Fatalf("partition %d has %d/16000 keys; expected roughly 1000", p, c)
		}
	}
}

func TestPrimaryFailover(t *testing.T) {
	r := New(nodes(3), 3, 8)
	for p := uint32(0); p < 8; p++ {
		reps := r.Replicas(p)
		// All alive: primary is the first replica.
		prim, ok := r.Primary(p, nil)
		if !ok || prim != reps[0] {
			t.Fatalf("partition %d primary = %d, want %d", p, prim, reps[0])
		}
		// First replica dead: primary deterministically moves to the
		// second.
		alive := func(n rdma.NodeID) bool { return n != reps[0] }
		prim, ok = r.Primary(p, alive)
		if !ok || prim != reps[1] {
			t.Fatalf("partition %d failover primary = %d, want %d", p, prim, reps[1])
		}
		// All dead.
		if _, ok := r.Primary(p, func(rdma.NodeID) bool { return false }); ok {
			t.Fatalf("partition %d reported a primary with all replicas dead", p)
		}
	}
}

func TestLogServers(t *testing.T) {
	r := New(nodes(4), 2, 8)
	for c := rdma.NodeID(0); c < 8; c++ {
		ls := r.LogServers(c)
		if len(ls) != 2 {
			t.Fatalf("compute %d has %d log servers, want 2", c, len(ls))
		}
		if ls[0] == ls[1] {
			t.Fatalf("compute %d log servers not distinct", c)
		}
		// Deterministic.
		ls2 := r.LogServers(c)
		if ls[0] != ls2[0] || ls[1] != ls2[1] {
			t.Fatalf("compute %d log servers not deterministic", c)
		}
	}
}

func TestNodesCopy(t *testing.T) {
	r := New(nodes(3), 2, 8)
	got := r.Nodes()
	got[0] = 9999
	if r.Nodes()[0] == 9999 {
		t.Fatal("Nodes() exposes internal slice")
	}
}

func TestSubstituteKeepsPlacement(t *testing.T) {
	r := New(nodes(4), 2, 32)
	repl := rdma.NodeID(999)
	old := nodes(4)[1]
	r2, err := r.Substitute(old, repl)
	if err != nil {
		t.Fatal(err)
	}
	for p := uint32(0); p < 32; p++ {
		a, b := r.Replicas(p), r2.Replicas(p)
		for i := range a {
			want := a[i]
			if want == old {
				want = repl
			}
			if b[i] != want {
				t.Fatalf("partition %d replica %d moved: %d -> %d (want %d)", p, i, a[i], b[i], want)
			}
		}
	}
	// Log-server placement is preserved the same way.
	for c := rdma.NodeID(0); c < 4; c++ {
		a, b := r.LogServers(c), r2.LogServers(c)
		for i := range a {
			want := a[i]
			if want == old {
				want = repl
			}
			if b[i] != want {
				t.Fatalf("compute %d log server %d moved", c, i)
			}
		}
	}
}
