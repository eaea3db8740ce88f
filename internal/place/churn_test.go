package place

import (
	"testing"

	"pandora/internal/rdma"
)

func ids(n int) []rdma.NodeID {
	out := make([]rdma.NodeID, n)
	for i := range out {
		out[i] = rdma.NodeID(1000 + i)
	}
	return out
}

// moved lists the partitions whose replica sets differ between rings.
func moved(a, b *Ring) []uint32 {
	var out []uint32
	for p := uint32(0); p < a.Partitions(); p++ {
		ra, rb := a.Replicas(p), b.Replicas(p)
		same := len(ra) == len(rb)
		for i := 0; same && i < len(ra); i++ {
			same = ra[i] == rb[i]
		}
		if !same {
			out = append(out, p)
		}
	}
	return out
}

// TestChurnInvariants is the table-driven distribution-invariant suite:
// adding or removing one member moves a bounded share of partitions
// (≈ the joining/leaving node's fair share, never the whole keyspace)
// and moves NOTHING gratuitously — every moved partition's change
// involves the subject node.
func TestChurnInvariants(t *testing.T) {
	cases := []struct {
		name       string
		members    int
		replicas   int
		partitions uint32
	}{
		{"2of2-r2-p16", 2, 2, 16},
		{"3of3-r2-p16", 3, 2, 16},
		{"4of4-r2-p64", 4, 2, 64},
		{"5of5-r3-p64", 5, 3, 64},
		{"8of8-r3-p256", 8, 3, 256},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := New(ids(tc.members), tc.replicas, tc.partitions)
			newID := rdma.NodeID(2000)

			// Add one member.
			grown, err := base.WithMember(newID)
			if err != nil {
				t.Fatal(err)
			}
			mv := moved(base, grown)
			// Fair share of replica slots landing on the new node, with
			// 3x slack for hash skew on small partition counts.
			fair := int(tc.partitions) * tc.replicas / (tc.members + 1)
			if bound := 3*fair + 4; len(mv) > bound {
				t.Fatalf("add moved %d partitions, bound %d (fair share %d)", len(mv), bound, fair)
			}
			if len(mv) == 0 {
				t.Fatal("add moved no partitions: new node is idle")
			}
			for _, p := range mv {
				hasNew := false
				for _, n := range grown.Replicas(p) {
					if n == newID {
						hasNew = true
					}
				}
				if !hasNew {
					t.Fatalf("gratuitous move: partition %d changed without involving the new node (%v -> %v)",
						p, base.Replicas(p), grown.Replicas(p))
				}
			}

			// Remove it again: only its partitions move back, and the
			// result equals the original placement (hole-preserving
			// indexes make remove the exact inverse of add).
			shrunk, err := grown.WithoutMember(newID)
			if err != nil {
				t.Fatal(err)
			}
			if back := moved(base, shrunk); len(back) != 0 {
				t.Fatalf("add+remove is not the identity: %d partitions differ", len(back))
			}
			for _, p := range moved(grown, shrunk) {
				hadNew := false
				for _, n := range grown.Replicas(p) {
					if n == newID {
						hadNew = true
					}
				}
				if !hadNew {
					t.Fatalf("gratuitous move on remove: partition %d did not host the removed node", p)
				}
			}
		})
	}
}

// TestChurnDeterministic: add/remove/substitute are pure functions of
// their inputs — two independent computations agree exactly.
func TestChurnDeterministic(t *testing.T) {
	for _, run := range []int{0, 1} {
		_ = run
		a := New(ids(4), 2, 64)
		b := New(ids(4), 2, 64)
		ga, err := a.WithMember(2000)
		if err != nil {
			t.Fatal(err)
		}
		gb, err := b.WithMember(2000)
		if err != nil {
			t.Fatal(err)
		}
		if len(moved(ga, gb)) != 0 {
			t.Fatal("WithMember is not deterministic")
		}
		sa, err := ga.WithoutMember(1001)
		if err != nil {
			t.Fatal(err)
		}
		sb, err := gb.WithoutMember(1001)
		if err != nil {
			t.Fatal(err)
		}
		if len(moved(sa, sb)) != 0 {
			t.Fatal("WithoutMember is not deterministic")
		}
		ra, err := sa.Substitute(1002, 3000)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := sb.Substitute(1002, 3000)
		if err != nil {
			t.Fatal(err)
		}
		if len(moved(ra, rb)) != 0 {
			t.Fatal("Substitute is not deterministic")
		}
	}
}

// TestRemoveFillsHoleOnAdd: a removal leaves a positional hole; the
// next add fills that hole, so survivors' partitions never move across
// the remove/add pair.
func TestRemoveFillsHoleOnAdd(t *testing.T) {
	base := New(ids(4), 2, 64)
	shrunk, err := base.WithoutMember(1001)
	if err != nil {
		t.Fatal(err)
	}
	// Survivors keep every partition they had (only the removed node's
	// share moved).
	for _, p := range moved(base, shrunk) {
		had := false
		for _, n := range base.Replicas(p) {
			if n == 1001 {
				had = true
			}
		}
		if !had {
			t.Fatalf("partition %d moved without hosting the removed node", p)
		}
	}
	refilled, err := shrunk.WithMember(5000)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(refilled.Nodes()), 4; got != want {
		t.Fatalf("refilled ring has %d nodes, want %d", got, want)
	}
	// The newcomer takes exactly the hole's index: the placement equals
	// the original with 1001 renamed to 5000.
	renamed, err := base.Substitute(1001, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if mv := moved(renamed, refilled); len(mv) != 0 {
		t.Fatalf("hole-filling add moved %d survivor partitions", len(mv))
	}

	// Epochs advance monotonically across the whole sequence.
	if !(base.Epoch() < shrunk.Epoch() && shrunk.Epoch() < refilled.Epoch()) {
		t.Fatalf("epochs not monotonic: %d, %d, %d", base.Epoch(), shrunk.Epoch(), refilled.Epoch())
	}
}

// TestWithoutMemberRefusesUnderReplication: removing a member may never
// leave fewer live members than the replication factor.
func TestWithoutMemberRefusesUnderReplication(t *testing.T) {
	r := New(ids(2), 2, 16)
	if _, err := r.WithoutMember(1001); err == nil {
		t.Fatal("removal below replication accepted")
	}
	if _, err := r.WithoutMember(9999); err == nil {
		t.Fatal("removal of unknown member accepted")
	}
}

// TestReassignOverridesOnePartition: Reassign changes exactly the named
// partition and bumps the epoch — the per-partition cutover primitive.
func TestReassignOverridesOnePartition(t *testing.T) {
	r := New(ids(3), 2, 32)
	next := r.Reassign(5, []rdma.NodeID{1002, 1000})
	if next.Epoch() != r.Epoch()+1 {
		t.Fatalf("Reassign epoch %d, want %d", next.Epoch(), r.Epoch()+1)
	}
	mv := moved(r, next)
	if len(mv) != 1 || mv[0] != 5 {
		t.Fatalf("Reassign moved partitions %v, want exactly [5]", mv)
	}
	got := next.Replicas(5)
	if len(got) != 2 || got[0] != 1002 || got[1] != 1000 {
		t.Fatalf("Reassign(5) = %v", got)
	}
}
