package proptest

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestRandDeterministicAndSeedSensitive(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	c, d := NewRand(42), NewRand(43)
	same := 0
	for i := 0; i < 64; i++ {
		if c.Uint64() == d.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("adjacent seeds collided on %d/64 draws", same)
	}
}

func TestForkIsPureAndLabelSensitive(t *testing.T) {
	r := NewRand(7)
	f1 := r.Fork("alpha")
	f2 := r.Fork("alpha")
	if f1.Uint64() != f2.Uint64() {
		t.Fatal("same-label forks from same state must be identical")
	}
	if r.Fork("alpha").Uint64() == r.Fork("beta").Uint64() {
		t.Fatal("different labels must derive different streams")
	}
	// Forking must not consume the parent's stream.
	a, b := NewRand(7), NewRand(7)
	_ = a.Fork("x")
	if a.Uint64() != b.Uint64() {
		t.Fatal("Fork consumed the parent stream")
	}
}

func TestBoundsAndRanges(t *testing.T) {
	r := NewRand(1)
	for i := 0; i < 10000; i++ {
		if v := r.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if v := IntBetween(r, 3, 5); v < 3 || v > 5 {
			t.Fatalf("IntBetween out of range: %d", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %g", f)
		}
		if z := ZipfIndex(r, 4); z < 0 || z >= 4 {
			t.Fatalf("ZipfIndex out of range: %d", z)
		}
	}
	// The zipf skew must actually favour index 0.
	counts := make([]int, 4)
	for i := 0; i < 4000; i++ {
		counts[ZipfIndex(r, 4)]++
	}
	if counts[0] <= counts[1] || counts[1] <= counts[2] {
		t.Fatalf("ZipfIndex not skewed: %v", counts)
	}
}

func TestWeighted(t *testing.T) {
	r := NewRand(2)
	counts := make([]int, 3)
	for i := 0; i < 6000; i++ {
		counts[Weighted(r, 1, 2, 3)]++
	}
	if counts[2] <= counts[1] || counts[1] <= counts[0] {
		t.Fatalf("weights not respected: %v", counts)
	}
}

// genInts draws the slice-of-small-ints cases the shrinker tests use.
func genInts(r *Rand) []int {
	return SliceOf(r, 0, 20, func(r *Rand) int { return r.Intn(100) })
}

// shrinkInts removes elements and halves values toward zero.
func shrinkInts(xs []int) [][]int {
	out := ShrinkSliceRemovals(xs)
	for i, v := range xs {
		for _, smaller := range ShrinkInt(v, 0) {
			cand := append([]int(nil), xs...)
			cand[i] = smaller
			out = append(out, cand)
		}
	}
	return out
}

func sum(xs []int) int {
	s := 0
	for _, v := range xs {
		s += v
	}
	return s
}

func TestRunPassesWhenPropertyHolds(t *testing.T) {
	f := Run(Config{Seed: 5, Cases: 200}, genInts, shrinkInts, func(xs []int) error {
		if sum(xs) < 0 {
			return errors.New("impossible")
		}
		return nil
	})
	if f != nil {
		t.Fatalf("unexpected failure: %v", f.Err)
	}
}

func TestRunFindsAndMinimises(t *testing.T) {
	const limit = 150
	prop := func(xs []int) error {
		if s := sum(xs); s > limit {
			return fmt.Errorf("sum %d exceeds %d", s, limit)
		}
		return nil
	}
	f := Run(Config{Seed: 3, Cases: 200, ShrinkEvals: 2000}, genInts, shrinkInts, prop)
	if f == nil {
		t.Fatal("property should fail for some generated slice")
	}
	if prop(f.Min) == nil {
		t.Fatalf("minimised value no longer fails: %v", f.Min)
	}
	if sum(f.Min) <= sum(f.Value) && len(f.Min) > len(f.Value) {
		t.Fatalf("shrinker grew the value: %v -> %v", f.Value, f.Min)
	}
	// Local minimality: every candidate the shrinker can propose from
	// the minimum must pass the property.
	for _, cand := range shrinkInts(f.Min) {
		if prop(cand) != nil {
			t.Fatalf("minimum %v is not locally minimal: candidate %v still fails", f.Min, cand)
		}
	}
	if !strings.Contains(f.ReproLine(), fmt.Sprintf("seed=%d case=%d", f.Seed, f.Case)) {
		t.Fatalf("repro line missing seed/case: %q", f.ReproLine())
	}
	// The (seed, case) pair replays the original failing value.
	replayed := genInts(CaseRand(f.Seed, f.Case))
	if fmt.Sprint(replayed) != fmt.Sprint(f.Value) {
		t.Fatalf("CaseRand replay mismatch: %v vs %v", replayed, f.Value)
	}
}

func TestRunIsDeterministic(t *testing.T) {
	run := func() string {
		f := Run(Config{Seed: 9, Cases: 100, ShrinkEvals: 500}, genInts, shrinkInts, func(xs []int) error {
			if sum(xs) > 400 {
				return errors.New("too big")
			}
			return nil
		})
		if f == nil {
			return "pass"
		}
		return fmt.Sprintf("case=%d value=%v min=%v shrinks=%d evals=%d", f.Case, f.Value, f.Min, f.Shrinks, f.Evals)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("two identical runs diverged:\n%s\n%s", a, b)
	}
}

func TestShrinkBudgetBounds(t *testing.T) {
	f := Run(Config{Seed: 3, Cases: 200, ShrinkEvals: 10}, genInts, shrinkInts, func(xs []int) error {
		if sum(xs) > 150 {
			return errors.New("too big")
		}
		return nil
	})
	if f == nil {
		t.Fatal("expected a failure")
	}
	if f.Evals > 10 {
		t.Fatalf("shrinker exceeded its evaluation budget: %d evals", f.Evals)
	}
}

func TestShrinkHelpers(t *testing.T) {
	if got := ShrinkInt(10, 0); len(got) == 0 || got[0] != 0 {
		t.Fatalf("ShrinkInt must propose the floor first: %v", got)
	}
	if got := ShrinkInt(0, 0); got != nil {
		t.Fatalf("ShrinkInt at the floor must propose nothing: %v", got)
	}
	cands := ShrinkSliceRemovals([]int{1, 2, 3, 4})
	if len(cands) != 6 { // two halves + four removals
		t.Fatalf("expected 6 candidates, got %d: %v", len(cands), cands)
	}
	for _, c := range cands {
		if len(c) >= 4 {
			t.Fatalf("candidate did not shrink: %v", c)
		}
	}
}
