package bench

import (
	"bytes"
	"testing"
)

// TestCommitPipeRounds runs the experiment at CI scale and pins the
// acceptance bar: the legacy per-phase tail spends at least five
// post-validation doorbells per commit, the fused tail at most three —
// and the fused ack p50 beats the legacy baseline by at least 1.5×.
func TestCommitPipeRounds(t *testing.T) {
	r, err := CommitPipe(Quick(), 64)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(r)
	if r.Legacy.RoundsPerCommit < 5 {
		t.Errorf("legacy tail %.1f rounds/commit, want >= 5", r.Legacy.RoundsPerCommit)
	}
	if r.Fused.RoundsPerCommit > 3 {
		t.Errorf("fused tail %.1f rounds/commit, want <= 3", r.Fused.RoundsPerCommit)
	}
	if r.AckSpeedupP50 < 1.5 {
		t.Errorf("fused ack p50 speedup %.2f×, want >= 1.5×", r.AckSpeedupP50)
	}
}

// TestCommitPipeDeterministic pins the artifact contract: two runs at
// the same scale render byte-identical JSON (CI cmp's the checked-in
// bin/BENCH_commitpipe.json).
func TestCommitPipeDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("two full passes")
	}
	a, err := CommitPipe(Quick(), 64)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CommitPipe(Quick(), 64)
	if err != nil {
		t.Fatal(err)
	}
	aj, err := a.JSON()
	if err != nil {
		t.Fatal(err)
	}
	bj, err := b.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aj, bj) {
		t.Error("BENCH_commitpipe.json is not run-to-run deterministic")
	}
}
