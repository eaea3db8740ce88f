package metrics

import (
	"testing"
	"time"

	"pandora/internal/race"
)

// skipIfRace skips allocation-count assertions under the race detector
// (its instrumentation allocates), naming the contract so a -race log
// shows what was deferred to the no-race CI lane.
func skipIfRace(t *testing.T, contract string) {
	t.Helper()
	if race.Enabled {
		t.Skipf("-race instrumentation allocates; %s is enforced by the no-race lane", contract)
	}
}

// TestRecordPathZeroAlloc: the warm recording paths — phase histogram,
// verb counters on a seen node, abort counters — must be heap-free.
// They run on every fabric verb and every transaction phase; a single
// allocation here would show up in every AllocsPerRun gate downstream.
func TestRecordPathZeroAlloc(t *testing.T) {
	skipIfRace(t, "the metrics zero-alloc record contract (histogram/verb/abort on the warm path)")
	r := New()
	r.CountVerb(1000, VerbRead, false, VerbOK) // warm the node table

	cases := []struct {
		name string
		fn   func()
	}{
		{"RecordPhase", func() { r.RecordPhase(PhaseLock, 3, 7*time.Microsecond) }},
		{"CountVerb", func() { r.CountVerb(1000, VerbRead, true, VerbDeadlineExpired) }},
		{"CountAbort", func() { r.CountAbort(AbortLockConflict) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if n := testing.AllocsPerRun(200, c.fn); n != 0 {
				t.Fatalf("%s allocates %.1f/op, want 0", c.name, n)
			}
		})
	}
}

// TestDrainPathZeroAlloc: the critical-path round counter behind
// Snapshot.Drain.CommitRounds must be heap-free — every commit doorbell
// counts one round, so an allocation there would charge every commit.
func TestDrainPathZeroAlloc(t *testing.T) {
	skipIfRace(t, "the commit-round zero-alloc record contract")
	r := New()
	cases := []struct {
		name string
		fn   func()
	}{
		{"CountCommitRound", func() { r.CountCommitRound(5) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if n := testing.AllocsPerRun(200, c.fn); n != 0 {
				t.Fatalf("%s allocates %.1f/op, want 0", c.name, n)
			}
		})
	}
}

// TestNilRecordPathZeroAlloc: the disabled (nil-registry) paths cost a
// nil check and nothing else.
func TestNilRecordPathZeroAlloc(t *testing.T) {
	skipIfRace(t, "the nil-registry no-op contract (disabled metrics cost zero allocations)")
	var r *Registry
	if n := testing.AllocsPerRun(200, func() {
		r.RecordPhase(PhaseRead, 0, time.Microsecond)
		r.CountVerb(1, VerbCAS, false, VerbOK)
		r.CountAbort(AbortFault)
	}); n != 0 {
		t.Fatalf("nil registry allocates %.1f/op, want 0", n)
	}
}
