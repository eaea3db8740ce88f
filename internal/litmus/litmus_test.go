package litmus

import (
	"errors"
	"reflect"
	"testing"

	"pandora/internal/core"
	"pandora/internal/proptest"
)

// TestPandoraPassesAllLitmus is the headline validation: the fixed
// Pandora protocol survives every litmus test with crash injection and
// zero violations.
func TestPandoraPassesAllLitmus(t *testing.T) {
	reps, err := RunAll(Config{
		Protocol:   core.ProtocolPandora,
		Iterations: 150,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range reps {
		if len(rep.Violations) != 0 {
			t.Errorf("%s: %d violations, e.g. %s", rep.Test, len(rep.Violations), rep.Violations[0])
		}
		if rep.Committed == 0 {
			t.Errorf("%s: nothing committed", rep.Test)
		}
		t.Logf("%s: %d iters, %d crashes, %d recoveries, C/A/?=%d/%d/%d",
			rep.Test, rep.Iterations, rep.Crashes, rep.Recoveries, rep.Committed, rep.Aborted, rep.Unknown)
	}
}

// TestFixedFORDBaselinePassesWithoutSeededBugs: the Baseline (FORD's
// protocol + Pandora's recovery, all Table-1 fixes applied) also
// validates cleanly.
func TestFixedFORDBaselinePasses(t *testing.T) {
	reps, err := RunAll(Config{
		Protocol:   core.ProtocolFORD,
		Iterations: 100,
		Seed:       2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range reps {
		if len(rep.Violations) != 0 {
			t.Errorf("%s: %d violations, e.g. %s", rep.Test, len(rep.Violations), rep.Violations[0])
		}
	}
}

func TestTradLogPassesLitmus(t *testing.T) {
	rep, err := RunTest(Litmus3(), Config{
		Protocol:   core.ProtocolTradLog,
		Iterations: 120,
		Seed:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("%s under tradlog: %v", rep.Test, rep.Violations[0])
	}
}

// TestSeededBugsAreCaught reproduces Table 1: each seeded FORD bug is
// detected by its litmus test, at its pinned seed.
func TestSeededBugsAreCaught(t *testing.T) {
	for _, bc := range SeededBugs() {
		t.Run(bc.Name, func(t *testing.T) {
			rep, err := RunTest(bc.Test, bc.Config())
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Violations) == 0 {
				t.Fatalf("seeded bug %q was not caught by %s at seed %d", bc.Name, bc.Test.Name, bc.Seed)
			}
			t.Logf("%s: caught %d violations, e.g. %s", bc.Name, len(rep.Violations), rep.Violations[0])
		})
	}
}

// TestRunIsReplayable: a run is a function of its Config. Run twice, a
// seeded bug's run and a generated schedule with crashes, the async
// commit tail and eager ticket lanes report the same counts, the same
// violations in the same order and the same abort kinds.
func TestRunIsReplayable(t *testing.T) {
	type run struct {
		name string
		do   func() (Report, error)
	}
	var runs []run
	for _, bc := range SeededBugs() {
		runs = append(runs, run{bc.Name, func() (Report, error) { return RunTest(bc.Test, bc.Config()) }})
	}
	k := Knobs{ReadCacheSize: 4096, HotlockThreshold: 1, AsyncCommitBack: true}
	s := GenSchedule(proptest.CaseRand(3, 0), "replayable", GenOpts{Knobs: k, MaxVars: 2, Iterations: 40})
	s.CrashMidTx, s.CrashAfterTxs = 0.5, 0.3
	runs = append(runs, run{s.Name, func() (Report, error) {
		rep, err := RunSchedule(s)
		if err == nil && rep.Crashes == 0 {
			err = errors.New("the generated schedule crashed nothing")
		}
		return rep, err
	}})
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			a, err := r.do()
			if err != nil {
				t.Fatal(err)
			}
			b, err := r.do()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("two runs of one Config differ:\n%+v\n%+v", a, b)
			}
		})
	}
}

// TestModelChecker sanity-checks the client-centric checker itself.
func TestModelChecker(t *testing.T) {
	lt := Litmus2()
	// Both committed: X=1,Y=1 must NOT be reachable, X=2,Y=1 must be.
	states := reachableStates(lt, []txStatus{statusCommitted, statusCommitted})
	if _, bad := states[(Model{"X": 1, "Y": 1}).key()]; bad {
		t.Fatal("checker admits the unserializable X=1,Y=1")
	}
	if _, ok := states[(Model{"X": 2, "Y": 1}).key()]; !ok {
		t.Fatal("checker rejects the serial T1;T2 outcome")
	}
	if _, ok := states[(Model{"X": 1, "Y": 2}).key()]; !ok {
		t.Fatal("checker rejects the serial T2;T1 outcome")
	}
	// One unknown: both with and without it are admissible.
	states = reachableStates(lt, []txStatus{statusCommitted, statusUnknown})
	if _, ok := states[(Model{"X": 0, "Y": 1}).key()]; !ok {
		t.Fatal("checker rejects the T1-only outcome with T2 unknown")
	}
	if _, ok := states[(Model{"X": 2, "Y": 1}).key()]; !ok {
		t.Fatal("checker rejects T1;T2 with T2 unknown")
	}
	// Aborted transactions contribute nothing.
	states = reachableStates(lt, []txStatus{statusAborted, statusAborted})
	if len(states) != 1 {
		t.Fatalf("two aborted txs should leave exactly the initial state, got %d states", len(states))
	}
	if _, ok := states[(Model{"X": 0, "Y": 0}).key()]; !ok {
		t.Fatal("initial state missing")
	}
}

func TestPermute(t *testing.T) {
	count := 0
	permute([]int{1, 2, 3}, func([]int) { count++ })
	if count != 6 {
		t.Fatalf("permute(3) produced %d orders, want 6", count)
	}
	count = 0
	permute(nil, func([]int) { count++ })
	if count != 1 {
		t.Fatalf("permute(0) produced %d orders, want 1", count)
	}
}

func TestModelKeyCanonical(t *testing.T) {
	a := Model{"X": 1, "Y": 2}
	b := Model{"Y": 2, "X": 1}
	if a.key() != b.key() {
		t.Fatal("model key not canonical")
	}
	if (Model{"X": 1}).key() == (Model{"X": 2}).key() {
		t.Fatal("model key collision")
	}
}

// TestClusterConfigDefaultKnobs: with no knobs requested, litmus must
// observe the raw protocol — a validated-read-cache hit serves reads
// compute-side and would mask exactly the read-time interleavings the
// tests exist to expose (ReadCacheSize must be -1, disabled, not 0,
// default-sized), and the asynchronous commit-back must stay off
// because the baseline runs reason about the commit point from an ack
// that returns with its locks already released. Opting into the tuned
// paths is explicit, via Config.Knobs and the KnobMatrix.
func TestClusterConfigDefaultKnobs(t *testing.T) {
	for _, lt := range All() {
		cfg := Config{}
		cfg.fill()
		cc := clusterConfig(lt, cfg)
		if cc.ReadCacheSize != -1 {
			t.Errorf("litmus %q: default ReadCacheSize = %d, want -1 (cache disabled)", lt.Name, cc.ReadCacheSize)
		}
		if cc.AsyncCommitBack {
			t.Errorf("litmus %q: default AsyncCommitBack enabled, want the synchronous tail", lt.Name)
		}
		if cc.HotlockThreshold != 0 {
			t.Errorf("litmus %q: default HotlockThreshold = %d, want 0 (adaptive default)", lt.Name, cc.HotlockThreshold)
		}
	}
}

// TestClusterConfigHonorsKnobs: a knob combination from the matrix
// must reach the cluster config verbatim — the whole point of the
// matrix is that the tuned paths (cache, ticket lanes, async drain)
// get real litmus coverage.
func TestClusterConfigHonorsKnobs(t *testing.T) {
	for _, k := range KnobMatrix() {
		k := k
		cfg := Config{Knobs: &k}
		cfg.fill()
		cc := clusterConfig(Litmus1(), cfg)
		if cc.ReadCacheSize != k.ReadCacheSize || cc.HotlockThreshold != k.HotlockThreshold || cc.AsyncCommitBack != k.AsyncCommitBack {
			t.Errorf("knobs %s: cluster got cache=%d hot=%d async=%t", k, cc.ReadCacheSize, cc.HotlockThreshold, cc.AsyncCommitBack)
		}
	}
}

// TestFixedFamilyAcrossKnobMatrix runs the whole hand-written litmus
// family under every tuned knob combination (the raw baseline is
// covered by TestPandoraPassesAllLitmus). Before this, the read-cache,
// ticket-lane, and async commit-back paths had zero litmus coverage —
// they were pinned off.
func TestFixedFamilyAcrossKnobMatrix(t *testing.T) {
	for _, k := range KnobMatrix()[1:] {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			reps, err := RunAll(Config{
				Protocol:   core.ProtocolPandora,
				Iterations: 40,
				Seed:       5,
				Knobs:      &k,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, rep := range reps {
				if len(rep.Violations) != 0 {
					t.Errorf("%s: %d violations, e.g. %s", rep.Test, len(rep.Violations), rep.Violations[0])
				}
				if rep.Committed == 0 {
					t.Errorf("%s: nothing committed", rep.Test)
				}
			}
		})
	}
}
