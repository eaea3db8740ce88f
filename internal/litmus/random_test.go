package litmus

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"strings"
	"testing"

	"pandora/internal/core"
	"pandora/internal/proptest"
)

// replayFile re-runs a repro artifact written by a failing exploration
// run: go test ./internal/litmus -run TestReplay -replay <file>
var replayFile = flag.String("replay", "", "replay a bin/proptest-repro-*.json schedule through the litmus checker")

// corpusSeed fixes the explored history set; corpusSize is the number
// of generated histories per knob combination (the acceptance floor is
// 100).
const (
	corpusSeed = 0xC0FFEE
	corpusSize = 100
)

// corpusOpts is the exploration profile: crashes and the recovery
// idempotency probe are on.
func corpusOpts(k Knobs) GenOpts {
	return GenOpts{Knobs: k, AllowCrash: true, CheckRecovery: true}
}

// TestRandomCorpusDeterministic: the full corpus for every knob
// combination is a pure function of the seed. Generating it twice must
// be byte-identical, and the pinned digest makes the guarantee hold
// across runs, machines, and Go releases (the PRNG is ours).
func TestRandomCorpusDeterministic(t *testing.T) {
	h := sha256.New()
	for _, k := range KnobMatrix() {
		a := CorpusJSON(GenCorpus(corpusSeed, corpusSize, corpusOpts(k)))
		b := CorpusJSON(GenCorpus(corpusSeed, corpusSize, corpusOpts(k)))
		if !bytes.Equal(a, b) {
			t.Fatalf("knobs %s: corpus generation is not deterministic", k)
		}
		h.Write(a)
	}
	const want = "4b818181b9c99bebc994751440d69c401de9881a29aed200adefc24295ed7f31"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("corpus digest drifted: got %s, want %s — the explored history set changed; "+
			"if the generator changed intentionally, update the pinned digest", got, want)
	}
}

// shrinkAndReport minimises a failing schedule, writes the repro
// artifact next to the checked-in bench artifacts (bin/), and fails
// the test with a re-runnable repro line.
func shrinkAndReport(t *testing.T, f *proptest.Failure[Schedule]) {
	t.Helper()
	proptest.Minimize(proptest.Config{ShrinkEvals: 60, Logf: t.Logf}, f, ShrinkSchedule, ScheduleProp(core.Bugs{}))
	path, err := WriteRepro(ReproDir(), Repro{
		Seed: f.Seed, Case: f.Case, Shrinks: f.Shrinks,
		Violation: f.MinErr.Error(), Schedule: f.Min,
	})
	if err != nil {
		t.Logf("could not write repro artifact: %v", err)
	}
	t.Fatalf("schedule %s failed: %v\nminimised to %d txs after %d shrinks\nre-run: go test ./internal/litmus -run TestReplay -replay %s",
		f.Value.Name, f.Err, len(f.Min.Txs), f.Shrinks, path)
}

// TestRandomKnobMatrixExploration is the headline generative run: 100
// fixed-seed histories per knob combination (raw protocol, read cache
// + ticket lanes, full tuned pipeline with async commit-back), each
// checked against the reachability oracle, the conservation invariant
// on transfer schedules, and the §3.2.3 recovery-idempotency probe on
// crashing schedules. Any violation is shrunk and written to
// bin/proptest-repro-*.json with a replay line.
func TestRandomKnobMatrixExploration(t *testing.T) {
	for _, k := range KnobMatrix() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			corpus := GenCorpus(corpusSeed, corpusSize, corpusOpts(k))
			var committed, crashes, transfers, idemProbes int
			abortKinds := map[string]uint64{}
			for i, s := range corpus {
				rep, err := RunSchedule(s)
				if err != nil {
					t.Fatalf("schedule %d (%s): harness error: %v", i, s.Name, err)
				}
				if len(rep.Violations) > 0 {
					f := &proptest.Failure[Schedule]{
						Seed: corpusSeed, Case: i, Value: s, Min: s,
						Err:    fmt.Errorf("%s", rep.Violations[0]),
						MinErr: fmt.Errorf("%s", rep.Violations[0]),
					}
					shrinkAndReport(t, f)
				}
				committed += rep.Committed
				crashes += rep.Crashes
				for kind, n := range rep.AbortKinds {
					abortKinds[kind] += n
				}
				if s.Transfers {
					transfers++
				}
				if s.CheckRecovery {
					idemProbes++
				}
			}
			if committed == 0 {
				t.Error("exploration committed nothing")
			}
			if crashes == 0 {
				t.Error("exploration injected no crashes — the crash dimension is dead")
			}
			if transfers == 0 {
				t.Error("no transfer schedules — the conservation invariant is dead")
			}
			if idemProbes == 0 {
				t.Error("no recovery-idempotency probes armed")
			}
			// Taxonomy completeness over the whole corpus: generated
			// programs only read/write preloaded variables, so every
			// abort they provoke must carry a typed reason.
			if n := abortKinds["other"]; n != 0 {
				t.Errorf("%d aborts fell into the untyped 'other' bucket: %v", n, abortKinds)
			}
			t.Logf("knobs %s: %d histories, %d commits, %d crashes, %d transfer schedules, %d idempotency probes, aborts %v",
				k, len(corpus), committed, crashes, transfers, idemProbes, abortKinds)
		})
	}
}

// TestRandomFixedFORDPasses: the fixed Baseline (FORD + Pandora's
// recovery, Table-1 fixes applied) also survives generated histories.
func TestRandomFixedFORDPasses(t *testing.T) {
	knobs := DefaultKnobs()
	for i, s := range GenCorpus(13, 20, GenOpts{Knobs: knobs, AllowCrash: true}) {
		rep, err := RunScheduleOn(s, core.ProtocolFORD, core.Bugs{})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Violations) != 0 {
			t.Errorf("schedule %d (%s): %s", i, s.Name, rep.Violations[0])
		}
	}
}

// TestRandomAbortTaxonomyTyped drives a deliberately hot corpus (two
// variables, maximum contention, cache on so stale hits occur) and
// asserts the PR 5 taxonomy regression guard: plenty of aborts, none
// of them untyped.
func TestRandomAbortTaxonomyTyped(t *testing.T) {
	opts := GenOpts{
		Knobs:      Knobs{ReadCacheSize: 4096, HotlockThreshold: 1},
		MaxVars:    2,
		MaxTxs:     4,
		Iterations: 12,
	}
	kinds := map[string]uint64{}
	var total uint64
	for i, s := range GenCorpus(7, 12, opts) {
		rep, err := RunSchedule(s)
		if err != nil {
			t.Fatalf("schedule %d: %v", i, err)
		}
		if len(rep.Violations) > 0 {
			t.Fatalf("schedule %d (%s): %s", i, s.Name, rep.Violations[0])
		}
		for k, n := range rep.AbortKinds {
			kinds[k] += n
			total += n
		}
	}
	if total == 0 {
		t.Fatal("hot corpus provoked no aborts — the taxonomy property is vacuous")
	}
	if n := kinds["other"]; n != 0 {
		t.Fatalf("%d aborts counted as untyped 'other': %v", n, kinds)
	}
	t.Logf("taxonomy over hot corpus: %v (total %d)", kinds, total)
}

// TestRandomCatchesSeededBugAndShrinks is the self-test the acceptance
// criteria pin: a deliberately injected protocol bug (covert locks —
// validation ignores the lock word) must be caught by the explorer and
// shrunk to a minimal schedule of at most 3 transactions, with the
// repro artifact round-tripping through the -replay machinery.
func TestRandomCatchesSeededBugAndShrinks(t *testing.T) {
	bugs := core.Bugs{CovertLocks: true}
	gen := func(r *proptest.Rand) Schedule {
		s := GenSchedule(r, "covert-hunt", GenOpts{
			MaxVars:    3,
			MaxTxs:     4,
			MaxOps:     4,
			Iterations: 120,
		})
		s.Transfers = false // covert locks needs read-write programs
		return s
	}
	f := proptest.Run(proptest.Config{
		Seed:        21,
		Cases:       30,
		ShrinkEvals: 60,
		Logf:        t.Logf,
	}, gen, ShrinkSchedule, ScheduleProp(bugs))
	if f == nil {
		t.Fatal("the seeded covert-locks bug was not caught by 30 generated schedules")
	}
	t.Logf("caught: %v", f.Err)
	t.Logf("minimised after %d shrinks (%d evals): %d txs, %d vars — %v",
		f.Shrinks, f.Evals, len(f.Min.Txs), f.Min.Vars, f.MinErr)
	if len(f.Min.Txs) > 3 {
		t.Errorf("minimised repro has %d transactions, want <= 3", len(f.Min.Txs))
	}
	// The repro artifact must round-trip and carry a replayable
	// schedule. (Written to a scratch dir here — only real failures
	// land in bin/.)
	path, err := WriteRepro(t.TempDir(), Repro{
		Seed: f.Seed, Case: f.Case, Shrinks: f.Shrinks,
		Violation: f.MinErr.Error(), Schedule: f.Min,
	})
	if err != nil {
		t.Fatal(err)
	}
	rp, err := LoadRepro(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := CorpusJSON([]Schedule{rp.Schedule}); !bytes.Equal(got, CorpusJSON([]Schedule{f.Min})) {
		t.Fatal("repro schedule did not round-trip")
	}
	if !strings.Contains(f.ReproLine(), fmt.Sprintf("seed=%d", f.Seed)) {
		t.Fatalf("repro line missing the seed: %q", f.ReproLine())
	}
	// And the minimised schedule must reproduce its recorded violation,
	// word for word, every time it is replayed the way TestReplay does.
	for i := 0; i < 20; i++ {
		if err := ScheduleProp(bugs)(rp.Schedule); err == nil || err.Error() != rp.Violation {
			t.Fatalf("replay %d of the minimised schedule: got %v, recorded %q", i, err, rp.Violation)
		}
	}
}

// TestRandomScheduleApplyMatchesRun: a single generated transaction
// executed in isolation must land the model exactly — any violation
// here is a Run/Apply lockstep bug in the schedule compiler, not a
// protocol race.
func TestRandomScheduleApplyMatchesRun(t *testing.T) {
	for i, s := range GenCorpus(99, 30, GenOpts{Iterations: 3}) {
		s.Txs = s.Txs[:1]
		s.CrashMidTx, s.CrashAfterTxs, s.CrashPoint, s.CheckRecovery = 0, 0, -1, false
		rep, err := RunSchedule(s)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Violations) != 0 {
			t.Fatalf("schedule %d: isolated tx diverged from its model: %s", i, rep.Violations[0])
		}
		if rep.Committed != s.Iterations {
			t.Fatalf("schedule %d: committed %d of %d isolated txs", i, rep.Committed, s.Iterations)
		}
	}
}

// TestShrinkScheduleShapes sanity-checks the shrinker's candidate set.
func TestShrinkScheduleShapes(t *testing.T) {
	s := GenCorpus(5, 1, GenOpts{})[0]
	s.CrashMidTx, s.CrashAfterTxs = 0.5, 0.3
	cands := ShrinkSchedule(s)
	if len(cands) == 0 {
		t.Fatal("no candidates for a multi-tx schedule")
	}
	sawTxDrop, sawCrashOff := false, false
	for _, c := range cands {
		if len(c.Txs) < len(s.Txs) {
			sawTxDrop = true
		}
		if c.CrashMidTx == 0 && c.CrashAfterTxs == 0 {
			sawCrashOff = true
		}
		if c.Vars > s.Vars {
			t.Fatalf("candidate grew the variable set: %d > %d", c.Vars, s.Vars)
		}
	}
	if !sawTxDrop || !sawCrashOff {
		t.Fatalf("candidate set incomplete: txdrop=%t crashoff=%t", sawTxDrop, sawCrashOff)
	}
	// A 1-tx, 1-op, crash-free schedule is a fixed point.
	minimal := Schedule{Name: "m", Vars: 1, ValueSize: 16, Iterations: 1, CrashPoint: -1,
		Txs: []TxProgram{{Ops: []Op{{Kind: "read", Var: 0, Reg: -1}}}}}
	if got := ShrinkSchedule(minimal); len(got) != 0 {
		t.Fatalf("minimal schedule should have no candidates, got %d", len(got))
	}
}

// TestReplay re-runs a repro artifact. Without -replay it is a no-op;
// with one it executes the recorded minimal schedule and fails if the
// violation reproduces — which is the point: a red TestReplay means
// the captured bug is still live, a green one means it is gone.
func TestReplay(t *testing.T) {
	if *replayFile == "" {
		t.Skip("no -replay file given")
	}
	rp, err := LoadRepro(*replayFile)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("replaying %s: seed=%d case=%d shrinks=%d, recorded violation: %s",
		*replayFile, rp.Seed, rp.Case, rp.Shrinks, rp.Violation)
	rep, err := RunSchedule(rp.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) > 0 {
		t.Fatalf("violation reproduces: %s", rep.Violations[0])
	}
	t.Log("recorded violation no longer reproduces")
}
