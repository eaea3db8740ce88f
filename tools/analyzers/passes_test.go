package analyzers

import (
	"os"
	"path/filepath"
	"testing"
)

// Each fixture contains both violating shapes (with // want comments)
// and conforming shapes (which must produce no diagnostics); runFixture
// fails on any mismatch in either direction, so these tests demonstrate
// that each pass detects its bug class and stays quiet on the sanctioned
// idioms.

// fixtures maps every pass of All() to the testdata/src directories its
// tests run it over. TestEveryPassHasFixture holds the three — the
// suite, this table, the directories — to each other.
var fixtures = map[*Analyzer][]string{
	Determinism: {"chaos"},
	// kvlayout: the identical shapes inside the owning package are legal —
	// that is the point of single ownership.
	Lockword:    {"lockword", "kvlayout"},
	Batchescape: {"batchescape"},
	Atomicmix:   {"atomicmix"},
	Abortcause:  {"abortcause"},
}

// TestEveryPassHasFixture: every pass of the suite runs over at least one
// fixture directory, and every fixture directory is run by a pass — so
// deleting a pass without its fixture, or the reverse, fails here
// instead of leaving an orphan.
func TestEveryPassHasFixture(t *testing.T) {
	used := map[string]bool{}
	for _, a := range All() {
		dirs := fixtures[a]
		if len(dirs) == 0 {
			t.Errorf("pass %s has no fixture", a.Name)
		}
		for _, dir := range dirs {
			used[dir] = true
			t.Run(a.Name+"/"+dir, func(t *testing.T) { runFixture(t, a, dir) })
		}
	}
	if len(fixtures) != len(All()) {
		t.Errorf("fixtures lists %d passes, All() has %d: a deleted pass still has an entry", len(fixtures), len(All()))
	}
	entries, err := os.ReadDir(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !used[e.Name()] {
			t.Errorf("fixture directory testdata/src/%s is run by no pass", e.Name())
		}
	}
}

// TestDeterminismScope: the pass must not fire outside the virtual-time
// packages at all (the same wall-clock shapes are legal elsewhere).
func TestDeterminismScope(t *testing.T) {
	if IsVirtualTimePkg("pandora/internal/litmus") {
		t.Fatal("litmus must not be a virtual-time package")
	}
	for _, p := range []string{
		"pandora/internal/core",
		"pandora/internal/rdma",
		"pandora/internal/recovery",
		"pandora/internal/chaos",
		"pandora/internal/metrics",
		"pandora/internal/core [pandora/internal/core.test]",
		"pandora/internal/rdma_test [pandora/internal/rdma.test]",
		"pandora/internal/metrics [pandora/internal/metrics.test]",
		"pandora/internal/reconfig",
		"pandora/internal/reconfig [pandora/internal/reconfig.test]",
		"pandora/internal/place",
	} {
		if !IsVirtualTimePkg(p) {
			t.Fatalf("%s must be a virtual-time package", p)
		}
	}
}
