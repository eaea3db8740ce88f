package chaos

import (
	"fmt"
	"strings"
	"testing"
)

// runCommitPipeScenario runs one seeded commit-tail crash scenario and fails the test on any violation, returning the captured
// event log.
func runCommitPipeScenario(t *testing.T, cfg Config, mode string) string {
	t.Helper()
	var log strings.Builder
	cfg.Logf = func(format string, args ...any) {
		fmt.Fprintf(&log, format+"\n", args...)
	}
	res, err := RunCommitPipe(cfg, mode)
	if err != nil {
		t.Fatalf("run failed: %v\nlog:\n%s", err, log.String())
	}
	if len(res.Violations) > 0 {
		t.Fatalf("violations: %v\nlog:\n%s", res.Violations, log.String())
	}
	if res.Acked == 0 {
		t.Fatalf("no acked commits\nlog:\n%s", log.String())
	}
	if !strings.Contains(log.String(), "crash:") {
		t.Fatalf("no crash injected\nlog:\n%s", log.String())
	}
	if !strings.Contains(log.String(), "second recovery pass: no-op") {
		t.Fatalf("second recovery pass was not a no-op\nlog:\n%s", log.String())
	}
	return log.String()
}

// TestCommitPipeCrashMatrix drives the seed × crash-point matrix of the
// post-ack commit tail: the victim dies after the ack or between the
// tail's truncation and its releases; recovery
// (driven twice — the second pass must be idempotent) plus the
// structural audit and the last-acknowledged-write readback must hold
// in every cell.
func TestCommitPipeCrashMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos scenarios skipped in -short mode")
	}
	for _, mode := range CommitPipeModes() {
		for _, seed := range []int64{1, 7, 42} {
			mode, seed := mode, seed
			t.Run(fmt.Sprintf("%s/seed%d", mode, seed), func(t *testing.T) {
				runCommitPipeScenario(t, Config{Seed: seed}, mode)
			})
		}
	}
}

// TestCommitPipeRejectsUnknownMode: the mode is validated up front.
func TestCommitPipeRejectsUnknownMode(t *testing.T) {
	if _, err := RunCommitPipe(Config{}, "meteor"); err == nil {
		t.Fatal("unknown commitpipe crash mode accepted")
	}
}

// TestCommitPipeDeterministicLog: the run is fully scripted, so two
// same-seed runs emit byte-identical logs.
func TestCommitPipeDeterministicLog(t *testing.T) {
	for _, mode := range CommitPipeModes() {
		a := runCommitPipeScenario(t, Config{Seed: 7}, mode)
		b := runCommitPipeScenario(t, Config{Seed: 7}, mode)
		if a != b {
			t.Fatalf("same-seed %s runs diverged:\n--- run 1 ---\n%s--- run 2 ---\n%s", mode, a, b)
		}
	}
}

// TestCommitPipeShortSmoke is the -short mode smoke: one after-ack
// crash run CI can afford on every push.
func TestCommitPipeShortSmoke(t *testing.T) {
	runCommitPipeScenario(t, Config{Seed: 1}, "afterack")
}
