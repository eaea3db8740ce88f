package chaos

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// runReconfigScenario runs one seeded reconfig crash scenario and fails
// the test on any violation, returning the captured event log.
func runReconfigScenario(t *testing.T, cfg Config, mode string) string {
	t.Helper()
	var log strings.Builder
	cfg.Logf = func(format string, args ...any) {
		fmt.Fprintf(&log, format+"\n", args...)
	}
	res, err := RunReconfig(cfg, mode)
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
	return log.String()
}

// TestReconfigCrashMatrix drives the seed × crash-point matrix: for
// each crash mode (coordinator, source node, destination node) and
// several seeds, a live add-memory migration is killed at a seeded
// journaled step, recovered by a standby coordinator, healed, and the
// bank/counter invariants plus the structural store invariants must
// hold on the final audit.
func TestReconfigCrashMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos scenarios skipped in -short mode")
	}
	for _, mode := range ReconfigModes() {
		for _, seed := range []int64{1, 7, 42} {
			mode, seed := mode, seed
			t.Run(fmt.Sprintf("%s/seed%d", mode, seed), func(t *testing.T) {
				runReconfigScenario(t, Config{
					Seed:     seed,
					Workload: "bank",
					Gap:      2 * time.Millisecond,
				}, mode)
			})
		}
	}
}

// TestReconfigRejectsUnknownMode: the mode is validated up front.
func TestReconfigRejectsUnknownMode(t *testing.T) {
	if _, err := RunReconfig(Config{}, "meteor"); err == nil {
		t.Fatal("unknown reconfig crash mode accepted")
	}
}

// TestReconfigDeterministicLog: the crash point and the whole event log
// are pure functions of the seed — two same-seed runs emit
// byte-identical logs, and different seeds pick different crash points.
// The 2 ms gap is the one TestLogDigests runs at: at 500 µs the workload
// could fail to commit anything before the migration started whenever
// `go test ./...` scheduled another package's tests beside this one.
func TestReconfigDeterministicLog(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos determinism test skipped in -short mode")
	}
	capture := func(seed int64) string {
		return runReconfigScenario(t, Config{
			Seed:     seed,
			Workload: "counter",
			Gap:      2 * time.Millisecond,
		}, "source")
	}
	a, b := capture(7), capture(7)
	if a != b {
		t.Fatalf("same-seed reconfig runs diverged:\n--- run 1 ---\n%s--- run 2 ---\n%s", a, b)
	}
	crashLine := func(log string) string {
		for _, line := range strings.Split(log, "\n") {
			if strings.HasPrefix(line, "crash:") {
				return line
			}
		}
		return ""
	}
	if crashLine(a) == crashLine(capture(8)) {
		t.Fatalf("seeds 7 and 8 picked the identical crash point: %s", crashLine(a))
	}
}

// TestReconfigShortSmoke is the -short mode smoke: one coordinator
// crash run CI can afford on every push.
func TestReconfigShortSmoke(t *testing.T) {
	runReconfigScenario(t, Config{
		Seed: 1,
		Gap:  2 * time.Millisecond,
	}, "coordinator")
}
