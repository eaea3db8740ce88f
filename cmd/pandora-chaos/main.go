// Command pandora-chaos runs the seeded chaos scenario engine from the
// command line:
//
//	pandora-chaos                        # mixed scenario, seed 42
//	pandora-chaos -scenario graylink     # link faults only
//	pandora-chaos -seed 7 -events 20     # longer run, different schedule
//	pandora-chaos -workload bank         # balance-conservation invariant
//	pandora-chaos -escalate              # FD suspicion escalation on
//	pandora-chaos -scenario reconfig -crash source
//	                                     # live resharding, crash the copy
//	                                     # source mid-migration, recover
//	pandora-chaos -scenario commitpipe -crash midtail
//	                                     # commit tail: die between
//	                                     # truncation and unlock, recover
//
// The deterministic event log goes to stdout: two runs with the same
// flags (escalation off) are byte-identical, which is how a chaos
// failure is reproduced from its seed. Wall-clock-dependent statistics
// go to stderr. Exit status is non-zero on invariant violations.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"pandora/internal/chaos"
)

func main() {
	seed := flag.Int64("seed", 42, "seed driving the fault schedule and workload")
	scenario := flag.String("scenario", "mixed", "fault palette: "+strings.Join(chaos.Scenarios(), ", ")+", reconfig, commitpipe")
	crash := flag.String("crash", "coordinator", "reconfig: what dies mid-migration ("+strings.Join(chaos.ReconfigModes(), ", ")+"); commitpipe: where the post-ack tail dies ("+strings.Join(chaos.CommitPipeModes(), ", ")+")")
	workload := flag.String("workload", "counter", "workload: counter, bank")
	events := flag.Int("events", 12, "number of seed-drawn fault events")
	gap := flag.Duration("gap", 2*time.Millisecond, "wall-clock spacing between events")
	computes := flag.Int("computes", 3, "compute nodes")
	memories := flag.Int("memories", 3, "memory nodes")
	coords := flag.Int("coords", 2, "coordinators (= workers) per compute node")
	keys := flag.Int("keys", 48, "workload keys")
	timeout := flag.Duration("timeout", 500*time.Microsecond, "verb deadline on stalled/slow links")
	escalate := flag.Bool("escalate", false, "enable FD suspicion escalation (event log becomes best-effort)")
	metricsOut := flag.String("metrics", "", "write the run's observability snapshot (phase histograms, abort taxonomy, verb counters) as JSON to this file; the stdout event log stays untouched")
	flag.Parse()

	cfg := chaos.Config{
		Seed:         *seed,
		Scenario:     *scenario,
		Workload:     *workload,
		Events:       *events,
		Gap:          *gap,
		Computes:     *computes,
		Memories:     *memories,
		Coordinators: *coords,
		Keys:         *keys,
		VerbTimeout:  *timeout,
		Escalate:     *escalate,
		Logf: func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		},
	}
	var res *chaos.Result
	var err error
	if *scenario == "reconfig" {
		// The reconfiguration family has its own runner: one live
		// add-memory migration with a seeded crash, not a drawn schedule.
		res, err = chaos.RunReconfig(cfg, *crash)
	} else if *scenario == "commitpipe" {
		// Fully scripted: an acknowledged commit's post-ack tail dies at
		// a chosen pipeline point; recovery (run twice) must heal it.
		res, err = chaos.RunCommitPipe(cfg, *crash)
	} else {
		res, err = chaos.Run(cfg)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "pandora-chaos: %v\n", err)
		os.Exit(2)
	}

	fmt.Fprintf(os.Stderr, "events=%d audits=%d acked=%d aborted=%d unknown=%d\n",
		res.Events, res.Audits, res.Acked, res.Aborted, res.Unknown)
	if *metricsOut != "" {
		// The snapshot counts a workload that races the schedule, so it is
		// diagnostic (not seed-reproducible) and kept off stdout.
		data, err := json.MarshalIndent(res.Metrics, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "pandora-chaos: metrics: %v\n", err)
			os.Exit(2)
		}
		if err := os.WriteFile(*metricsOut, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "pandora-chaos: metrics: %v\n", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "metrics written to %s\n", *metricsOut)
	}
	if n := len(res.Violations); n > 0 {
		fmt.Fprintf(os.Stderr, "RESULT: %d violation(s)\n", n)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "RESULT: no violations")
}
