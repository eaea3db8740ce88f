// Command pandora-litmus runs the end-to-end litmus validation
// framework (§5) from the command line:
//
//	pandora-litmus                      # validate fixed Pandora
//	pandora-litmus -protocol ford       # validate the fixed Baseline
//	pandora-litmus -bug covert-locks    # seed a Table-1 bug, catch it at its pinned seed
//	pandora-litmus -iterations 1000     # more crash-injection coverage
//	pandora-litmus -replay <repro.json> # re-run a shrunk proptest repro
//
// Exit status is non-zero when a fixed protocol shows violations, when
// a seeded bug goes undetected, or when a replayed repro reproduces
// its recorded violation.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"

	"pandora/internal/core"
	"pandora/internal/litmus"
)

func main() {
	protoName := flag.String("protocol", "pandora", "protocol: pandora, ford, tradlog")
	bug := flag.String("bug", "", "seed a Table-1 bug: complicit-abort, missing-insert-log, covert-locks, relaxed-locks, lost-decision, log-without-lock")
	iterations := flag.Int("iterations", 400, "iterations per litmus test")
	seed := flag.Int64("seed", 1, "random seed")
	noCrashes := flag.Bool("no-crashes", false, "disable crash injection (pure C1 validation)")
	replay := flag.String("replay", "", "replay a bin/proptest-repro-*.json minimised schedule; exit 1 if its violation reproduces")
	flag.Parse()

	if *replay != "" {
		rp, err := litmus.LoadRepro(*replay)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Printf("replaying %s: seed=%d case=%d shrinks=%d txs=%d\nrecorded violation: %s\n",
			*replay, rp.Seed, rp.Case, rp.Shrinks, len(rp.Schedule.Txs), rp.Violation)
		rep, err := litmus.RunSchedule(rp.Schedule)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", rp.Schedule.Name, err)
			os.Exit(1)
		}
		fmt.Printf("%-28s iters=%d crashes=%d recoveries=%d C/A/?=%d/%d/%d violations=%d\n",
			rep.Test, rep.Iterations, rep.Crashes, rep.Recoveries,
			rep.Committed, rep.Aborted, rep.Unknown, len(rep.Violations))
		if len(rep.Violations) > 0 {
			for i, v := range rep.Violations {
				if i >= 3 {
					fmt.Printf("    ... and %d more\n", len(rep.Violations)-3)
					break
				}
				fmt.Printf("    %s\n", v)
			}
			fmt.Println("RESULT: recorded violation still reproduces")
			os.Exit(1)
		}
		fmt.Println("RESULT: recorded violation no longer reproduces")
		return
	}

	var proto core.Protocol
	switch *protoName {
	case "pandora":
		proto = core.ProtocolPandora
	case "ford":
		proto = core.ProtocolFORD
	case "tradlog":
		proto = core.ProtocolTradLog
	default:
		fmt.Fprintf(os.Stderr, "unknown protocol %q\n", *protoName)
		os.Exit(2)
	}

	cfg := litmus.Config{
		Protocol:   proto,
		Iterations: *iterations,
		Seed:       *seed,
		NoCrashes:  *noCrashes,
	}
	tests := litmus.All()
	if *bug != "" {
		bugs := litmus.SeededBugs()
		i := slices.IndexFunc(bugs, func(b litmus.SeededBug) bool { return b.Name == *bug })
		if i < 0 {
			fmt.Fprintf(os.Stderr, "unknown bug %q\n", *bug)
			os.Exit(2)
		}
		// The bug's pinned run, with what the command line sets explicitly.
		cfg, tests = bugs[i].Config(), []litmus.Test{bugs[i].Test}
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "iterations":
				cfg.Iterations = *iterations
			case "seed":
				cfg.Seed = *seed
			case "no-crashes":
				cfg.NoCrashes = *noCrashes
			}
		})
	}
	expectViolations := *bug != ""

	totalViolations := 0
	for _, t := range tests {
		rep, err := litmus.RunTest(t, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", t.Name, err)
			os.Exit(1)
		}
		status := "PASS"
		if len(rep.Violations) > 0 {
			status = "VIOLATIONS"
		}
		fmt.Printf("%-28s %-11s iters=%d crashes=%d recoveries=%d C/A/?=%d/%d/%d violations=%d\n",
			rep.Test, status, rep.Iterations, rep.Crashes, rep.Recoveries,
			rep.Committed, rep.Aborted, rep.Unknown, len(rep.Violations))
		for i, v := range rep.Violations {
			if i >= 3 {
				fmt.Printf("    ... and %d more\n", len(rep.Violations)-3)
				break
			}
			fmt.Printf("    %s\n", v)
		}
		totalViolations += len(rep.Violations)
	}

	if expectViolations && totalViolations == 0 {
		fmt.Println("RESULT: seeded bug was NOT caught")
		os.Exit(1)
	}
	if !expectViolations && totalViolations > 0 {
		fmt.Println("RESULT: protocol FAILED validation")
		os.Exit(1)
	}
	if expectViolations {
		fmt.Printf("RESULT: seeded bug caught (%d violations)\n", totalViolations)
	} else {
		fmt.Println("RESULT: all litmus tests passed")
	}
}
