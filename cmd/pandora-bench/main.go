// Command pandora-bench regenerates the paper's evaluation (§6): every
// table and figure has an experiment id. Run them all or one at a time:
//
//	pandora-bench -experiment all
//	pandora-bench -experiment table2
//	pandora-bench -experiment fig8 -quick
//
// Output is plain text: one section per experiment with the series or
// table the paper reports, plus shape notes. EXPERIMENTS.md records a
// full run next to the paper's numbers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	pandora "pandora"
	"pandora/internal/bench"
)

func main() {
	os.Exit(benchMain())
}

// benchMain holds main's body so that deferred profile writers run even
// when an experiment fails (os.Exit skips defers).
func benchMain() int {
	experiment := flag.String("experiment", "all", "experiment id: all, table1, table2, fig6, fig7, fig8, fig9, fig10, fig11, fig12, fig13, fig14, scan, tradrec, tradss, distfd, persist, readcache, commitpipe, soak")
	quick := flag.Bool("quick", false, "run at CI scale instead of full scale")
	jsonOut := flag.String("json", "", "also write machine-readable results of JSON-capable experiments (readcache, table2, commitpipe, soak) to this file")
	metricsOut := flag.String("metrics", "", "write the deterministic observability artifact (per-phase latency percentiles, abort taxonomy, verb counters) of metrics-capable experiments (table2, readcache) to this file")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	mutexprofile := flag.String("mutexprofile", "", "write a mutex-contention profile to this file on exit")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *mutexprofile != "" {
		runtime.SetMutexProfileFraction(5)
		defer writeProfile("mutex", *mutexprofile)
	}
	if *memprofile != "" {
		defer writeProfile("heap", *memprofile)
	}

	s := bench.Full()
	litmusIters := 150
	steadyTx := 1500
	if *quick {
		s = bench.Quick()
		litmusIters = 50
		steadyTx = 300
	}

	ids := strings.Split(*experiment, ",")
	if *experiment == "all" {
		ids = []string{"table1", "table2", "tradrec", "scan", "tradss", "fig6", "fig7",
			"fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "distfd", "persist",
			"readcache", "commitpipe", "soak"}
	}
	metricsRes := map[string]*bench.MetricsResult{}
	for _, id := range ids {
		if err := run(id, s, litmusIters, steadyTx, *quick, *jsonOut, *metricsOut != "", metricsRes); err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", id, err)
			return 1
		}
	}
	if *metricsOut != "" {
		if len(metricsRes) == 0 {
			fmt.Fprintf(os.Stderr, "-metrics: no metrics-capable experiment in %q\n", *experiment)
			return 1
		}
		data, err := json.MarshalIndent(metricsRes, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "-metrics: %v\n", err)
			return 1
		}
		data = append(data, '\n')
		if err := os.WriteFile(*metricsOut, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "-metrics: %v\n", err)
			return 1
		}
		fmt.Printf("[wrote %s]\n", *metricsOut)
	}
	return 0
}

// writeProfile snapshots the named runtime profile into path.
func writeProfile(name, path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%sprofile: %v\n", name, err)
		return
	}
	defer f.Close()
	if name == "heap" {
		runtime.GC() // get up-to-date allocation statistics
	}
	if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
		fmt.Fprintf(os.Stderr, "%sprofile: %v\n", name, err)
	}
}

// writeJSON writes r's JSON artifact to path, unless path is empty.
func writeJSON(path string, r interface{ JSON() ([]byte, error) }) error {
	if path == "" {
		return nil
	}
	data, err := r.JSON()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("[wrote %s]\n", path)
	return nil
}

func section(id, paper string) {
	fmt.Printf("\n===== %s (%s) =====\n", id, paper)
}

func run(id string, s bench.Scale, litmusIters, steadyTx int, quick bool, jsonOut string, wantMetrics bool, metricsRes map[string]*bench.MetricsResult) error {
	start := time.Now()
	defer func() { fmt.Printf("[%s took %v]\n", id, time.Since(start).Round(time.Millisecond)) }()
	switch id {
	case "table1":
		section(id, "Table 1: litmus validation & seeded FORD bugs")
		r, err := bench.Table1(litmusIters)
		if err != nil {
			return err
		}
		fmt.Print(r)
	case "table2":
		section(id, "Table 2: Pandora recovery latency vs outstanding coordinators")
		r, err := bench.Table2(s, pandora.ProtocolPandora)
		if err != nil {
			return err
		}
		fmt.Print(r)
		if jsonOut != "" || wantMetrics {
			// The throughput run above races wall-clock workers, so the
			// machine-readable artifact comes from the deterministic
			// observability side pass (byte-identical per seed).
			m, err := bench.MetricsPass(id, s, steadyTx)
			if err != nil {
				return err
			}
			fmt.Print(m)
			metricsRes[id] = m
			if err := writeJSON(jsonOut, m); err != nil {
				return err
			}
		}
	case "tradrec":
		section(id, "§6.1: traditional lock-logging recovery latency")
		r, err := bench.Table2(s, pandora.ProtocolTradLog)
		if err != nil {
			return err
		}
		fmt.Print(r)
	case "scan":
		section(id, "§6.1: Baseline stop-the-world scan recovery")
		fmt.Print(bench.BaselineScan([]int{250_000, 500_000, 1_000_000, 2_000_000}))
	case "tradss":
		section(id, "§6.2.1: traditional lock-logging steady-state overhead")
		r, err := bench.SteadyStateOverhead(s, steadyTx)
		if err != nil {
			return err
		}
		fmt.Print(r)
	case "fig6":
		section(id, "Figure 6: PILL steady-state overhead")
		r, err := bench.Fig6(s)
		if err != nil {
			return err
		}
		fmt.Print(r)
	case "fig7":
		section(id, "Figure 7: steady-state vs MTTF")
		// The paper's 40 s run uses MTTF 10/2/1 s; scaled to our
		// timeline these keep the same failures-per-run ratios.
		mttfs := []time.Duration{s.Timeline / 4, s.Timeline / 8, s.Timeline / 12}
		r, err := bench.Fig7(s, mttfs)
		if err != nil {
			return err
		}
		fmt.Print(r)
	case "fig8", "fig9", "fig10", "fig11", "fig12":
		names := map[string]string{
			"fig8": "micro", "fig9": "smallbank", "fig10": "tatp", "fig11": "tpcc", "fig12": "smallbank",
		}
		coords := 0
		note := ""
		if id == "fig12" {
			coords = s.Coordinators / 2
			note = " [low contention: half the coordinators]"
		}
		section(id, fmt.Sprintf("Fail-over throughput: %s%s", names[id], note))
		r, err := bench.Failover(s, names[id], coords)
		if err != nil {
			return err
		}
		fmt.Print(r)
	case "fig13", "fig14":
		hot := 1000
		if id == "fig14" {
			hot = 100_000
		}
		if hot > s.Keys {
			hot = s.Keys
		}
		section(id, fmt.Sprintf("Stall sensitivity, hot=%d", hot))
		r, err := bench.StallSensitivity(s, hot, s.Timeline/2)
		if err != nil {
			return err
		}
		fmt.Print(r)
	case "persist":
		section(id, "§7 ablation: NVM persistence flush overhead")
		r, err := bench.PersistenceOverhead(s, steadyTx)
		if err != nil {
			return err
		}
		fmt.Print(r)
	case "distfd":
		section(id, "§6.4: distributed failure detector")
		r, err := bench.DistributedFD(3, 5*time.Millisecond)
		if err != nil {
			return err
		}
		fmt.Print(r)
	case "readcache":
		section(id, "Validated read cache: zipfian read latency vs no-cache baseline")
		r, err := bench.ReadCache(s, steadyTx*4)
		if err != nil {
			return err
		}
		fmt.Print(r)
		if err := writeJSON(jsonOut, r); err != nil {
			return err
		}
		if wantMetrics {
			m, err := bench.MetricsPass(id, s, steadyTx)
			if err != nil {
				return err
			}
			metricsRes[id] = m
		}
	case "commitpipe":
		section(id, "Pipelined commit tail: doorbell fusion")
		r, err := bench.CommitPipe(s, steadyTx/5)
		if err != nil {
			return err
		}
		fmt.Print(r)
		if err := writeJSON(jsonOut, r); err != nil {
			return err
		}
	case "soak":
		section(id, "Endurance lane: mixed TATP+SmallBank tenants, fault schedule, tuned knobs")
		sc := bench.SoakFull()
		if quick {
			sc = bench.SoakQuick()
		}
		r, err := bench.Soak(sc, 42)
		if err != nil {
			return err
		}
		fmt.Print(r)
		if err := writeJSON(jsonOut, r); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown experiment %q", id)
	}
	return nil
}
