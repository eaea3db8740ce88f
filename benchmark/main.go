// Command benchmark is the repository's performance instrument: four
// named workloads, each measured on two clocks (host wall/CPU/allocs and
// the modelled VClock), end to end with spans off and layer by layer
// with spans on. See README.md in this directory.
//
//	go run ./benchmark                          every workload, both modes, report in benchmark/out
//	go run ./benchmark -workload rmw_hot -trace 1
//	go run ./benchmark -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "one of transfer_uniform, read_zipf, rmw_hot, failover; empty runs all four, untraced then traced")
		seed     = fs.Int64("seed", 1, "seed of every generated input")
		seconds  = fs.Float64("seconds", defaultSeconds, "measured time per run")
		trace    = fs.String("trace", "", "0: end-to-end metrics, spans off; 1: per-layer metrics, spans on; empty: 0 with -workload, both without")
		scale    = fs.Float64("scale", 1, "scales table sizes, windows and iteration counts (the smoke test uses 0.01)")
		outDir   = fs.String("out", filepath.Join("benchmark", "out"), "directory for trace files and report.json")
		compare  = fs.Bool("compare", false, "compare two report.json files given as arguments")
		manifest = fs.Bool("manifest", false, "print BENCHMARK.json as generated from the metric tables")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *manifest:
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(buildManifest()); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare A.json B.json")
			return 2
		}
		return compareReports(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || *seconds <= 0 || *scale <= 0 || (*trace != "" && *trace != "0" && *trace != "1") {
		fmt.Fprintln(stderr, "benchmark: bad arguments; see -help")
		return 2
	}

	// The load is sized to two cores: one session per compute node.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	o := options{seed: *seed, seconds: *seconds, scale: *scale, outDir: *outDir}
	fmt.Fprintln(stdout, header())

	if *workload != "" {
		if !knownWorkload(*workload) {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *workload)
			return 2
		}
		o.workload, o.trace = *workload, *trace == "1"
		res, info, err := run(o)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		printRun(stdout, o, res, info)
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
		if !res.Correct {
			return 1
		}
		return 0
	}

	rep := report{Header: header(), Seed: *seed, Seconds: *seconds, Scale: *scale, Workloads: map[string]*workloadReport{}}
	ok := true
	for _, w := range workloadSpecs {
		wr := &workloadReport{}
		rep.Workloads[w.Name] = wr
		for _, traced := range []bool{false, true} {
			if (traced && *trace == "0") || (!traced && *trace == "1") {
				continue
			}
			o.workload, o.trace = w.Name, traced
			res, info, err := run(o)
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
			printRun(stdout, o, res, info)
			wr.add(traced, res, info)
			ok = ok && res.Correct
		}
	}
	path := filepath.Join(*outDir, "report.json")
	if err := rep.write(path); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "report written to %s\n", path)
	if !ok {
		fmt.Fprintln(stdout, "FAILED: at least one output check failed")
		return 1
	}
	return 0
}

func knownWorkload(name string) bool {
	for _, w := range workloadSpecs {
		if w.Name == name {
			return true
		}
	}
	return false
}

// header records what the numbers depend on besides the code.
func header() string {
	load := "n/a"
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		load = strings.Join(strings.Fields(string(b))[:3], " ")
	}
	return fmt.Sprintf("# benchmark: nproc=%d gomaxprocs=2 %s %s/%s loadavg=%s",
		runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH, load)
}

// printRun prints every metric of a run by name with its unit.
func printRun(w io.Writer, o options, res result, info runInfo) {
	mode := "end to end, spans off"
	if o.trace {
		mode = "per layer, spans on"
	}
	fmt.Fprintf(w, "\n== %s (%s) seed=%d seconds=%g scale=%g: %d attempted, %d failed, %d GC cycles\n",
		o.workload, mode, o.seed, o.seconds, o.scale, res.Attempted, res.Failed, info.GCs)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "%-36s %16.4f %s\n", n, m.Value, m.Unit)
	}
	if !o.trace {
		q := info.SliceQuartiles
		fmt.Fprintf(w, "tx_per_s slices: q1 %.0f  median %.0f  q3 %.0f  IQR/median %.3f; whole-window tx p50 %.4f us, p99 %.4f us over %d txs\n",
			q[0], q[1], q[2], info.SliceIQRShare, info.WindowP50US, info.WindowP99US, info.Samples)
		if info.SliceIQRShare > noisySliceIQR {
			fmt.Fprintf(w, "WARNING: slice IQR/median %.3f > %.2f: the host is noisy; best-slice timings may still be off\n",
				info.SliceIQRShare, noisySliceIQR)
		}
	}
	for _, p := range info.Problems {
		fmt.Fprintln(w, "CHECK FAILED:", p)
	}
}
