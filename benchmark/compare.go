package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// report is what a full invocation (every workload, both modes) writes
// to <out>/report.json and what -compare reads.
type report struct {
	Header    string                     `json:"header"`
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Scale     float64                    `json:"scale"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

type workloadReport struct {
	EndToEnd map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer map[string]metricValue `json:"per_layer,omitempty"`
	// Attempted and Failed add up both runs.
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	// Untraced and Traced hold each run's noise indicators and, for the
	// traced run, the single-session counts that must repeat exactly.
	Untraced *runInfo `json:"untraced,omitempty"`
	Traced   *runInfo `json:"traced,omitempty"`
}

func (w *workloadReport) add(traced bool, res result, info runInfo) {
	w.Attempted += res.Attempted
	w.Failed += res.Failed
	if traced {
		w.PerLayer, w.Traced = res.Metrics, &info
	} else {
		w.EndToEnd, w.Untraced = res.Metrics, &info
	}
}

func (r *report) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareReports prints, per workload and end-to-end metric, both
// values, the ratio B/A and a verdict against the metric's bound:
//
//	ok          B is not worse than A by more than the bound
//	unresolved  it is, the metric is read off the host's clock, and the
//	            difference is no larger than the noisier run's own
//	            tx_per_s slice IQR/median: the host may have done it
//	worse       it is, by more than that noise; counts, allocations and
//	            modelled times do not see the host and are always held
//	            to their bound
//
// The whole-window timings, which see a stall that spares the best
// slice, get rows of their own under the same rule. The counts that
// must repeat exactly are compared for equality. The exit code is 1 on
// any "worse", failure or inequality.
func compareReports(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readReport(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	b, err := readReport(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	return compare(a, b, stdout)
}

// windowSpecs are the whole-window views of the host-clock metrics that
// an untraced run records beside its result. -compare holds them to the
// widest bound too, because the best slice cannot see a stall that
// spares one slice in forty, and no end-to-end metric reads the tail.
var windowSpecs = []struct {
	metricSpec
	value func(*runInfo) float64
}{
	{metricSpec{Name: "tx_per_s, median slice", Better: "higher", Bound: 0.25, Host: true}, func(i *runInfo) float64 { return i.SliceQuartiles[1] }},
	{metricSpec{Name: "tx_p50_us, whole window", Better: "lower", Bound: 0.25, Host: true}, func(i *runInfo) float64 { return i.WindowP50US }},
	{metricSpec{Name: "tx_p99_us, whole window", Better: "lower", Bound: 0.25, Host: true}, func(i *runInfo) float64 { return i.WindowP99US }},
}

// verdict judges value vb of metric s against va, given the noisier
// run's slice IQR/median.
func verdict(s metricSpec, va, vb, noise float64) string {
	if va <= 0 || vb <= 0 {
		return "missing or zero"
	}
	worseBy := vb/va - 1
	if s.Better == "higher" {
		worseBy = 1 - vb/va
	}
	switch {
	case worseBy <= s.Bound:
		return "ok"
	case s.Host && worseBy <= noise:
		return "unresolved"
	}
	return "worse"
}

func compare(a, b *report, w io.Writer) int {
	bad, unresolved := 0, 0
	fmt.Fprintf(w, "A: %s seed=%d seconds=%g\nB: %s seed=%d seconds=%g\n", a.Header, a.Seed, a.Seconds, b.Header, b.Seed, b.Seconds)
	for _, ws := range workloadSpecs {
		wa, wb := a.Workloads[ws.Name], b.Workloads[ws.Name]
		if wa == nil || wb == nil {
			fmt.Fprintf(w, "\n%s: missing from a report\n", ws.Name)
			bad++
			continue
		}
		fmt.Fprintf(w, "\n%s: failed %d of %d (A), %d of %d (B)\n", ws.Name, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted)
		if wa.Failed != 0 || wb.Failed != 0 {
			bad++
		}
		noise := 0.0
		for _, info := range []*runInfo{wa.Untraced, wb.Untraced} {
			if info != nil && info.SliceIQRShare > noise {
				noise = info.SliceIQRShare
			}
		}
		fmt.Fprintf(w, "%-28s %14s %14s %9s %7s  %s\n", "metric", "A", "B", "B/A", "bound", "verdict")
		row := func(s metricSpec, va, vb float64) {
			v := verdict(s, va, vb, noise)
			fmt.Fprintf(w, "%-28s %14.4f %14.4f %9.4f %6.0f%%  %s\n", s.Name, va, vb, vb/va, s.Bound*100, v)
			switch v {
			case "unresolved":
				unresolved++
			case "ok":
			default:
				bad++
			}
		}
		for _, s := range endToEndSpecs {
			row(s, wa.EndToEnd[s.Name].Value, wb.EndToEnd[s.Name].Value)
		}
		if wa.Untraced != nil && wb.Untraced != nil {
			for _, win := range windowSpecs {
				row(win.metricSpec, win.value(wa.Untraced), win.value(wb.Untraced))
			}
		}
		fmt.Fprintf(w, "slice IQR/median: %.3f (the larger of the two runs)\n", noise)

		if wa.Traced == nil || wb.Traced == nil {
			continue
		}
		if a.Seed != b.Seed || a.Seconds != b.Seconds || a.Scale != b.Scale {
			fmt.Fprintln(w, "exact counts: not compared, the runs differ in seed, seconds or scale")
			continue
		}
		diff := diffExact(wa.Traced.Exact, wb.Traced.Exact)
		for _, d := range diff {
			fmt.Fprintf(w, "exact count %s (A != B)\n", d)
		}
		unequal := len(diff)
		// Modelled per-layer values are functions of those counts.
		for _, s := range perLayerSpecs {
			if s.Kind == "exact" && wa.PerLayer[s.Name].Value != wb.PerLayer[s.Name].Value {
				fmt.Fprintf(w, "exact metric %s: %v (A) != %v (B)\n", s.Name, wa.PerLayer[s.Name].Value, wb.PerLayer[s.Name].Value)
				unequal++
			}
		}
		if unequal == 0 {
			fmt.Fprintf(w, "exact counts: %d counts and every exact per-layer metric identical\n", len(wa.Traced.Exact))
		}
		bad += unequal
	}
	if bad > 0 {
		fmt.Fprintf(w, "\n%d problem(s)\n", bad)
		return 1
	}
	fmt.Fprintf(w, "\nno metric worse than its bound, %d unresolved\n", unresolved)
	return 0
}
