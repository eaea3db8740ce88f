package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	pandora "pandora"
	"pandora/internal/race"
	"pandora/internal/rdma"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifest checks that BENCHMARK.json is what the metric tables
// generate and that it stays inside the limits its readers enforce.
func TestManifest(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	var onDisk manifest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&onDisk); err != nil {
		t.Fatal(err)
	}
	want := buildManifest()
	if !reflect.DeepEqual(onDisk, want) {
		t.Fatal("BENCHMARK.json differs from the tables in spec.go; regenerate it with `go run ./benchmark -manifest > BENCHMARK.json`")
	}

	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q outside [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if n := len(want.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range want.Workloads {
		name(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(want.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	setup := false
	for _, m := range want.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v out of limits", m)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if n := len(want.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, m := range want.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %+v out of limits", m)
		}
	}
	if want.RunSeconds < 1 || want.RunSeconds > 60 {
		t.Errorf("run_seconds %d", want.RunSeconds)
	}
}

// nopTx is a transaction that touches no system: reads return a fixed
// row carrying the key, writes are dropped.
type nopTx struct{ row [40]byte }

func (n *nopTx) Read(_ string, k pandora.Key) ([]byte, error) {
	putKey(n.row[:], k)
	return n.row[:], nil
}
func (n *nopTx) Write(string, pandora.Key, []byte) error { return nil }
func (n *nopTx) ReadRange(_ string, lo, hi pandora.Key, fn func(pandora.Key, []byte) bool) error {
	for k := lo; k <= hi; k++ {
		putKey(n.row[:], k)
		fn(k, n.row[:])
	}
	return nil
}

func putKey(b []byte, k pandora.Key) { binary.LittleEndian.PutUint64(b, uint64(k)) }

// TestHarnessDoesNotAllocate is the self-test behind allocs_per_tx and
// bytes_per_tx: generating a transaction, running its body against a
// no-op sink and recording its latencies and spans allocates nothing,
// so what a window counts is the system's.
func TestHarnessDoesNotAllocate(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, wl := range workloadSpecs {
		var clk rdma.VClock
		w := &worker{clk: &clk, table: "t", tr: newTracer(&clk)}
		w.rangeFn = func(pandora.Key, []byte) bool { w.rangeN++; return true }
		g := newGenerator(wl.Name, 2000, 1)
		var sink nopTx
		var h hist
		w.tr.traced.inner = &sink
		allocs := testing.AllocsPerRun(2000, func() {
			g.next(&w.cur)
			if err := w.body(&sink); err != nil {
				t.Fatal(err)
			}
			h.record(12345)
			// The span recorder, driven as worker.run drives it.
			w.tr.beginUpdate(w.tr.base, 0)
			w.tr.add(spBegin, w.tr.upIdx, w.tr.tx, 0, 1, 0, 1)
			if err := w.body(&w.tr.traced); err != nil {
				t.Fatal(err)
			}
			w.tr.leave()
			w.tr.endUpdate(w.tr.base, 0, true)
		})
		if allocs != 0 {
			t.Errorf("%s: generator, body and recorders allocate %.1f per tx, want 0", wl.Name, allocs)
		}
	}
}

// TestSmoke runs every workload in both modes and the probes at a
// hundredth of the size, through the command line, and checks names and
// output checks; it asserts nothing about timings.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-scale", "0.01", "-seed", "7", "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d\nstderr: %s\nstdout: %s", code, stderr.String(), stdout.String())
	}
	rep, err := readReport(filepath.Join(out, "report.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Workloads) != len(workloadSpecs) {
		t.Errorf("report has %d workloads, want %d", len(rep.Workloads), len(workloadSpecs))
	}
	for _, wl := range workloadSpecs {
		wr := rep.Workloads[wl.Name]
		if wr == nil {
			t.Errorf("workload %s missing from the report", wl.Name)
			continue
		}
		sameNames(t, wl.Name+" end to end", wr.EndToEnd, endToEndSpecs)
		sameNames(t, wl.Name+" per layer", wr.PerLayer, perLayerSpecs)
		if wr.Failed != 0 || wr.Attempted < 1 {
			t.Errorf("%s: %d of %d failed", wl.Name, wr.Failed, wr.Attempted)
		}
		for _, m := range endToEndSpecs {
			if wr.EndToEnd[m.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v, must be positive", wl.Name, m.Name, wr.EndToEnd[m.Name].Value)
			}
		}
		if _, err := os.Stat(filepath.Join(out, "trace-"+wl.Name+".json")); err != nil {
			t.Errorf("%s: %v", wl.Name, err)
		}
	}
	if v := rep.Workloads[wlFailover].PerLayer["recovery.logged_txs_per_cycle"].Value; v != loggedPerCycle {
		t.Errorf("failover: %v logged txs per cycle, want %d", v, loggedPerCycle)
	}

	// A report agrees with itself.
	var cmp bytes.Buffer
	if code := compare(rep, rep, &cmp); code != 0 {
		t.Errorf("report compared with itself: exit %d\n%s", code, cmp.String())
	}
}

// TestCompareVerdicts pins the rule -compare judges by: a regression
// beyond the bound is "worse" unless the metric is read off the host's
// clock and the regression is within the runs' own slice noise.
func TestCompareVerdicts(t *testing.T) {
	// synthetic returns a report in which every metric is 100 and the
	// slice noise is 0.06, as on an ordinary run.
	synthetic := func() *report {
		r := &report{Seed: 1, Seconds: 15, Scale: 1, Workloads: map[string]*workloadReport{}}
		for _, wl := range workloadSpecs {
			wr := &workloadReport{Attempted: 1000, EndToEnd: map[string]metricValue{}}
			for _, s := range endToEndSpecs {
				wr.EndToEnd[s.Name] = metricValue{100, s.Unit}
			}
			wr.Untraced = &runInfo{SliceQuartiles: [3]float64{97, 100, 103}, SliceIQRShare: 0.06, WindowP50US: 100, WindowP99US: 100}
			r.Workloads[wl.Name] = wr
		}
		return r
	}
	scale := func(r *report, name string, by float64) {
		m := r.Workloads[wlTransfer].EndToEnd[name]
		m.Value *= by
		r.Workloads[wlTransfer].EndToEnd[name] = m
	}
	cases := []struct {
		what  string
		edit  func(a, b *report)
		code  int
		lines []string // each must occur in the output, fields joined by one space
	}{
		{"equal reports", func(a, b *report) {}, 0, []string{"no metric worse than its bound, 0 unresolved"}},
		{"doubled allocations and modelled recovery on a run with slice noise", func(a, b *report) {
			scale(b, "allocs_per_tx", 2)
			scale(b, "recovery_model_us", 2)
		}, 1, []string{"allocs_per_tx 100.0000 200.0000 2.0000 3% worse", "recovery_model_us 100.0000 200.0000 2.0000 1% worse", "2 problem(s)"}},
		{"allocations inside their bound", func(a, b *report) { scale(b, "allocs_per_tx", 1.02) }, 0, []string{"allocs_per_tx 100.0000 102.0000 1.0200 3% ok"}},
		{"halved throughput with slice noise above the bound", func(a, b *report) {
			scale(b, "tx_per_s", 0.5)
			b.Workloads[wlTransfer].Untraced.SliceIQRShare = 0.3
		}, 1, []string{"tx_per_s 100.0000 50.0000 0.5000 25% worse"}},
		{"host-clock regression within the slice noise", func(a, b *report) {
			scale(b, "tx_p50_us", 1.28)
			a.Workloads[wlTransfer].Untraced.SliceIQRShare = 0.3
		}, 0, []string{"tx_p50_us 100.0000 128.0000 1.2800 25% unresolved", "no metric worse than its bound, 1 unresolved"}},
		{"modelled time is never unresolved", func(a, b *report) {
			scale(b, "model_tx_p50_us", 1.28)
			a.Workloads[wlTransfer].Untraced.SliceIQRShare = 0.3
		}, 1, []string{"model_tx_p50_us 100.0000 128.0000 1.2800 3% worse"}},
		{"a stall rarer than the best slice sees", func(a, b *report) {
			b.Workloads[wlTransfer].Untraced.WindowP99US = 150
		}, 1, []string{"tx_p99_us, whole window 100.0000 150.0000 1.5000 25% worse"}},
		{"a failed operation", func(a, b *report) { b.Workloads[wlFailover].Failed = 1 }, 1, nil},
	}
	for _, c := range cases {
		a, b := synthetic(), synthetic()
		c.edit(a, b)
		var out bytes.Buffer
		code := compare(a, b, &out)
		got := strings.Join(strings.Fields(out.String()), " ")
		if code != c.code {
			t.Errorf("%s: exit %d, want %d\n%s", c.what, code, c.code, out.String())
		}
		for _, l := range c.lines {
			if !strings.Contains(got, l) {
				t.Errorf("%s: output lacks %q\n%s", c.what, l, out.String())
			}
		}
	}
}

// TestLastLine checks the shape of a single run's result line.
func TestLastLine(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", wlRMWHot, "--seed", "3", "--seconds", "10", "--trace", "0", "-scale", "0.01", "-out", t.TempDir()}
	if code := realMain(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d\nstderr: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, lines[len(lines)-1])
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := got[k]; !ok {
			t.Errorf("result line lacks %q", k)
		}
	}
	if len(got) != 4 {
		t.Errorf("result line has %d keys, want exactly 4", len(got))
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	sameNames(t, "result line", res.Metrics, endToEndSpecs)
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if code := realMain([]string{"-workload", "nope"}, &stdout, &stderr); code == 0 {
		t.Error("unknown workload accepted")
	}
}

func sameNames(t *testing.T, what string, got map[string]metricValue, want []metricSpec) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics emitted, %d declared", what, len(got), len(want))
	}
	for _, s := range want {
		m, ok := got[s.Name]
		if !ok {
			t.Errorf("%s: declared metric %s not emitted", what, s.Name)
		} else if m.Unit != s.Unit {
			t.Errorf("%s: %s emitted in %q, declared in %q", what, s.Name, m.Unit, s.Unit)
		}
	}
}
