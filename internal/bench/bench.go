// Package bench is the experiment harness that regenerates every table
// and figure of the paper's evaluation (§6). Each experiment returns a
// structured result with a textual rendering; cmd/pandora-bench drives
// them from the command line and bench_test.go exposes testing.B
// wrappers.
//
// Two measurement modes are used, matching DESIGN.md:
//
//   - Latency-shaped experiments (Table 2, the baseline scan, the
//     traditional-logging comparisons) run with the modelled RDMA
//     latency (2 µs RTT, 100 Gbps) and report virtual time — recovery
//     latency is a count of dependent round trips, which the model
//     reproduces exactly.
//   - Throughput time-series experiments (Figures 6-14) run in real
//     time on the in-process fabric; absolute rates differ from the
//     paper's testbed, but the shapes (drops, recoveries, crossovers)
//     are what the experiments demonstrate.
package bench

import (
	"fmt"
	"strings"
	"time"

	pandora "pandora"
	"pandora/internal/trace"
	"pandora/internal/workload"
)

// Scale compresses the experiments for quick runs (tests/benches) or
// expands them for the full reproduction (cmd/pandora-bench).
type Scale struct {
	// Timeline is the duration of each throughput time series.
	Timeline time.Duration
	// Bucket is the time-series resolution.
	Bucket time.Duration
	// Coordinators per compute node in timeline experiments; the paper
	// uses 128 total over 2 compute nodes.
	Coordinators int
	// Keys scales the microbenchmark dataset.
	Keys int
	// CoordSweep is the Table-2 coordinator sweep.
	CoordSweep []int
}

// Full is the paper-shaped scale (condensed timeline: the paper's 40 s
// runs carry no more information than a few seconds at this fidelity).
func Full() Scale {
	return Scale{
		Timeline:     3 * time.Second,
		Bucket:       100 * time.Millisecond,
		Coordinators: 64, // ×2 compute nodes = 128, as in §4.1
		Keys:         100_000,
		CoordSweep:   []int{1, 8, 64, 128, 256, 512},
	}
}

// Quick is the CI-sized scale.
func Quick() Scale {
	return Scale{
		Timeline:     800 * time.Millisecond,
		Bucket:       50 * time.Millisecond,
		Coordinators: 8,
		Keys:         10_000,
		CoordSweep:   []int{1, 8, 32},
	}
}

// workloadByName builds the paper's benchmarks at this scale.
func (s Scale) workloadByName(name string) workload.Workload {
	switch name {
	case "tpcc":
		return &workload.TPCC{Warehouses: 2, CustomersPerDistrict: 50, Items: 500, OrderCapacity: 512}
	case "smallbank":
		return &workload.SmallBank{Accounts: s.Keys / 2}
	case "tatp":
		return &workload.TATP{Subscribers: s.Keys / 4}
	case "micro":
		return &workload.Micro{Keys: s.Keys, WriteRatio: 0.5}
	case "micro100w":
		return &workload.Micro{Keys: s.Keys, WriteRatio: 1.0}
	default:
		panic("bench: unknown workload " + name)
	}
}

// clusterFor builds and loads a cluster for w.
func clusterFor(w workload.Workload, edit func(*pandora.Config)) (*pandora.Cluster, error) {
	cfg := pandora.Config{
		MemoryNodes:         2,
		ComputeNodes:        2,
		Replication:         2,
		Tables:              w.Tables(),
		CoordinatorsPerNode: 2,
	}
	if edit != nil {
		edit(&cfg)
	}
	c, err := pandora.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := w.Load(c); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// Series is one named throughput time series.
type Series struct {
	Name   string
	Points []trace.Point
}

// render prints a compact sparkline-style table of the series.
func renderSeries(title string, series []Series, bucket time.Duration) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (bucket %v, committed tx/s)\n", title, bucket)
	if len(series) == 0 {
		return b.String()
	}
	n := 0
	for _, s := range series {
		if len(s.Points) > n {
			n = len(s.Points)
		}
	}
	fmt.Fprintf(&b, "%10s", "t")
	for _, s := range series {
		fmt.Fprintf(&b, " %14s", s.Name)
	}
	b.WriteByte('\n')
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%10v", time.Duration(i)*bucket)
		for _, s := range series {
			if i < len(s.Points) {
				fmt.Fprintf(&b, " %14.0f", s.Points[i].PerSec)
			} else {
				fmt.Fprintf(&b, " %14s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// meanRate computes the mean committed-tx/s over buckets whose start
// offset falls in [from, to).
func meanRate(pts []trace.Point, from, to, bucket time.Duration) float64 {
	var c int64
	n := 0
	for _, p := range pts {
		if p.T >= from && p.T < to {
			c += p.Count
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(c) / (time.Duration(n) * bucket).Seconds()
}
