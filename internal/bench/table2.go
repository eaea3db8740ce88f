package bench

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	pandora "pandora"
	"pandora/internal/core"
	"pandora/internal/kvlayout"
	"pandora/internal/workload"
)

// Table2Result holds the recovery-latency sweep: per (benchmark,
// outstanding-coordinators) cell the modelled latency (RecoveryStats.VTime,
// the wait on an unlogged stray lock) and settle time (Settled, the wait
// on a logged transaction's lock), plus how many logged transactions
// recovery actually processed.
type Table2Result struct {
	Protocol  pandora.Protocol
	Coords    []int
	Bench     []string
	Latency   map[string]map[int]time.Duration
	Settled   map[string]map[int]time.Duration
	LoggedTxs map[string]map[int]int
}

// Table2 reproduces Table 2 (and, with ProtocolTradLog, the §6.1
// traditional-logging-scheme comparison): the recovery latency of a
// compute-node failure as the number of outstanding transaction
// coordinators grows.
//
// Failure emulation follows the paper (§6.1): the compute node's
// process stops with all in-flight transactions mid-protocol. To make
// the measurement deterministic, every coordinator is driven to the
// post-logging point of a workload transaction before the node stops —
// these are exactly the "outstanding transactions" recovery must roll.
func Table2(s Scale, proto pandora.Protocol) (*Table2Result, error) {
	res := &Table2Result{
		Protocol:  proto,
		Coords:    s.CoordSweep,
		Bench:     []string{"tpcc", "smallbank", "tatp", "micro100w"},
		Latency:   map[string]map[int]time.Duration{},
		Settled:   map[string]map[int]time.Duration{},
		LoggedTxs: map[string]map[int]int{},
	}
	for _, bn := range res.Bench {
		res.Latency[bn] = map[int]time.Duration{}
		res.Settled[bn] = map[int]time.Duration{}
		res.LoggedTxs[bn] = map[int]int{}
		for _, coords := range s.CoordSweep {
			st, err := recoveryLatencyOnce(s, bn, proto, coords)
			if err != nil {
				return nil, fmt.Errorf("table2 %s/%d: %w", bn, coords, err)
			}
			res.Latency[bn][coords] = st.VTime
			res.Settled[bn][coords] = st.Settled
			res.LoggedTxs[bn][coords] = st.LoggedTxs
		}
	}
	return res, nil
}

// recoveryLatencyOnce measures one Table-2 cell.
func recoveryLatencyOnce(s Scale, benchName string, proto pandora.Protocol, coords int) (pandora.RecoveryStats, error) {
	w := s.workloadByName(benchName)
	if benchName == "tpcc" && coords > 32 {
		// Standard TPC-C scales warehouses with clients; without this,
		// the warehouse hot rows prevent most coordinators from ever
		// being mid-transaction simultaneously.
		w = &workload.TPCC{Warehouses: coords / 16, CustomersPerDistrict: 50, Items: 500, OrderCapacity: 512}
	}
	c, err := clusterFor(w, func(cfg *pandora.Config) {
		cfg.Protocol = proto
		cfg.CoordinatorsPerNode = coords
		cfg.ModelLatency = true
	})
	if err != nil {
		return pandora.RecoveryStats{}, err
	}
	defer c.Close()

	// Drive the victim's coordinators to the post-logging point, then
	// stop the node: the parked ones hold Logged-Stray-Txs, the paper's
	// "outstanding transactions per compute node".
	var arrived atomic.Int32
	victim := c.Engine(0)
	// Park half the coordinators at the post-logging point: in a real
	// crash, in-flight transactions are spread over the protocol phases
	// and roughly this fraction is in the logged window. (Parking all of
	// them is impossible anyway on contended benchmarks — parked
	// transactions hold hot-row locks.)
	target := int32(coords/2 + 1)
	parkDeadline := time.Now().Add(2 * time.Second)
	victim.SetInjector(func(_ kvlayout.CoordID, p core.CrashPoint) bool {
		if p != core.PointAfterLog {
			return victim.Crashed()
		}
		// The first `target` coordinators to reach the logging point
		// park there (holding their logged transactions); the rest run
		// on and are caught wherever the crash finds them.
		for {
			n := arrived.Load()
			if n >= target {
				return victim.Crashed()
			}
			if arrived.CompareAndSwap(n, n+1) {
				break
			}
		}
		for !victim.Crashed() && time.Now().Before(parkDeadline) {
			time.Sleep(20 * time.Microsecond)
		}
		return true
	})

	stop := make(chan struct{})
	done := make(chan workload.Result, 1)
	go func() {
		done <- workload.Run(workload.DriverConfig{
			Cluster:  c,
			Workload: w,
			Duration: 10 * time.Second,
			Stop:     stop,
			Seed:     42,
			Nodes:    []int{0},
		})
	}()
	// Stop the process once enough coordinators are parked (or the
	// deadline passes on contended benchmarks).
	for arrived.Load() < target && time.Now().Before(parkDeadline) {
		time.Sleep(100 * time.Microsecond)
	}
	victim.Crash()
	close(stop)
	<-done

	return c.FailCompute(0)
}

// String renders the table in the paper's layout, each cell the recovery
// latency and then the settle time.
func (r *Table2Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Recovery latency | settled (%s), by outstanding coordinators per compute node:\n", r.Protocol)
	fmt.Fprintf(&b, "%-12s", "Bench\\Coord")
	for _, c := range r.Coords {
		fmt.Fprintf(&b, " %16d", c)
	}
	b.WriteByte('\n')
	for _, bn := range r.Bench {
		fmt.Fprintf(&b, "%-12s", bn)
		for _, c := range r.Coords {
			fmt.Fprintf(&b, " %16s", fmtUS(r.Latency[bn][c])+" | "+fmtUS(r.Settled[bn][c]))
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "(logged txs recovered per cell: ")
	for _, bn := range r.Bench {
		fmt.Fprintf(&b, "%s=%d..%d ", bn, r.LoggedTxs[bn][r.Coords[0]], r.LoggedTxs[bn][r.Coords[len(r.Coords)-1]])
	}
	b.WriteString(")\n")
	return b.String()
}

func fmtUS(d time.Duration) string {
	return fmt.Sprintf("%d us", d.Microseconds())
}

// ScanResult is the §6.1 baseline figure: modelled stop-the-world scan
// time as the dataset grows.
type ScanResult struct {
	Keys []int
	Time []time.Duration
}

// BaselineScan reproduces the §6.1 claim that the Baseline's recovery
// scans the entire KVS, costing ~5 s per million keys with one scanning
// thread.
func BaselineScan(keyCounts []int) *ScanResult {
	w := &workload.Micro{Keys: 1000, WriteRatio: 1}
	c, err := clusterFor(w, func(cfg *pandora.Config) {
		cfg.Protocol = pandora.ProtocolFORD
		cfg.DisablePILL = true
		cfg.ModelLatency = true
	})
	if err != nil {
		panic(err)
	}
	defer c.Close()
	res := &ScanResult{}
	for _, k := range keyCounts {
		res.Keys = append(res.Keys, k)
		res.Time = append(res.Time, c.Recovery().ScanTimeEstimate(k))
	}
	return res
}

// String renders the scan sweep.
func (r *ScanResult) String() string {
	var b strings.Builder
	b.WriteString("Baseline stop-the-world scan recovery (modelled, one thread):\n")
	for i, k := range r.Keys {
		fmt.Fprintf(&b, "  %9d keys: %8.2f s\n", k, r.Time[i].Seconds())
	}
	return b.String()
}
