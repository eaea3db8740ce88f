package bench

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	pandora "pandora"
	"pandora/internal/rdma"
	"pandora/internal/workload"
)

// OverheadResult compares per-transaction protocol cost in modelled
// network time, reproducing §6.2.1: the traditional lock-logging scheme
// pays an extra round trip per lock, so its overhead grows with the
// write ratio; FORD-mode per-object logging is likewise costlier than
// Pandora's single-WRITE logging phase.
type OverheadResult struct {
	Bench []string
	// TPS is modelled single-coordinator throughput (transactions per
	// modelled second) per protocol.
	TPS map[string]map[pandora.Protocol]float64
}

// SteadyStateOverhead measures the modelled per-transaction cost of the
// three protocols on each benchmark, single coordinator, no failures.
// Virtual time counts exactly the dependent RDMA round trips, which is
// what separates the schemes on real hardware.
func SteadyStateOverhead(s Scale, txPerRun int) (*OverheadResult, error) {
	res := &OverheadResult{
		Bench: []string{"micro100w", "smallbank", "tpcc", "tatp"},
		TPS:   map[string]map[pandora.Protocol]float64{},
	}
	protos := []pandora.Protocol{pandora.ProtocolPandora, pandora.ProtocolFORD, pandora.ProtocolTradLog}
	for _, bn := range res.Bench {
		res.TPS[bn] = map[pandora.Protocol]float64{}
		for _, proto := range protos {
			tps, err := modelledThroughput(s, bn, proto, txPerRun)
			if err != nil {
				return nil, fmt.Errorf("steady %s/%v: %w", bn, proto, err)
			}
			res.TPS[bn][proto] = tps
		}
	}
	return res, nil
}

func modelledThroughput(s Scale, benchName string, proto pandora.Protocol, txPerRun int) (float64, error) {
	w := s.workloadByName(benchName)
	c, err := clusterFor(w, func(cfg *pandora.Config) {
		cfg.Protocol = proto
		cfg.ModelLatency = true
		cfg.CoordinatorsPerNode = 1
	})
	if err != nil {
		return 0, err
	}
	defer c.Close()

	sess := c.Session(0, 0)
	var clk rdma.VClock
	c.Engine(0).Coordinator(0).WithClock(&clk)
	r := rand.New(rand.NewSource(11))

	// Warm the address caches so the measurement reflects protocol
	// cost, not first-touch probing.
	for i := 0; i < txPerRun/4; i++ {
		runOne(sess, w, r)
	}
	clk.Reset()
	committed := 0
	for committed < txPerRun {
		if runOne(sess, w, r) {
			committed++
		}
	}
	return float64(committed) / clk.Now().Seconds(), nil
}

func runOne(sess *pandora.Session, w workload.Workload, r *rand.Rand) bool {
	fn := w.Next(r)
	tx := sess.Begin()
	err := fn(tx, r)
	if err == nil {
		err = tx.Commit()
	} else if !tx.Done() {
		_ = tx.Abort()
	}
	return err == nil
}

// String renders the overhead table.
func (r *OverheadResult) String() string {
	var b strings.Builder
	b.WriteString("Modelled steady-state throughput (single coordinator, tx per modelled second):\n")
	fmt.Fprintf(&b, "%-12s %12s %12s %12s %18s\n", "Bench", "Pandora", "FORD", "TradLog", "TradLog overhead")
	for _, bn := range r.Bench {
		p := r.TPS[bn][pandora.ProtocolPandora]
		f := r.TPS[bn][pandora.ProtocolFORD]
		t := r.TPS[bn][pandora.ProtocolTradLog]
		fmt.Fprintf(&b, "%-12s %12.0f %12.0f %12.0f %17.1f%%\n", bn, p, f, t, 100*(1-t/p))
	}
	return b.String()
}

// DistFDResult is the §6.4 distributed-FD check.
type DistFDResult struct {
	Replicas      int
	DetectRecover time.Duration
	RecoverOnly   time.Duration
}

// DistributedFD measures end-to-end recovery (timeout detection through
// stray-lock notification) with a quorum-replicated failure detector.
// The paper reports under 20 ms with three replicas.
func DistributedFD(replicas int, fdTimeout time.Duration) (*DistFDResult, error) {
	w := &workload.Micro{Keys: 1000, WriteRatio: 1}
	c, err := clusterFor(w, func(cfg *pandora.Config) {
		cfg.FDReplicas = replicas
		cfg.LiveFD = true
		cfg.FDTimeout = fdTimeout
	})
	if err != nil {
		return nil, err
	}
	defer c.Close()

	// The victim takes a lock and goes silent.
	vs := c.Session(0, 0)
	tx := vs.Begin()
	if err := tx.Write("micro", 3, []byte("locked")); err != nil {
		return nil, err
	}
	start := time.Now()
	c.CrashCompute(0)

	// End-to-end: the survivor can write the key only after detection,
	// log recovery and the stray-lock notification.
	s := c.Session(1, 0)
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := s.Update(0, func(tx *pandora.Tx) error {
			return tx.Write("micro", 3, []byte("survivor"))
		})
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return nil, errors.New("distfd: survivor never unblocked")
		}
		time.Sleep(200 * time.Microsecond)
	}
	e2e := time.Since(start)
	st, err := c.LastRecovery(0)
	if err != nil {
		return nil, err
	}
	return &DistFDResult{Replicas: replicas, DetectRecover: e2e, RecoverOnly: st.WallTime}, nil
}

// String renders the result.
func (r *DistFDResult) String() string {
	return fmt.Sprintf("Distributed FD (%d replicas): end-to-end detect+recover+unblock = %v (recovery step alone %v)\n",
		r.Replicas, r.DetectRecover.Round(100*time.Microsecond), r.RecoverOnly.Round(10*time.Microsecond))
}

// PersistenceResult is the §7 ablation: modelled per-transaction cost of
// the NVM flush discipline.
type PersistenceResult struct {
	Bench       []string
	VolatileTPS map[string]float64
	PersistTPS  map[string]float64
}

// PersistenceOverhead measures the modelled cost of making commits
// durable with the selective one-sided flush scheme (§7): log flushed
// before apply, data flushed before ack. With battery-backed DRAM (the
// default mode) both flushes disappear.
func PersistenceOverhead(s Scale, txPerRun int) (*PersistenceResult, error) {
	res := &PersistenceResult{
		Bench:       []string{"micro100w", "smallbank", "tatp"},
		VolatileTPS: map[string]float64{},
		PersistTPS:  map[string]float64{},
	}
	for _, bn := range res.Bench {
		for _, persist := range []bool{false, true} {
			w := s.workloadByName(bn)
			c, err := clusterFor(w, func(cfg *pandora.Config) {
				cfg.ModelLatency = true
				cfg.CoordinatorsPerNode = 1
				cfg.Persistence = persist
			})
			if err != nil {
				return nil, err
			}
			sess := c.Session(0, 0)
			var clk rdma.VClock
			c.Engine(0).Coordinator(0).WithClock(&clk)
			r := rand.New(rand.NewSource(19))
			for i := 0; i < txPerRun/4; i++ {
				runOne(sess, w, r)
			}
			clk.Reset()
			committed := 0
			for committed < txPerRun {
				if runOne(sess, w, r) {
					committed++
				}
			}
			tps := float64(committed) / clk.Now().Seconds()
			if persist {
				res.PersistTPS[bn] = tps
			} else {
				res.VolatileTPS[bn] = tps
			}
			c.Close()
		}
	}
	return res, nil
}

// String renders the ablation.
func (r *PersistenceResult) String() string {
	var b strings.Builder
	b.WriteString("NVM persistence ablation (§7; modelled single-coordinator throughput):\n")
	fmt.Fprintf(&b, "%-12s %14s %14s %12s\n", "Bench", "battery-DRAM", "NVM+flush", "overhead")
	for _, bn := range r.Bench {
		v, p := r.VolatileTPS[bn], r.PersistTPS[bn]
		fmt.Fprintf(&b, "%-12s %14.0f %14.0f %11.1f%%\n", bn, v, p, 100*(1-p/v))
	}
	return b.String()
}
