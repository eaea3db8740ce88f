package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"

	pandora "pandora"
	"pandora/internal/conftest"
	"pandora/internal/core"
	"pandora/internal/kvlayout"
	"pandora/internal/workload"
)

// Soak is the endurance lane: a multi-tenant cluster (TATP and
// SmallBank sharing one store) runs for many rounds of seeded sessions
// across every coordinator, with compute crashes, recoveries, restarts
// and a memory-node failover injected at fixed round boundaries, under
// the tuned configuration (the validated read cache). Like MetricsPass, the whole run is sequential on virtual
// clocks: transactions issue in program order from a single seeded
// PRNG, faults land at deterministic points, and the emitted artifact
// (bin/BENCH_soak.json) is byte-identical for a given seed — CI
// regenerates and cmp-compares it.

// SoakScale sizes a soak run.
type SoakScale struct {
	// Rounds of the session sweep; faults fire after rounds/4, rounds/2
	// and 3*rounds/4.
	Rounds int
	// TxPerRound is transactions per session per round.
	TxPerRound int
	// Coords is coordinators (sessions) per compute node.
	Coords int
	// Subscribers sizes TATP; SmallBank gets the same account count.
	Subscribers int
}

// SoakQuick is the CI-sized soak (also the shape of the checked-in
// artifact).
func SoakQuick() SoakScale {
	return SoakScale{Rounds: 8, TxPerRound: 12, Coords: 3, Subscribers: 2000}
}

// SoakFull is the overnight shape.
func SoakFull() SoakScale {
	return SoakScale{Rounds: 24, TxPerRound: 50, Coords: 4, Subscribers: 10000}
}

// SoakTenant is one workload's tally.
type SoakTenant struct {
	Name      string `json:"name"`
	Committed uint64 `json:"committed"`
	Aborted   uint64 `json:"aborted"`
}

// SoakFault is one injected fault and what its recovery found. Virtual
// time only — wall time would break the byte-compare.
type SoakFault struct {
	Round           int    `json:"round"`
	Kind            string `json:"kind"` // compute-crash | memory-failover
	Node            int    `json:"node"`
	LoggedTxs       int    `json:"logged_txs"`
	RolledForward   int    `json:"rolled_forward"`
	RolledBack      int    `json:"rolled_back"`
	StrayLocksFreed int    `json:"stray_locks_freed"`
	VTimeNs         int64  `json:"vtime_ns"`
}

// SoakAudit is the post-run structural audit of one table.
type SoakAudit struct {
	Keys        int  `json:"keys"`
	Clean       bool `json:"clean"`
	LockedSlots int  `json:"locked_slots"`
}

// SoakResult is the soak artifact.
type SoakResult struct {
	Experiment string               `json:"experiment"`
	Seed       int64                `json:"seed"`
	Rounds     int                  `json:"rounds"`
	Sessions   int                  `json:"sessions"`
	Txns       int                  `json:"txns"`
	Tenants    []SoakTenant         `json:"tenants"`
	Faults     []SoakFault          `json:"faults"`
	Audits     map[string]SoakAudit `json:"audits"`
	Metrics    pandora.Metrics      `json:"metrics"`

	// allocsPerTx is informational (String only): heap allocations per
	// transaction vary across Go releases, so they stay out of the
	// byte-compared artifact.
	allocsPerTx float64
}

// JSON renders the byte-compared artifact (trailing newline included,
// matching the other checked-in BENCH_*.json files).
func (r *SoakResult) JSON() ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// String renders the human-readable summary.
func (r *SoakResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Soak (seed %d): %d rounds x %d sessions, %d txns, %.0f allocs/tx\n",
		r.Seed, r.Rounds, r.Sessions, r.Txns, r.allocsPerTx)
	for _, t := range r.Tenants {
		fmt.Fprintf(&b, "  tenant %-10s committed=%-7d aborted=%d\n", t.Name, t.Committed, t.Aborted)
	}
	for _, f := range r.Faults {
		fmt.Fprintf(&b, "  round %2d %-16s node %d: logged=%d forward=%d back=%d stray=%d vtime=%dns\n",
			f.Round, f.Kind, f.Node, f.LoggedTxs, f.RolledForward, f.RolledBack, f.StrayLocksFreed, f.VTimeNs)
	}
	for _, name := range soakTables {
		a := r.Audits[name]
		fmt.Fprintf(&b, "  audit %-17s keys=%-6d clean=%t locked=%d\n", name, a.Keys, a.Clean, a.LockedSlots)
	}
	for _, a := range r.Metrics.Aborts {
		if a.Count != 0 {
			fmt.Fprintf(&b, "  abort %-18s %d\n", a.Reason, a.Count)
		}
	}
	return b.String()
}

// soakTables is the audit order (map iteration would not be stable).
var soakTables = []string{
	"subscriber", "access_info", "special_facility", "call_forwarding",
	"savings", "checking",
}

// Soak runs the endurance lane at scale sc.
func Soak(sc SoakScale, seed int64) (*SoakResult, error) {
	tatp := &workload.TATP{Subscribers: sc.Subscribers}
	bank := &workload.SmallBank{Accounts: sc.Subscribers}
	tenants := []workload.Workload{tatp, bank}

	cfg := pandora.Config{
		MemoryNodes:         2,
		ComputeNodes:        2,
		Replication:         2,
		CoordinatorsPerNode: sc.Coords,
		Tables:              append(tatp.Tables(), bank.Tables()...),
		ModelLatency:        true,
		// The full tuned configuration: this lane exists to soak the
		// paths the litmus knob matrix covers functionally.
		ReadCacheSize: 0, // default-sized cache
	}
	c, err := pandora.New(cfg)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	for _, w := range tenants {
		if err := w.Load(c); err != nil {
			return nil, fmt.Errorf("soak load %s: %w", w.Name(), err)
		}
	}

	res := &SoakResult{
		Experiment: "soak",
		Seed:       seed,
		Rounds:     sc.Rounds,
		Sessions:   2 * sc.Coords,
		Tenants:    []SoakTenant{{Name: tatp.Name()}, {Name: bank.Name()}},
		Audits:     map[string]SoakAudit{},
	}

	// Sessions and clocks are re-fetched after a compute restart: the
	// node re-registers with fresh coordinators.
	sessions := make([][]*pandora.Session, 2)
	attach := func(node int) {
		sessions[node] = make([]*pandora.Session, sc.Coords)
		for co := 0; co < sc.Coords; co++ {
			c.AttachClock(node, co)
			sessions[node][co] = c.Session(node, co)
		}
	}
	attach(0)
	attach(1)

	rng := rand.New(rand.NewSource(seed))

	// victim is the compute node a round ends by crashing, or -1.
	victim := func(round int) int {
		switch round + 1 {
		case sc.Rounds / 4:
			return 0
		case 3 * sc.Rounds / 4:
			return 1
		}
		return -1
	}
	// dieAtAck makes node n fail-stop at the next client acknowledgement
	// it reaches, before that commit's tail: recovery then finds an
	// acked transaction logged with its locks held, to roll forward.
	dieAtAck := func(n int) {
		armed := true
		c.Engine(n).SetInjector(func(_ kvlayout.CoordID, p core.CrashPoint) bool {
			fire := armed && p == core.PointAfterAck
			armed = armed && !fire
			return fire
		})
	}

	// crashCompute fail-stops node n, runs recovery, restarts it and
	// rebinds its sessions.
	crashCompute := func(round, n int) error {
		c.CrashCompute(n)
		st, err := c.FailCompute(n)
		if err != nil {
			return fmt.Errorf("soak round %d recover compute %d: %w", round, n, err)
		}
		if err := c.RestartCompute(n); err != nil {
			return fmt.Errorf("soak round %d restart compute %d: %w", round, n, err)
		}
		attach(n)
		res.Faults = append(res.Faults, SoakFault{
			Round: round, Kind: "compute-crash", Node: n,
			LoggedTxs: st.LoggedTxs, RolledForward: st.RolledForward,
			RolledBack: st.RolledBack, StrayLocksFreed: st.StrayLocksFreed,
			VTimeNs: st.VTime.Nanoseconds(),
		})
		return nil
	}

	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)

	for round := 0; round < sc.Rounds; round++ {
		for node := 0; node < 2; node++ {
			for co := 0; co < sc.Coords; co++ {
				if node == victim(round) && co == sc.Coords-1 {
					dieAtAck(node)
				}
				s := sessions[node][co]
				for i := 0; i < sc.TxPerRound; i++ {
					ti := rng.Intn(len(tenants))
					fn := tenants[ti].Next(rng)
					tx := s.Begin()
					err := fn(tx, rng)
					if err == nil {
						err = tx.Commit()
					} else if !tx.Done() {
						_ = tx.Abort()
					}
					res.Txns++
					if err == nil || tx.CommitAcked() {
						res.Tenants[ti].Committed++
					} else if pandora.IsAborted(err) || errors.Is(err, pandora.ErrNotFound) ||
						tx.Done() {
						// Protocol aborts, benchmark misses (TATP reads
						// absent call-forwarding rows) and business
						// aborts (SmallBank overdrafts) all count as
						// aborted; anything else is a harness bug.
						res.Tenants[ti].Aborted++
					} else {
						return nil, fmt.Errorf("soak round %d session %d/%d: %w", round, node, co, err)
					}
				}
			}
		}
		// Fixed-point fault schedule.
		if n := victim(round); n >= 0 {
			if err := crashCompute(round, n); err != nil {
				return nil, err
			}
		}
		if round+1 == sc.Rounds/2 {
			// Memory failover: fail the second replica set's server and
			// re-replicate onto a fresh one. Transactions keep running
			// against the surviving replica in between.
			if err := c.FailMemory(1); err != nil {
				return nil, fmt.Errorf("soak round %d fail memory: %w", round, err)
			}
			if _, err := c.Rereplicate(1); err != nil {
				return nil, fmt.Errorf("soak round %d rereplicate: %w", round, err)
			}
			res.Faults = append(res.Faults, SoakFault{Round: round, Kind: "memory-failover", Node: 1})
		}
	}

	runtime.ReadMemStats(&mem1)
	if res.Txns > 0 {
		res.allocsPerTx = float64(mem1.Mallocs-mem0.Mallocs) / float64(res.Txns)
	}

	// Audit every table: no duplicate slots, no replica divergence, no
	// residual locks.
	for _, name := range soakTables {
		rep, err := c.CheckConsistency(name)
		if err != nil {
			return nil, fmt.Errorf("soak audit %s: %w", name, err)
		}
		res.Audits[name] = SoakAudit{
			Keys:        rep.Keys,
			Clean:       len(rep.DuplicateKeys) == 0 && len(rep.DivergentKeys) == 0 && rep.LockedSlots == rep.StrayLocks,
			LockedSlots: rep.LockedSlots,
		}
	}

	// End-to-end servability probe: a validated read through the shared
	// conftest helper must still succeed after the full fault schedule.
	if _, err := conftest.ReadValidated(c.Session(0, 0), "checking", 0); err != nil {
		return nil, fmt.Errorf("soak post-run read probe: %w", err)
	}

	res.Metrics = c.MetricsSnapshot()
	return res, nil
}
