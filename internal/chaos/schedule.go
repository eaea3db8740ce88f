package chaos

import (
	"fmt"
	"math/rand"
	"time"
)

// EventKind enumerates the fault actions a chaos schedule can take.
type EventKind int

const (
	// EvCrashCompute fail-stops a compute node and drives deterministic
	// detection + recovery (Cluster.FailCompute).
	EvCrashCompute EventKind = iota
	// EvFailComputeSoft declares a compute node failed without crashing
	// it — an FD false positive; recovery must fence the zombie (Cor1).
	EvFailComputeSoft
	// EvRestartCompute rejoins a failed compute node as a fresh process
	// with brand-new coordinator-ids.
	EvRestartCompute
	// EvFailMemory fail-stops a memory node (primary promotion recovery).
	EvFailMemory
	// EvPowerFailMemory power-fails a memory node, losing un-flushed
	// writes (requires persistence).
	EvPowerFailMemory
	// EvRereplicate replaces the failed memory node with a fresh server,
	// restoring full redundancy.
	EvRereplicate
	// EvPartitionLink drops one compute→memory fabric path.
	EvPartitionLink
	// EvStallLink makes one compute→memory path hang without failing —
	// the gray-failure case.
	EvStallLink
	// EvSlowLink degrades one compute→memory path's latency.
	EvSlowLink
	// EvHealLink removes the fault rule on one link.
	EvHealLink
	// EvHealAllLinks removes every link fault rule.
	EvHealAllLinks
)

func (k EventKind) String() string {
	switch k {
	case EvCrashCompute:
		return "crash-compute"
	case EvFailComputeSoft:
		return "fail-compute-soft"
	case EvRestartCompute:
		return "restart-compute"
	case EvFailMemory:
		return "fail-memory"
	case EvPowerFailMemory:
		return "powerfail-memory"
	case EvRereplicate:
		return "rereplicate"
	case EvPartitionLink:
		return "partition-link"
	case EvStallLink:
		return "stall-link"
	case EvSlowLink:
		return "slow-link"
	case EvHealLink:
		return "heal-link"
	case EvHealAllLinks:
		return "heal-all-links"
	}
	return fmt.Sprintf("event(%d)", int(k))
}

// Event is one step of a chaos schedule.
type Event struct {
	Kind    EventKind
	Compute int           // compute index (compute and link events)
	Mem     int           // memory index (memory and link events)
	Factor  float64       // SlowLink latency multiplier
	Delay   time.Duration // SlowLink fixed extra latency
}

func (e Event) String() string {
	switch e.Kind {
	case EvCrashCompute, EvFailComputeSoft, EvRestartCompute:
		return fmt.Sprintf("%s c%d", e.Kind, e.Compute)
	case EvFailMemory, EvPowerFailMemory, EvRereplicate:
		return fmt.Sprintf("%s m%d", e.Kind, e.Mem)
	case EvPartitionLink, EvStallLink, EvHealLink:
		return fmt.Sprintf("%s c%d->m%d", e.Kind, e.Compute, e.Mem)
	case EvSlowLink:
		return fmt.Sprintf("%s c%d->m%d x%g+%s", e.Kind, e.Compute, e.Mem, e.Factor, e.Delay)
	}
	return e.Kind.String()
}

// Scenario palettes: which event kinds a scenario draws from.
var palettes = map[string][]EventKind{
	"crash":    {EvCrashCompute, EvFailComputeSoft, EvRestartCompute},
	"graylink": {EvPartitionLink, EvStallLink, EvSlowLink, EvHealLink, EvHealAllLinks},
	"memory":   {EvFailMemory, EvRereplicate},
	"power":    {EvPowerFailMemory, EvRereplicate},
	"mixed": {
		EvCrashCompute, EvFailComputeSoft, EvRestartCompute,
		EvFailMemory, EvRereplicate,
		EvPartitionLink, EvStallLink, EvSlowLink, EvHealLink, EvHealAllLinks,
	},
}

// Scenarios lists the valid scenario names.
func Scenarios() []string {
	return []string{"crash", "graylink", "memory", "power", "mixed"}
}

// schedState tracks cluster health during schedule generation so every
// generated event is applicable when executed.
type schedState struct {
	down      []bool          // compute i currently failed
	failedMem int             // index of the failed memory node, or -1
	links     map[[2]int]bool // active link fault rules (compute, mem)
	memCount  int
}

func (st *schedState) aliveComputes() int {
	n := 0
	for _, d := range st.down {
		if !d {
			n++
		}
	}
	return n
}

// feasible reports whether kind can fire in the current state. The
// rules keep the schedule runnable:
//   - at least one alive compute node at all times, so the workload
//     always makes progress and audits have a coordinator to read from;
//   - at most one failed memory node outstanding (f+1 = 2 replication
//     tolerates exactly one);
//   - events that pause the workload (memory failure's promotion,
//     re-replication's cutover drains) only when no link fault is
//     active — a pause must not wait behind a transaction stuck retrying
//     cleanup through a faulted link;
//   - link faults only between currently-alive endpoints.
func (st *schedState) feasible(kind EventKind) bool {
	switch kind {
	case EvCrashCompute, EvFailComputeSoft:
		return st.aliveComputes() >= 2
	case EvRestartCompute:
		return st.aliveComputes() < len(st.down)
	case EvFailMemory, EvPowerFailMemory:
		return st.failedMem < 0 && len(st.links) == 0
	case EvRereplicate:
		return st.failedMem >= 0 && len(st.links) == 0
	case EvPartitionLink, EvStallLink, EvSlowLink:
		return len(st.freeLinks()) > 0
	case EvHealLink, EvHealAllLinks:
		return len(st.links) > 0
	}
	return false
}

// freeLinks returns the (compute, mem) pairs between alive endpoints
// that carry no fault rule yet, in deterministic order.
func (st *schedState) freeLinks() [][2]int {
	var free [][2]int
	for ci := range st.down {
		if st.down[ci] {
			continue
		}
		for mi := 0; mi < st.mems(); mi++ {
			if mi == st.failedMem || st.links[[2]int{ci, mi}] {
				continue
			}
			free = append(free, [2]int{ci, mi})
		}
	}
	return free
}

func (st *schedState) activeLinks() [][2]int {
	var act [][2]int
	for ci := range st.down {
		for mi := 0; mi < st.mems(); mi++ {
			if st.links[[2]int{ci, mi}] {
				act = append(act, [2]int{ci, mi})
			}
		}
	}
	return act
}

func (st *schedState) mems() int { return st.memCount }

// apply mutates the generation state as if ev had executed.
func (st *schedState) apply(ev Event) {
	switch ev.Kind {
	case EvCrashCompute, EvFailComputeSoft:
		st.down[ev.Compute] = true
	case EvRestartCompute:
		st.down[ev.Compute] = false
	case EvFailMemory, EvPowerFailMemory:
		st.failedMem = ev.Mem
	case EvRereplicate:
		st.failedMem = -1
	case EvPartitionLink, EvStallLink, EvSlowLink:
		st.links[[2]int{ev.Compute, ev.Mem}] = true
	case EvHealLink:
		delete(st.links, [2]int{ev.Compute, ev.Mem})
	case EvHealAllLinks:
		st.links = map[[2]int]bool{}
	}
}

// Schedule derives a deterministic fault schedule of n random events
// plus a trailing cleanup (heal every link, restart every failed
// compute, re-replicate the failed memory) from (seed, scenario). The
// same inputs always yield the identical schedule.
func Schedule(seed int64, scenario string, computes, mems, n int) ([]Event, error) {
	palette, ok := palettes[scenario]
	if !ok {
		return nil, fmt.Errorf("chaos: unknown scenario %q (valid: %v)", scenario, Scenarios())
	}
	if computes < 2 {
		return nil, fmt.Errorf("chaos: need at least 2 compute nodes, have %d", computes)
	}
	if mems < 2 {
		return nil, fmt.Errorf("chaos: need at least 2 memory nodes, have %d", mems)
	}
	rng := rand.New(rand.NewSource(seed))
	st := &schedState{
		down:      make([]bool, computes),
		failedMem: -1,
		links:     map[[2]int]bool{},
		memCount:  mems,
	}
	var events []Event
	for len(events) < n {
		var kinds []EventKind
		for _, k := range palette {
			if st.feasible(k) {
				kinds = append(kinds, k)
			}
		}
		if len(kinds) == 0 {
			return nil, fmt.Errorf("chaos: scenario %q wedged after %d events", scenario, len(events))
		}
		ev := st.pick(rng, kinds[rng.Intn(len(kinds))])
		st.apply(ev)
		events = append(events, ev)
	}
	// Trailing cleanup: the final audit must see a fully healed cluster.
	if len(st.links) > 0 {
		ev := Event{Kind: EvHealAllLinks}
		st.apply(ev)
		events = append(events, ev)
	}
	for ci, d := range st.down {
		if d {
			ev := Event{Kind: EvRestartCompute, Compute: ci}
			st.apply(ev)
			events = append(events, ev)
		}
	}
	if st.failedMem >= 0 {
		ev := Event{Kind: EvRereplicate, Mem: st.failedMem}
		st.apply(ev)
		events = append(events, ev)
	}
	return events, nil
}

// pick fills in the operands of an event of the chosen kind.
func (st *schedState) pick(rng *rand.Rand, kind EventKind) Event {
	ev := Event{Kind: kind}
	switch kind {
	case EvCrashCompute, EvFailComputeSoft:
		var alive []int
		for ci, d := range st.down {
			if !d {
				alive = append(alive, ci)
			}
		}
		ev.Compute = alive[rng.Intn(len(alive))]
	case EvRestartCompute:
		var dead []int
		for ci, d := range st.down {
			if d {
				dead = append(dead, ci)
			}
		}
		ev.Compute = dead[rng.Intn(len(dead))]
	case EvFailMemory, EvPowerFailMemory:
		ev.Mem = rng.Intn(st.mems())
	case EvRereplicate:
		ev.Mem = st.failedMem
	case EvPartitionLink, EvStallLink, EvSlowLink:
		free := st.freeLinks()
		l := free[rng.Intn(len(free))]
		ev.Compute, ev.Mem = l[0], l[1]
		if kind == EvSlowLink {
			ev.Factor = float64(2 + rng.Intn(7)) // 2x..8x
			ev.Delay = time.Duration(rng.Intn(200)) * time.Microsecond
		}
	case EvHealLink:
		act := st.activeLinks()
		l := act[rng.Intn(len(act))]
		ev.Compute, ev.Mem = l[0], l[1]
	}
	return ev
}
