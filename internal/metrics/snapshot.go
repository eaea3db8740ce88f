package metrics

import "encoding/json"

// PhaseSnapshot is one phase histogram, summarised. The quantiles are
// bucket floors (see bucketFloor), so they are deterministic functions
// of bucket occupancy. Buckets carries the raw per-bucket counts for
// delta arithmetic; it is omitted from JSON to keep artifacts small.
type PhaseSnapshot struct {
	Phase   string             `json:"phase"`
	Count   uint64             `json:"count"`
	P50     int64              `json:"p50_ns"`
	P95     int64              `json:"p95_ns"`
	P99     int64              `json:"p99_ns"`
	Max     int64              `json:"max_ns"`
	Buckets [numBuckets]uint64 `json:"-"`
}

// VerbSnapshot is one (destination node, verb) counter row.
type VerbSnapshot struct {
	Node            uint16 `json:"node"`
	Verb            string `json:"verb"`
	Issued          uint64 `json:"issued"`
	Retried         uint64 `json:"retried"`
	DeadlineExpired uint64 `json:"deadline_expired"`
	Faulted         uint64 `json:"faulted"`
}

// AbortSnapshot is one abort-reason counter.
type AbortSnapshot struct {
	Reason string `json:"reason"`
	Count  uint64 `json:"count"`
}

// LockSnapshot is one lock-event counter.
type LockSnapshot struct {
	Event string `json:"event"`
	Count uint64 `json:"count"`
}

// DrainSnapshot summarises the post-ack drain pipeline (DESIGN.md §16):
// event counters plus the queue-depth gauge and its high-water mark.
type DrainSnapshot struct {
	Enqueued     uint64 `json:"enqueued"`
	Flushed      uint64 `json:"flushed"`
	Failures     uint64 `json:"failures"`
	Depth        int64  `json:"depth"`
	MaxDepth     uint64 `json:"max_depth"`
	CommitRounds uint64 `json:"commit_rounds"`
}

// Snapshot is a point-in-time copy of a registry. Rows are fully
// sorted (phases in enum order, verbs by node then verb, abort reasons
// and lock events in enum order) and every phase/reason/event row is
// always present, so a snapshot of a deterministic run marshals to
// byte-identical JSON. Counters are read without a global barrier: a
// snapshot taken during a live run is internally consistent per
// counter, not across them.
type Snapshot struct {
	Phases []PhaseSnapshot `json:"phases"`
	Verbs  []VerbSnapshot  `json:"verbs"`
	Aborts []AbortSnapshot `json:"aborts"`
	Locks  []LockSnapshot  `json:"locks"`
	Drain  DrainSnapshot   `json:"drain"`
}

// Snapshot captures the registry's current counters. A nil registry
// yields the same fully-shaped snapshot with every counter zero and no
// verb rows.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Phases: make([]PhaseSnapshot, NumPhases),
		Aborts: make([]AbortSnapshot, NumAbortReasons),
		Locks:  make([]LockSnapshot, NumLockEvents),
	}
	for p := Phase(0); p < NumPhases; p++ {
		ps := &s.Phases[p]
		ps.Phase = p.String()
		if r != nil {
			ps.Buckets = r.phases[p].totals()
		}
		ps.summarise()
	}
	for a := AbortReason(0); a < NumAbortReasons; a++ {
		s.Aborts[a].Reason = a.String()
		if r != nil {
			s.Aborts[a].Count = r.aborts[a].Load()
		}
	}
	for e := LockEvent(0); e < NumLockEvents; e++ {
		s.Locks[e].Event = e.String()
		if r != nil {
			s.Locks[e].Count = r.locks[e].Load()
		}
	}
	if r == nil {
		return s
	}
	s.Drain = DrainSnapshot{
		Enqueued:     r.drains[DrainEnqueued].Load(),
		Flushed:      r.drains[DrainFlushed].Load(),
		Failures:     r.drains[DrainFailure].Load(),
		Depth:        r.drainDepth.Load(),
		MaxDepth:     r.drainMax.Load(),
		CommitRounds: r.commitRounds.Load(),
	}
	if t := r.verbs.tab.Load(); t != nil {
		for i, node := range t.nodes { // nodes are sorted
			for v := Verb(0); v < NumVerbs; v++ {
				issued, retried, expired, faulted := t.blocks[i].sum(v)
				s.Verbs = append(s.Verbs, VerbSnapshot{
					Node:            node,
					Verb:            v.String(),
					Issued:          issued,
					Retried:         retried,
					DeadlineExpired: expired,
					Faulted:         faulted,
				})
			}
		}
	}
	return s
}

// summarise recomputes Count and the quantiles from Buckets.
func (ps *PhaseSnapshot) summarise() {
	var total uint64
	maxB := 0
	for i, c := range ps.Buckets {
		total += c
		if c > 0 {
			maxB = i
		}
	}
	ps.Count = total
	ps.P50 = quantile(ps.Buckets[:], total, 0.50)
	ps.P95 = quantile(ps.Buckets[:], total, 0.95)
	ps.P99 = quantile(ps.Buckets[:], total, 0.99)
	if total == 0 {
		ps.Max = 0
	} else {
		ps.Max = bucketFloor(maxB)
	}
}

// Sub returns the delta s − prev: per-bucket histogram differences
// (quantiles recomputed over the delta), verb counter differences, and
// abort counter differences. prev must be an earlier snapshot of the
// same registry; counters that do not appear in prev are kept whole.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	out := Snapshot{
		Phases: make([]PhaseSnapshot, len(s.Phases)),
		Aborts: make([]AbortSnapshot, len(s.Aborts)),
	}
	prevPhase := make(map[string]*PhaseSnapshot, len(prev.Phases))
	for i := range prev.Phases {
		prevPhase[prev.Phases[i].Phase] = &prev.Phases[i]
	}
	for i := range s.Phases {
		out.Phases[i] = s.Phases[i]
		if pp := prevPhase[s.Phases[i].Phase]; pp != nil {
			for b := range out.Phases[i].Buckets {
				out.Phases[i].Buckets[b] -= pp.Buckets[b]
			}
		}
		out.Phases[i].summarise()
	}
	prevAbort := make(map[string]uint64, len(prev.Aborts))
	for _, a := range prev.Aborts {
		prevAbort[a.Reason] = a.Count
	}
	for i, a := range s.Aborts {
		out.Aborts[i] = a
		out.Aborts[i].Count -= prevAbort[a.Reason]
	}
	out.Locks = make([]LockSnapshot, len(s.Locks))
	prevLock := make(map[string]uint64, len(prev.Locks))
	for _, l := range prev.Locks {
		prevLock[l.Event] = l.Count
	}
	for i, l := range s.Locks {
		out.Locks[i] = l
		out.Locks[i].Count -= prevLock[l.Event]
	}
	type nodeVerb struct {
		node uint16
		verb string
	}
	prevVerb := make(map[nodeVerb]VerbSnapshot, len(prev.Verbs))
	for _, v := range prev.Verbs {
		prevVerb[nodeVerb{v.Node, v.Verb}] = v
	}
	for _, v := range s.Verbs {
		pv := prevVerb[nodeVerb{v.Node, v.Verb}]
		v.Issued -= pv.Issued
		v.Retried -= pv.Retried
		v.DeadlineExpired -= pv.DeadlineExpired
		v.Faulted -= pv.Faulted
		out.Verbs = append(out.Verbs, v)
	}
	// Drain counters subtract; Depth/MaxDepth are gauges and keep s's
	// point-in-time values.
	out.Drain = s.Drain
	out.Drain.Enqueued -= prev.Drain.Enqueued
	out.Drain.Flushed -= prev.Drain.Flushed
	out.Drain.Failures -= prev.Drain.Failures
	out.Drain.CommitRounds -= prev.Drain.CommitRounds
	return out
}

// Idle reports whether the snapshot records no activity at all — no
// phase samples, no verbs, no aborts. Deltas that should be no-ops
// (e.g. a second recovery pass) assert this.
func (s Snapshot) Idle() bool {
	for _, p := range s.Phases {
		if p.Count != 0 {
			return false
		}
	}
	for _, v := range s.Verbs {
		if v.Issued|v.Retried|v.DeadlineExpired|v.Faulted != 0 {
			return false
		}
	}
	for _, a := range s.Aborts {
		if a.Count != 0 {
			return false
		}
	}
	for _, l := range s.Locks {
		if l.Count != 0 {
			return false
		}
	}
	if s.Drain.Enqueued|s.Drain.Flushed|s.Drain.Failures|s.Drain.CommitRounds != 0 {
		return false
	}
	return true
}

// LockCount returns the count recorded for one lock event.
func (s Snapshot) LockCount(ev LockEvent) uint64 {
	name := ev.String()
	for _, l := range s.Locks {
		if l.Event == name {
			return l.Count
		}
	}
	return 0
}

// AbortCount returns the count recorded for one abort reason.
func (s Snapshot) AbortCount(reason AbortReason) uint64 {
	name := reason.String()
	for _, a := range s.Aborts {
		if a.Reason == name {
			return a.Count
		}
	}
	return 0
}

// PhaseCount returns the sample count of one phase histogram.
func (s Snapshot) PhaseCount(p Phase) uint64 {
	name := p.String()
	for _, ps := range s.Phases {
		if ps.Phase == name {
			return ps.Count
		}
	}
	return 0
}

// JSON marshals the snapshot with stable indentation — the
// BENCH_metrics.json artifact format.
func (s Snapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}
