package rdma

import (
	"sync"
	"sync/atomic"
	"time"
)

// FaultModel injects transport-level faults of the paper's failure model
// (§2.1): message loss, duplication and reordering between compute and
// memory nodes. RDMA reliable connections mask all three — sequence
// numbers deduplicate and order packets, and the transport retransmits
// lost ones — so the only effect a verb's issuer can observe is added
// latency. The simulation therefore executes each verb's memory effect
// exactly once and charges retransmission round trips to the virtual
// clock, counting them for inspection.
type FaultModel struct {
	// LossProb is the probability that a verb's packet (or its ack) is
	// lost and must be retransmitted. Applied independently per attempt.
	LossProb float64
	// DupProb is the probability that a verb's packet is duplicated in
	// the network; the RC receiver discards the duplicate (no memory
	// effect, no extra latency for the issuer).
	DupProb float64
	// MaxRetransmits bounds retransmission attempts per verb; beyond it
	// the connection would break (we cap silently, since the paper's
	// model assumes eventual delivery under partial synchrony).
	MaxRetransmits int
	// Seed makes the fault pattern reproducible.
	Seed uint64
}

// faultState is the fabric's live fault injector. The PRNG is
// sequential by design — reproducibility is the point — so every draw
// serialises on mu; an endpoint's draws come in posting order because
// Do posts inline.
type faultState struct {
	mu    sync.Mutex
	model FaultModel
	rng   uint64

	retransmits atomic.Int64
	duplicates  atomic.Int64
}

func (fs *faultState) next() uint64 {
	fs.rng = fs.rng*6364136223846793005 + 1442695040888963407
	return fs.rng >> 11
}

// roll returns how many retransmissions this verb suffers and whether a
// duplicate was generated.
func (fs *faultState) roll() (retries int, dup bool) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	m := fs.model
	if m.LossProb <= 0 && m.DupProb <= 0 {
		return 0, false
	}
	maxR := m.MaxRetransmits
	if maxR == 0 {
		maxR = 8
	}
	const den = 1 << 30
	for retries < maxR && m.LossProb > 0 {
		if float64(fs.next()%den)/den >= m.LossProb {
			break
		}
		retries++
	}
	if m.DupProb > 0 && float64(fs.next()%den)/den < m.DupProb {
		dup = true
	}
	return retries, dup
}

// SetFaults installs (or, with a zero model, removes) transport fault
// injection on the fabric. The cumulative counters survive re-seeding.
func (f *Fabric) SetFaults(m FaultModel) {
	fs := f.faults.Load()
	if fs == nil {
		fs = &faultState{}
		if !f.faults.CompareAndSwap(nil, fs) {
			fs = f.faults.Load()
		}
	}
	fs.mu.Lock()
	fs.model = m
	fs.rng = m.Seed | 1
	fs.mu.Unlock()
}

// Retransmits returns the total transport retransmissions performed.
func (f *Fabric) Retransmits() int64 {
	fs := f.faults.Load()
	if fs == nil {
		return 0
	}
	return fs.retransmits.Load()
}

// DuplicatesDropped returns the total duplicated packets the RC receiver
// discarded.
func (f *Fabric) DuplicatesDropped() int64 {
	fs := f.faults.Load()
	if fs == nil {
		return 0
	}
	return fs.duplicates.Load()
}

// transportFaults rolls the injected faults for one verb of n payload
// bytes, accounts them, and returns the extra modelled duration: each
// retransmission resends the payload, so its cost is one more full verb
// of the same size under the latency model (the RC retransmission
// timeout is of the same order at these scales).
func (f *Fabric) transportFaults(n int) time.Duration {
	fs := f.faults.Load()
	if fs == nil {
		return 0
	}
	retries, dup := fs.roll()
	if retries > 0 {
		fs.retransmits.Add(int64(retries))
	}
	if dup {
		fs.duplicates.Add(1)
	}
	if retries == 0 {
		return 0
	}
	return time.Duration(retries) * f.lat.Verb(n)
}
