package rdma

import (
	"sync/atomic"
	"time"
)

// LatencyModel computes the modelled duration of a verb: one network
// round trip plus payload transfer time. A zero model charges nothing,
// which is what throughput experiments (real time) and most unit tests
// use.
type LatencyModel struct {
	// BaseRTT is the fixed round-trip cost of a verb, independent of
	// payload size (NIC + switch + PCIe). The paper's testbed (100 Gbps
	// ConnectX-6) has RTTs in the low microseconds.
	BaseRTT time.Duration
	// BytesPerSec is the link bandwidth. Zero means infinite.
	BytesPerSec float64
}

// DefaultLatency models the paper's testbed: ~2 µs verb RTT on a
// 100 Gbps link (12.5 GB/s).
func DefaultLatency() LatencyModel {
	return LatencyModel{BaseRTT: 2 * time.Microsecond, BytesPerSec: 12.5e9}
}

// Verb returns the modelled duration of one verb carrying n payload
// bytes.
func (m LatencyModel) Verb(n int) time.Duration {
	d := m.BaseRTT
	if m.BytesPerSec > 0 && n > 0 {
		d += time.Duration(float64(n) / m.BytesPerSec * float64(time.Second))
	}
	return d
}

// VClock is a virtual clock accumulating modelled time. It is safe for
// concurrent use; each logical thread of execution (a transaction
// coordinator, a recovery coordinator) normally owns one.
type VClock struct {
	ns atomic.Int64
	// Its owner advances it on every verb: two clocks allocated back to
	// back must not share a cache line.
	_ [56]byte
}

// Advance adds d to the clock.
func (v *VClock) Advance(d time.Duration) {
	if v == nil || d <= 0 {
		return
	}
	v.ns.Add(int64(d))
}

// Now returns the accumulated virtual time.
func (v *VClock) Now() time.Duration {
	if v == nil {
		return 0
	}
	return time.Duration(v.ns.Load())
}

// Reset zeroes the clock.
func (v *VClock) Reset() {
	if v != nil {
		v.ns.Store(0)
	}
}
