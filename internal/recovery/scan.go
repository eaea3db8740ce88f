package recovery

import (
	"time"

	"pandora/internal/fdetect"
	"pandora/internal/kvlayout"
	"pandora/internal/rdma"
)

// ScanRecoverCompute is the Baseline's stop-the-world recovery (§6.1):
// without PILL there is no way to tell stray locks from live ones, so
// the entire KVS is paused and every table region of every memory server
// is scanned with one-sided READs to find and release the failed node's
// locks. The returned VTime grows linearly with the dataset — the
// multi-second cost the paper measures (~5 s per million keys on one
// scanning thread).
func (m *Manager) ScanRecoverCompute(ev fdetect.Event) (Stats, error) {
	m.opMu.Lock()
	defer m.opMu.Unlock()
	start := time.Now() //pandora:wallclock Stats.WallTime is a host-side diagnostic; the protocol-visible latency is Stats.VTime
	var stats Stats

	for _, ms := range m.Mems() {
		ms.RevokeLink(ev.Node)
	}

	// Stop the world: with anonymous locks, unlocking while other
	// compute servers run could release their locks too.
	for _, p := range m.peers() {
		if p.ID() == ev.Node || p.Crashed() {
			continue
		}
		p.Pause()
		defer p.Resume()
	}

	var clk rdma.VClock
	ep := m.endpoint(&clk)

	// Logged transactions are still rolled forward/back from the logs.
	if err := m.logRecovery(ep, ev, &stats); err != nil {
		return stats, err
	}

	// Full scan for stray locks.
	failedSet := make(map[kvlayout.CoordID]bool, len(ev.Coords))
	for _, c := range ev.Coords {
		failedSet[c] = true
	}
	ring := m.Ring()
	for _, tab := range m.cfg.Schema {
		for part := uint32(0); part < ring.Partitions(); part++ {
			for _, n := range ring.Replicas(part) {
				if n != mustPrimary(ring, part, m.cfg.Fabric) {
					continue // locks live on primaries only
				}
				freed, err := m.scanRegion(ep, n, tab, part, failedSet)
				if err != nil {
					return stats, err
				}
				stats.StrayLocksFreed += freed
			}
		}
	}
	stats.VTime = clk.Now()
	stats.WallTime = time.Since(start) //pandora:wallclock host-side diagnostic only
	return stats, nil
}

func mustPrimary(ring interface {
	Primary(uint32, func(rdma.NodeID) bool) (rdma.NodeID, bool)
}, part uint32, fab *rdma.Fabric) rdma.NodeID {
	p, _ := ring.Primary(part, func(n rdma.NodeID) bool { return !fab.IsDown(n) })
	return p
}

// scanRegion reads one table region in chunks and releases every stray
// lock found.
func (m *Manager) scanRegion(ep *rdma.Endpoint, node rdma.NodeID, tab kvlayout.Table, part uint32, failed map[kvlayout.CoordID]bool) (int, error) {
	regionID := kvlayout.TableRegionID(tab.ID, part)
	if m.cfg.Fabric.LookupRegion(node, regionID) == nil {
		return 0, nil
	}
	// The baseline scans slot by slot with sequential one-sided READs —
	// the paper measures ~5 s per million keys on one scanning thread,
	// i.e. one round trip per slot, which is what we model. (Batching
	// would be an optimisation the measured baseline does not have.)
	slotSize := tab.SlotSize()
	freed := 0
	buf := make([]byte, 8)
	for slot := uint64(0); slot < tab.Slots; slot++ {
		addr := rdma.Addr{Node: node, Region: regionID, Offset: slot * slotSize}
		if err := ep.Read(addr, buf); err != nil {
			return freed, err
		}
		word := kvlayout.Uint64(buf)
		if kvlayout.IsLocked(word) && failed[kvlayout.LockOwner(word)] {
			_, swapped, err := ep.CAS(addr, word, 0)
			if err == nil && swapped {
				freed++
			}
		}
	}
	return freed, nil
}

// ScanTimeEstimate returns the modelled time to scan `keys` slots with
// sequential per-slot READs — the dominant term of the Baseline's
// recovery latency (§6.1: ~5 s per million keys).
func (m *Manager) ScanTimeEstimate(keys int) time.Duration {
	return time.Duration(keys) * m.cfg.Fabric.Latency().Verb(8)
}
