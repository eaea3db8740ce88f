package recovery

import (
	"slices"
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
	p := m.open(ev)
	defer m.opMu.Unlock()

	// Stop the world: with anonymous locks, unlocking while other
	// compute servers run could release their locks too.
	for _, peer := range m.peers() {
		if peer.ID() != ev.Node && !peer.Crashed() {
			peer.Pause()
			defer peer.Resume()
		}
	}

	// Logged transactions are still rolled forward/back from the logs.
	logs, txs, err := p.readLogged()
	if err != nil {
		return p.stats, err
	}
	if err := p.settleLogged(logs, txs); err != nil {
		return p.stats, err
	}

	// Full scan for stray locks, on the primaries, where locks live.
	ring := m.Ring()
	for _, tab := range m.cfg.Schema {
		for part := uint32(0); part < ring.Partitions(); part++ {
			primary, ok := ring.Primary(part, func(n rdma.NodeID) bool { return !m.cfg.Fabric.IsDown(n) })
			if !ok {
				continue
			}
			freed, err := m.scanRegion(&p.ep, primary, tab, part, ev.Coords)
			if err != nil {
				return p.stats, err
			}
			p.stats.StrayLocksFreed += freed
		}
	}
	// VTime ends with the scan; the truncation trails it, as in RecoverCompute.
	p.stats.VTime = p.ep.Clock().Now()
	if err := p.trail(logs); err != nil {
		return p.stats, err
	}
	return p.done(), nil
}

// scanRegion reads one table region in chunks and releases every stray
// lock found.
func (m *Manager) scanRegion(ep *rdma.Endpoint, node rdma.NodeID, tab kvlayout.Table, part uint32, failed []kvlayout.CoordID) (int, error) {
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
		if kvlayout.IsLocked(word) && slices.Contains(failed, kvlayout.LockOwner(word)) {
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
