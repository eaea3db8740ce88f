package recovery

import (
	"pandora/internal/fdetect"
	"pandora/internal/kvlayout"
	"pandora/internal/memnode"
	"pandora/internal/place"
	"pandora/internal/rdma"
)

// RecoverMemory handles a memory-server failure (§3.2.5): the DKVS stops
// briefly — in-flight transactions drain, deciding for themselves
// (commit if all live replicas were updated, abort otherwise) — then
// every compute server deterministically promotes the next live replica
// to primary for each partition the dead server led, and the system
// resumes. No log recovery runs when all compute servers are alive: each
// coordinator holds complete local knowledge of its own transactions.
func (m *Manager) RecoverMemory(ev fdetect.Event) error {
	m.opMu.Lock()
	defer m.opMu.Unlock()
	// Stop the world: the replica configuration must not change under
	// running transactions.
	defer m.PauseLive()()
	m.Update(func(v *place.View) *place.View { return v.WithDead(ev.Node, true) })
	return nil
}

// MemoryRestarted records a failed memory server live again (a
// power-failed NVM server restarted): it resumes primary duty for the
// partitions it leads.
func (m *Manager) MemoryRestarted(node rdma.NodeID) {
	m.Update(func(v *place.View) *place.View { return v.WithDead(node, false) })
}

// PauseLive pauses every live peer and returns the call that resumes
// them. Paused and resumed at once it is a drain barrier: it returns
// when every transaction in flight at the call has finished (a
// migration's cutover waits out a partition's writers with it).
func (m *Manager) PauseLive() (resume func()) {
	var paused []ComputePeer
	for _, p := range m.peers() {
		if !p.Crashed() {
			p.Pause()
			paused = append(paused, p)
		}
	}
	return func() {
		for _, p := range paused {
			p.Resume()
		}
	}
}

// MemServer returns the manager's handle for a memory server, or nil —
// the migration coordinator resolves copy destinations and journal hosts
// through it.
func (m *Manager) MemServer(id rdma.NodeID) *memnode.Server {
	for _, s := range m.Mems() {
		if s.ID() == id {
			return s
		}
	}
	return nil
}

// RecycleStrayLocks is the coordinator-id recycling mechanism of §3.1.2:
// a background scan releases, by CAS, every lock the view's Stray test
// passes (empty slots are tombstoned first, so probe chains that grew
// past them stay intact), then installs a view that no longer announces
// the Recyclable ids and returns them — the FD may hand them out again —
// with the number of locks released. Transactions test the view they load
// at each stray check, so none acts on a recycled id and no pause is needed.
func (m *Manager) RecycleStrayLocks() ([]kvlayout.CoordID, int) {
	m.opMu.Lock()
	defer m.opMu.Unlock()
	v := m.View()
	ep := m.endpoint(nil)
	released := 0
	for _, srv := range m.Mems() {
		if m.cfg.Fabric.IsDown(srv.ID()) {
			continue
		}
		for _, lockAddr := range srv.ScanStrayLocks(v.Stray) {
			var word [8]byte
			if err := ep.Read(lockAddr, word[:]); err != nil {
				continue
			}
			w := kvlayout.Uint64(word[:])
			if !kvlayout.IsLocked(w) || !v.Stray(w) {
				continue // already released or stolen
			}
			// Tombstone empty or claimed slots so probe chains that grew
			// past them stay intact (abandoned insert claims become
			// tombstones, like an insert abort would leave).
			keyAddr := lockAddr
			keyAddr.Offset += kvlayout.SlotKeyOff - kvlayout.SlotLockOff
			var kfBuf [8]byte
			if err := ep.Read(keyAddr, kfBuf[:]); err == nil {
				kf := kvlayout.Uint64(kfBuf[:])
				if kf == 0 || kvlayout.IsClaim(kf) {
					var tomb [8]byte
					kvlayout.PutUint64(tomb[:], kvlayout.TombstoneKeyField)
					_, _, _ = ep.CAS(keyAddr, kf, kvlayout.Uint64(tomb[:]))
				}
			}
			if _, swapped, err := ep.CAS(lockAddr, w, 0); err == nil && swapped {
				released++
			}
		}
	}
	ids := v.Recyclable()
	if len(ids) > 0 {
		m.Update(func(v *place.View) *place.View { return v.WithRecycled(ids) })
	}
	return ids, released
}
