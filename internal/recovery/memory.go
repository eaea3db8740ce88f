package recovery

import (
	"fmt"

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

// Rereplicate replaces dead memory server with a fresh one (§3.2.5:
// "Pandora adds new memory servers if there are more than f replica
// failures. We stop the DKVS, re-replicate all the partitions, and then
// resume."). The replacement takes the dead node's place on the ring —
// placement is by member index, so nothing else moves — and copies every
// partition it now hosts from a surviving replica.
func (m *Manager) Rereplicate(dead rdma.NodeID, replacementID rdma.NodeID) (*memnode.Server, error) {
	m.opMu.Lock()
	defer m.opMu.Unlock()
	defer m.PauseLive()()

	oldRing := m.Ring()
	newRing := oldRing.Substitute(dead, replacementID)
	repl := memnode.NewServer(m.cfg.Fabric, replacementID, newRing, m.cfg.Schema)

	// Copy each partition the replacement hosts from a surviving
	// replica, per table.
	for _, tab := range m.cfg.Schema {
		for part := uint32(0); part < newRing.Partitions(); part++ {
			hostsPart := false
			for _, n := range newRing.Replicas(part) {
				if n == replacementID {
					hostsPart = true
				}
			}
			if !hostsPart {
				continue
			}
			var src *memnode.Server
			for _, n := range oldRing.Replicas(part) {
				if n == dead || m.cfg.Fabric.IsDown(n) {
					continue
				}
				src = m.memServer(n)
				break
			}
			if src == nil {
				return nil, fmt.Errorf("recovery: partition %d has no surviving replica to copy from", part)
			}
			if err := repl.SyncPartitionFrom(src, tab.ID, part); err != nil {
				return nil, err
			}
		}
	}

	// Recreate log regions hosted for compute nodes, if the dead node
	// was a log server. Logs of live compute nodes are re-established
	// lazily: coordinators overwrite their area on the next transaction,
	// and the fresh region decodes as "no record", which is safe (a
	// missing log copy only weakens redundancy, never correctness).
	for _, p := range m.peers() {
		repl.EnsureLogRegion(p.ID(), m.cfg.CoordsPerNode)
	}

	// Install the new view everywhere. Only the replaced id leaves the
	// dead set: any other dead memory server is still dead.
	m.mu.Lock()
	for i, s := range m.cfg.Mems {
		if s.ID() == dead {
			m.cfg.Mems[i] = repl
		}
	}
	m.mu.Unlock()
	m.Update(func(v *place.View) *place.View { return v.WithRing(newRing).WithDead(dead, false) })
	return repl, nil
}

func (m *Manager) memServer(id rdma.NodeID) *memnode.Server {
	for _, s := range m.Mems() {
		if s.ID() == id {
			return s
		}
	}
	return nil
}

// MemServer returns the manager's handle for a memory server, or nil —
// the migration coordinator resolves copy sources and destinations
// through it.
func (m *Manager) MemServer(id rdma.NodeID) *memnode.Server { return m.memServer(id) }

// RecycleStrayLocks is the coordinator-id recycling mechanism of §3.1.2:
// a background scan over every memory server that releases all remaining
// stray locks with CAS operations, after which the failed ids can be
// reused. Empty slots are tombstoned before unlocking so probe chains
// that grew past them stay intact. It returns the number of locks
// released.
func (m *Manager) RecycleStrayLocks(failed func(kvlayout.CoordID) bool) int {
	ep := m.endpoint(nil)
	released := 0
	for _, srv := range m.Mems() {
		if m.cfg.Fabric.IsDown(srv.ID()) {
			continue
		}
		for _, lockAddr := range srv.ScanStrayLocks(failed) {
			var word [8]byte
			if err := ep.Read(lockAddr, word[:]); err != nil {
				continue
			}
			w := kvlayout.Uint64(word[:])
			if !kvlayout.IsLocked(w) || !failed(kvlayout.LockOwner(w)) {
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
	return released
}
