package rdma

// NVM persistence support (paper §7): Pandora is compatible with
// non-volatile memory on the memory servers using FORD's *selective
// one-sided flush* scheme — after writing, the issuer forces the data
// out of the RNIC/CPU caches into the durable medium with a small
// follow-up flush (in real hardware, an RDMA READ after the WRITEs).
//
// The simulation models the volatile/durable split explicitly: when
// persistence is enabled, every region keeps a durable image that only
// Flush (or host-side MarkDurable, for setup-time loading) updates.
// A memory server's power failure reverts its regions to the durable
// image — un-flushed writes are lost, exactly the failure persistence
// protects against. With battery-backed DRAM (the paper's alternative),
// no flushing is needed; that is the default mode (persistence off).

// EnablePersistence turns on the volatile/durable split for every
// region registered afterwards (call before wiring a cluster).
func (f *Fabric) EnablePersistence() {
	f.persist.Store(true)
}

// Persistent reports whether the fabric models NVM persistence.
func (f *Fabric) Persistent() bool {
	return f.persist.Load()
}

// Flush is the selective one-sided flush verb: it makes the n bytes at
// addr durable. On hardware the flush read-after-write drains the
// written bytes through the NIC, so its cost scales with the flushed
// byte count like any other verb (it was previously mischarged as a
// fixed 8-byte round trip).
func (ep *Endpoint) Flush(addr Addr, n int) error {
	return ep.verb(&Op{Kind: OpFlush, Addr: addr, Delta: uint64(n)})
}

// ensureDurable lazily allocates the durable image: once, because two
// flushes of different stripes hold no lock in common.
func (r *Region) ensureDurable() {
	r.durableOnce.Do(func() { r.durable = make([]byte, len(r.buf)) })
}

// flush copies [off, off+n) from the volatile buffer to the durable
// image.
func (r *Region) flush(off uint64, n int) error {
	if err := r.checkBounds(off, n); err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	lo, hi := r.lock(off, n)
	r.ensureDurable()
	copy(r.durable[off:off+uint64(n)], r.buf[off:off+uint64(n)])
	r.unlock(lo, hi)
	return nil
}

// MarkDurable snapshots the whole region into the durable image —
// setup-time loading (preload, re-replication copies) is considered
// persisted.
func (r *Region) MarkDurable() {
	r.lockEntries(0, lockSlots-1)
	defer r.unlockEntries(0, lockSlots-1)
	r.ensureDurable()
	copy(r.durable, r.buf)
}

// revertToDurable discards volatile state (power failure).
func (r *Region) revertToDurable() {
	r.lockEntries(0, lockSlots-1)
	defer r.unlockEntries(0, lockSlots-1)
	r.ensureDurable()
	copy(r.buf, r.durable)
}

// PowerFail models a power failure of a memory node with NVM: the node
// goes down and its regions revert to their durable images — un-flushed
// volatile writes are lost. Call Restart (SetDown false) to bring the
// node back serving the durable state.
func (f *Fabric) PowerFail(node NodeID) {
	ns := f.node(node)
	if ns == nil {
		return
	}
	ns.verbs.Lock() // fence in-flight verbs to this node, then cut power
	ns.down.Store(true)
	ns.mu.Lock()
	regions := make([]*Region, 0, len(ns.regions))
	//pandora:unordered regions are disjoint address ranges; revert order is not observable
	for _, r := range ns.regions {
		regions = append(regions, r)
	}
	ns.mu.Unlock()
	ns.verbs.Unlock()
	f.links.broadcast() // unblock verbs stalled toward the dead node
	for _, r := range regions {
		r.revertToDurable()
	}
}
