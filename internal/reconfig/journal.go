package reconfig

import (
	"errors"
	"fmt"
	"sort"

	"pandora/internal/kvlayout"
	"pandora/internal/place"
	"pandora/internal/rdma"
)

// The migration journal is persisted exactly like transaction logs: on
// the memory tier, replicated, written with one-sided verbs. Every
// journaled step rewrites the whole image with a bumped sequence
// number; recovery reads every live copy and takes the highest valid
// sequence, so a write that reached only some replicas before a crash
// still yields a consistent view (any copy describes a legal protocol
// state, and a newer copy only ever records *more* progress).
const (
	journalMagic = uint64(0x70616e7263666731) // "panrcfg1"

	// journalRegionSize bounds one journal image: a 9-word header, two
	// positional member arrays, and one state byte per partition.
	journalRegionSize = 8192

	phaseRunning  = uint64(1)
	phaseComplete = uint64(2)
)

// PartitionState is one partition's position in the migration state
// machine (DESIGN.md §13): stable → copying → cut-over → done.
type PartitionState uint8

const (
	// StatePending: not yet touched; transactions run against the old
	// placement.
	StatePending PartitionState = iota
	// StateCopying: a fuzzy background copy to the new replicas is in
	// progress (or was interrupted); writers still target the old
	// placement, so the copied image may be stale and MUST be redone
	// under the cutover barrier before the new view installs.
	StateCopying
	// StateCutover: the partition is marked migrating (transactions
	// touching it abort with the reconfig taxonomy), the drain barrier
	// has started, and the authoritative quiescent copy is in progress
	// or the new view is being installed.
	StateCutover
	// StateDone: the new view for this partition is installed
	// everywhere and the partition is unmarked.
	StateDone
)

// String names the state for status output and logs.
func (s PartitionState) String() string {
	switch s {
	case StatePending:
		return "pending"
	case StateCopying:
		return "copying"
	case StateCutover:
		return "cutover"
	case StateDone:
		return "done"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// Kind says whether the migration grows or shrinks the cluster.
type Kind uint8

const (
	// KindAdd migrates partitions onto a newly attached memory server.
	KindAdd Kind = iota + 1
	// KindRemove migrates partitions off a server being decommissioned.
	KindRemove
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindAdd:
		return "add"
	case KindRemove:
		return "remove"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// image is one decoded journal record: the full migration state.
type image struct {
	seq     uint64
	migID   uint64
	kind    Kind
	subject rdma.NodeID
	phase   uint64
	from    []rdma.NodeID    // positional old members (Hole = 0)
	to      []rdma.NodeID    // positional target members (Hole = 0)
	states  []PartitionState // one per partition
}

// This file is the only one that stores into an image, and the three
// functions below are the only stores: whatever the callers do, a
// journaled partition state never decreases and a complete migration
// never reopens, which is what lets any coordinator resume any journal.

// newImage describes a migration from cur to target before its first
// step: partitions whose replicas move are pending, the rest done.
func newImage(kind Kind, subject rdma.NodeID, cur, target *place.Ring) *image {
	im := &image{
		migID:   target.Epoch(),
		kind:    kind,
		subject: subject,
		phase:   phaseRunning,
		from:    cur.Members(),
		to:      target.Members(),
		states:  make([]PartitionState, cur.Partitions()),
	}
	for p := range im.states {
		im.states[p] = StateDone // untouched partitions need no work
	}
	for _, p := range movedPartitions(cur, target) {
		im.states[p] = StatePending
	}
	return im
}

// advance records that partition p has reached state to and reports the
// state it found. It is monotone, not one-step: a partition already at
// or past to stays where it is (a racing coordinator, or an earlier run
// of this one, got further — recovery resumes every step from whatever
// state it reads), and a request for an earlier state is never a rewind.
func (im *image) advance(p uint32, to PartitionState) (was PartitionState, err error) {
	if int(p) >= len(im.states) {
		return 0, fmt.Errorf("reconfig: partition %d is outside the journal's %d partitions", p, len(im.states))
	}
	was = im.states[p]
	if was < to {
		im.states[p] = to
	}
	return was, nil
}

// complete closes the migration — phase complete, every partition done —
// and reports whether that changed the image.
func (im *image) complete() bool {
	if im.phase == phaseComplete {
		return false
	}
	im.phase = phaseComplete
	for p := range im.states {
		im.states[p] = StateDone
	}
	return true
}

// fits refuses an image that does not describe ring's partitions: the
// count is a decoded word, and the callers index states by the ring's
// partition numbers.
func (im *image) fits(ring *place.Ring) error {
	if uint32(len(im.states)) != ring.Partitions() {
		return fmt.Errorf("reconfig: journal describes %d partitions, the installed ring has %d", len(im.states), ring.Partitions())
	}
	return nil
}

func (im *image) encodedSize() int {
	return 9*8 + 8*(len(im.from)+len(im.to)) + (len(im.states)+7)&^7
}

func (im *image) encode() []byte {
	buf := make([]byte, im.encodedSize())
	hdr := []uint64{
		journalMagic, im.seq, im.migID, uint64(im.kind),
		uint64(im.subject), im.phase,
		uint64(len(im.from)), uint64(len(im.to)), uint64(len(im.states)),
	}
	off := 0
	for _, w := range hdr {
		kvlayout.PutUint64(buf[off:], w)
		off += 8
	}
	for _, n := range im.from {
		kvlayout.PutUint64(buf[off:], uint64(n))
		off += 8
	}
	for _, n := range im.to {
		kvlayout.PutUint64(buf[off:], uint64(n))
		off += 8
	}
	for i, s := range im.states {
		buf[off+i] = byte(s)
	}
	return buf
}

// decodeImage parses one journal copy; ok is false for an empty or
// torn/foreign image, and for one whose kind, phase or a partition state
// is no value this package writes (under a monotone advance a state
// byte past StateDone would never reach done).
func decodeImage(buf []byte) (*image, bool) {
	if len(buf) < 9*8 || kvlayout.Uint64(buf) != journalMagic {
		return nil, false
	}
	word := func(i int) uint64 { return kvlayout.Uint64(buf[i*8:]) }
	im := &image{
		seq:     word(1),
		migID:   word(2),
		kind:    Kind(word(3)),
		subject: rdma.NodeID(word(4)),
		phase:   word(5),
	}
	// The kind word is checked whole: Kind(word) would truncate a flipped
	// high bit away.
	if k := word(3); k != uint64(KindAdd) && k != uint64(KindRemove) {
		return nil, false
	}
	if im.phase != phaseRunning && im.phase != phaseComplete {
		return nil, false
	}
	// Each count is bounded by the buffer on its own first, so a
	// bit-flipped count cannot overflow the sum into looking small.
	for _, w := range []uint64{word(6), word(7), word(8)} {
		if w > uint64(len(buf)) {
			return nil, false
		}
	}
	nFrom, nTo, nParts := int(word(6)), int(word(7)), int(word(8))
	if 9*8+8*(nFrom+nTo)+nParts > len(buf) {
		return nil, false
	}
	off := 9 * 8
	for i := 0; i < nFrom; i++ {
		im.from = append(im.from, rdma.NodeID(kvlayout.Uint64(buf[off:])))
		off += 8
	}
	for i := 0; i < nTo; i++ {
		im.to = append(im.to, rdma.NodeID(kvlayout.Uint64(buf[off:])))
		off += 8
	}
	im.states = make([]PartitionState, 0, nParts)
	for _, b := range buf[off : off+nParts] {
		if PartitionState(b) > StateDone {
			return nil, false
		}
		im.states = append(im.states, PartitionState(b))
	}
	return im, true
}

// journalHosts returns the node ids of every attached memory server, in
// deterministic (sorted) order. The journal is replicated to all of
// them — like a transaction log, a single surviving copy is enough to
// recover.
func (c *Coordinator) journalHosts() []rdma.NodeID {
	var ids []rdma.NodeID
	for _, s := range c.cfg.Mgr.Mems() {
		ids = append(ids, s.ID())
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// writeJournal bumps the sequence number and replicates the image to
// every live journal host with one-sided WRITEs (plus a flush when the
// fabric models persistent memory). At least one copy must land.
func (c *Coordinator) writeJournal(im *image) error {
	im.seq++
	buf := im.encode()
	if len(buf) > journalRegionSize {
		return fmt.Errorf("reconfig: journal image %d bytes exceeds region size %d", len(buf), journalRegionSize)
	}
	wrote := 0
	for _, id := range c.journalHosts() {
		srv := c.cfg.Mgr.MemServer(id)
		if srv == nil || srv.Down() {
			continue
		}
		srv.EnsureReconfigRegion(journalRegionSize)
		addr := rdma.Addr{Node: id, Region: kvlayout.ReconfigRegionID()}
		if err := c.ep.Write(addr, buf); err != nil {
			continue // dead replica: surviving copies suffice
		}
		if c.cfg.Fabric.Persistent() {
			_ = c.ep.Flush(addr, len(buf))
		}
		wrote++
	}
	if wrote == 0 {
		return fmt.Errorf("reconfig: no live memory server accepted the journal (seq %d)", im.seq)
	}
	return nil
}

// readJournal reads every live journal copy and returns the one with
// the highest valid sequence number, or nil if no copy exists.
func (c *Coordinator) readJournal() *image {
	var best *image
	for _, id := range c.journalHosts() {
		if c.cfg.Fabric.IsDown(id) {
			continue
		}
		region := c.cfg.Fabric.LookupRegion(id, kvlayout.ReconfigRegionID())
		if region == nil {
			continue
		}
		buf := make([]byte, region.Size())
		if err := c.ep.Read(rdma.Addr{Node: id, Region: kvlayout.ReconfigRegionID()}, buf); err != nil {
			continue
		}
		if im, ok := decodeImage(buf); ok && (best == nil || im.seq > best.seq) {
			best = im
		}
	}
	return best
}

// freshImage re-reads the journal; every mutating step works off the
// freshest image so racing coordinators merge rather than clobber.
func (c *Coordinator) freshImage() (*image, error) {
	im := c.readJournal()
	if im == nil {
		return nil, errors.New("reconfig: journal lost (no live copy)")
	}
	if err := im.fits(c.cfg.Mgr.Ring()); err != nil {
		return nil, err
	}
	return im, nil
}

// advanceJournal is the one read-modify-write of a partition's journaled
// state: the freshest image, advanced, written back iff that moved it.
// It reports the state it found.
func (c *Coordinator) advanceJournal(p uint32, to PartitionState) (PartitionState, error) {
	im, err := c.freshImage()
	if err != nil {
		return 0, err
	}
	was, err := im.advance(p, to)
	if err != nil || was >= to {
		return was, err
	}
	return was, c.writeJournal(im)
}

// completeJournal journals the migration complete, once.
func (c *Coordinator) completeJournal() error {
	im, err := c.freshImage()
	if err != nil || !im.complete() {
		return err
	}
	return c.writeJournal(im)
}
