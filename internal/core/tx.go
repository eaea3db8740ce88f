package core

import (
	"errors"
	"fmt"
	"time"

	"pandora/internal/kvlayout"
	"pandora/internal/metrics"
	"pandora/internal/rdma"
)

// readEnt is one read-set entry. fromCache marks entries served by the
// validated read cache: when validation rejects one, the abort is
// classified cache-stale rather than validation-version (the staleness
// was the cache's, not a concurrent writer racing a fabric read).
// covered marks an entry this transaction's own write lock vouches for
// (cover, lock.go): validation does not re-read it. stray is the stray
// lock word a fabric read passed over (PILL), 0 if none: a later write
// of the key steals it on its first lock doorbell.
type readEnt struct {
	ref       objRef
	version   uint64
	value     []byte
	stray     uint64
	fromCache bool
	covered   bool
}

// writeEnt is one write-set entry. It joins tx.writes before its lock
// doorbell is posted (lock.go) and from then on owns what the doorbell
// may have taken: every path out — commit, abort, dropEntry — releases
// what locked says and pays what ticket says, whether or not the
// doorbell was settled.
type writeEnt struct {
	ref  objRef
	kind kvlayout.WriteKind
	// wasInsert records that the slot held no committed key before this
	// transaction (the entry began life as an insert claim). Undo paths
	// key off this, not the final kind: an insert that was later turned
	// into a delete within the same transaction must still be undone to
	// a tombstone, never "restored".
	wasInsert  bool
	newValue   []byte
	locked     bool // assigned by hold alone
	oldValue   []byte
	oldVersion uint64
	newVersion uint64
	replicas   []rdma.NodeID // replica set snapshot, primary first
	applied    uint64        // bit i: the commit write reached replicas[i]
	ticket     laneTicket    // assigned by takeTicket alone
	stray      uint64        // a stray word a read or probe saw on the slot: acquire's hint
	// posted holds the lock doorbell acquire posted and settleLocks has
	// not settled yet (nil otherwise). locked already says what its CAS
	// took; nothing else of it may be read before the wait.
	posted *rdma.OpBatch
}

// Tx is one transaction. A coordinator runs transactions one at a time;
// Tx is not safe for concurrent use.
type Tx struct {
	co  *Coordinator
	cn  *ComputeNode
	sc  *txScratch // the coordinator's, borrowed until release
	id  uint64     // coordinator-local, monotonic
	tag uint32     // low bits of id; embedded in the lock word

	// The entries and every byte slice they hold live in sc.
	reads  []*readEnt
	writes []*writeEnt

	logged    bool
	fordLogAt map[rdma.NodeID]uint64 // FORD-mode append cursors
	intentIdx int                    // tradlog lock-intent cursor

	done     bool
	released bool

	// Client-visible acknowledgement state, used by litmus tests to
	// enforce Cor3 (never roll back a commit-acked transaction, never
	// roll forward an abort-acked one).
	AckedCommit bool
	AckedAbort  bool
}

// Begin starts a transaction. It blocks while the node is paused for
// memory-failure reconfiguration.
func (co *Coordinator) Begin() *Tx { return co.BeginIn(new(Tx)) }

// BeginIn is Begin into a header the caller owns and has finished with:
// a retry loop reuses one. The rest comes from the coordinator's scratch.
func (co *Coordinator) BeginIn(tx *Tx) *Tx {
	cn := co.node
	cn.pause.RLock()
	// Flush the previous transaction's post-ack drain tail before a new
	// one starts: a coordinator runs one transaction at a time, so this
	// is the deterministic steady-state flush point of the async
	// commit-back pipeline (DESIGN.md §16) — and a transaction never
	// contends with its own coordinator's undrained locks.
	co.flushDrain()
	co.txCounter++
	sc := &co.scratch
	sc.reset()
	*tx = Tx{co: co, cn: cn, sc: sc, id: co.txCounter, tag: uint32(co.txCounter),
		reads: sc.reads[:0], writes: sc.writes[:0]}
	return tx
}

// addRead appends a read-set entry. value must stay valid for the
// transaction: scratch memory, never a batch's or the cache's.
func (tx *Tx) addRead(ref objRef, version uint64, value []byte, fromCache bool) *readEnt {
	ent := tx.sc.rd.next()
	*ent = readEnt{ref: ref, version: version, value: value, fromCache: fromCache}
	tx.reads = append(tx.reads, ent)
	return ent
}

// addFabricRead appends the read-set entry of a slot read from the
// fabric, with the stray lock word it passed over. value is addRead's.
// It does not admit the slot to the validated read cache: only a point
// read does (cacheRead), so a range scan reads through the cache
// instead of evicting the keys point reads keep hot (DESIGN.md §11).
func (tx *Tx) addFabricRead(ref objRef, slot kvlayout.Slot, value []byte) *readEnt {
	ent := tx.addRead(ref, slot.Version, value, false)
	ent.stray = tx.strayWord(slot.Lock)
	return ent
}

// ID returns the coordinator-local transaction id.
func (tx *Tx) ID() uint64 { return tx.id }

// lockWord is the word this transaction CASes into lock fields. Recovery
// reconstructs it from the log record (coordinator-id + low bits of the
// transaction id), so it must stay in sync with recovery.LockWordFor.
func (tx *Tx) lockWord() uint64 { return kvlayout.LockWord(tx.co.id, tx.tag) }

// release ends the transaction exactly once (pause lock bookkeeping).
func (tx *Tx) release() {
	if !tx.released {
		tx.released = true
		tx.done = true
		// A transaction that ends before Commit settled its locks (crashed,
		// fenced) waits for the unsettled doorbells and hands their batches
		// back here. Otherwise nothing is waited for: a committed tail posted
		// at the ack stays outstanding for the next doorbell to pay.
		for _, w := range tx.writes {
			if w.posted != nil {
				tx.co.ep.Wait()
				w.posted.Put()
				w.posted = nil
			}
		}
		// Hand the (possibly grown) set arrays back for the next Begin.
		tx.sc.reads, tx.sc.writes = tx.reads[:0], tx.writes[:0]
		tx.cn.pause.RUnlock()
	}
}

// crash marks the node crashed mid-transaction and abandons all
// cleanup, leaving locks and logs strewn in memory — the situation
// recovery must handle.
func (tx *Tx) crash() error {
	tx.release()
	return rdma.ErrCrashed
}

// abort runs the abort path (§3.1.5 step 3) and returns ErrAborted with
// the typed kind and the site's reason.
func (tx *Tx) abort(kind metrics.AbortReason, info abortInfo) error {
	return tx.abortCause(kind, info, nil)
}

// abortCause aborts with an underlying cause preserved for errors.Is
// (e.g. rdma.ErrRevoked after active-link termination). This is the
// single abort decision point, so the taxonomy counter is bumped here —
// exactly once per abort, never on the fenced-zombie path (which is not
// an abort; see verbFailure).
func (tx *Tx) abortCause(kind metrics.AbortReason, info abortInfo, cause error) error {
	tx.cn.opts.Metrics.CountAbort(kind)
	// The abort tail releases what the entries say they hold: wait for the
	// lock doorbells still posted before anything reads that.
	tx.co.ep.Wait()
	err := tx.abortInternal(kind, info)
	for _, w := range tx.writes {
		if !w.locked {
			tx.payTicket(w) // abandoned in the lock step; a held lock's rode the tail
		}
	}
	tx.release()
	var ae *abortError
	if errors.As(err, &ae) {
		ae.cause = cause
	}
	return err
}

// phaseClock reads the coordinator's virtual clock (0 without a clock;
// phase samples then all land in histogram bucket 0, keeping even
// un-clocked runs deterministic).
func (tx *Tx) phaseClock() time.Duration { return tx.co.ep.Clock().Now() }

// recordPhase adds one latency sample for phase p, started at the given
// phaseClock reading, sharded by coordinator id. Phases are recorded on
// completion; a phase cut short by an abort or crash surfaces in the
// abort taxonomy and verb counters instead of the histogram.
func (tx *Tx) recordPhase(p metrics.Phase, start time.Duration) {
	if m := tx.cn.opts.Metrics; m != nil {
		m.RecordPhase(p, uint64(tx.co.id), tx.phaseClock()-start)
	}
}

// resolve is the metered key-to-slot resolution (address cache plus
// probe on a miss): every execution-phase lookup funnels through here
// so the resolve histogram covers reads, writes and range scans alike.
func (tx *Tx) resolve(table kvlayout.TableID, key kvlayout.Key) (objRef, bool, error) {
	start := tx.phaseClock()
	ref, found, err := tx.cn.resolve(tx.co.ep, table, key)
	if err == nil {
		tx.recordPhase(metrics.PhaseResolve, start)
	}
	return ref, found, err
}

func (tx *Tx) findWrite(table kvlayout.TableID, key kvlayout.Key) *writeEnt {
	for _, w := range tx.writes {
		if w.ref.table == table && w.ref.key == key {
			return w
		}
	}
	return nil
}

func (tx *Tx) findRead(table kvlayout.TableID, key kvlayout.Key) *readEnt {
	return tx.findReadBefore(len(tx.reads), table, key)
}

func (tx *Tx) checkUsable() error {
	if tx.done {
		return ErrTxDone
	}
	if tx.cn.crashed.Load() {
		return tx.crash()
	}
	return nil
}

// Read returns key's committed value (or this transaction's own pending
// write). A conflicting lock aborts the transaction unless the lock is
// stray (PILL) or the stalling path is configured.
func (tx *Tx) Read(table kvlayout.TableID, key kvlayout.Key) ([]byte, error) {
	if err := tx.checkUsable(); err != nil {
		return nil, err
	}
	if w := tx.findWrite(table, key); w != nil {
		if w.kind == kvlayout.WriteDelete {
			return nil, ErrNotFound
		}
		return append([]byte(nil), w.newValue...), nil
	}
	if r := tx.findRead(table, key); r != nil {
		return append([]byte(nil), r.value...), nil
	}

	// Validated read cache: a hit skips the fabric entirely. The cached
	// version joins the read set exactly like a fabric-read version, so
	// validation's version re-read catches any staleness before commit
	// (a stale hit costs an abort, never a wrong result).
	if rc := tx.co.rcache; rc != nil {
		if v, ok := rc.Get(table, key, tx.cn.cacheEpoch.Load()); ok {
			ent := tx.addRead(objRef{table: table, key: key, partition: v.Partition, slot: v.Slot},
				v.Version, tx.sc.padded(v.Value, len(v.Value)), true)
			return tx.readDone(ent.value)
		}
	}

	ref, found, err := tx.resolve(table, key)
	if err != nil {
		return nil, tx.verbFailure(err)
	}
	if !found {
		return nil, ErrNotFound
	}
	readStart := tx.phaseClock()
	slot, ref, err := tx.readSlotConsistent(ref)
	if err != nil {
		return nil, err
	}
	tx.recordPhase(metrics.PhaseRead, readStart)
	if !slot.Present {
		return nil, ErrNotFound
	}
	ent := tx.addFabricRead(ref, slot, slot.Value)
	tx.cacheRead(ent)
	return tx.readDone(ent.value)
}

// readDone ends a read by running the verb-less stageRead, whose crash
// point is the boundary between two execution steps, and returns a copy
// of the value.
func (tx *Tx) readDone(value []byte) ([]byte, error) {
	if _, err := tx.run(stage{kind: stageRead}); err != nil {
		return nil, tx.verbFailure(err)
	}
	return append([]byte(nil), value...), nil
}

// cacheRead admits a point read's fabric slot to the validated read
// cache. The entry's value slice is owned by the read set, so the cache
// copies it.
func (tx *Tx) cacheRead(ent *readEnt) {
	if rc := tx.co.rcache; rc != nil {
		rc.Put(ent.ref.table, ent.ref.key, ent.ref.partition, ent.ref.slot,
			ent.version, ent.value, tx.cn.cacheEpoch.Load())
	}
}

// invalidateCached drops (table, key) from this coordinator's validated
// read cache, if caching is enabled.
func (tx *Tx) invalidateCached(table kvlayout.TableID, key kvlayout.Key) {
	if rc := tx.co.rcache; rc != nil {
		rc.Invalidate(table, key)
	}
}

// readSlotConsistent fetches a full slot from the primary, handling
// stale cache entries and conflicting locks per the protocol policy
// (abort / treat-stray-as-unlocked / stall). It returns the ref the
// slot was actually read from: a reused slot triggers a re-probe, and
// the read-set entry must pin the re-resolved location or validation
// would re-read the abandoned slot. The slot's Value lives in the
// transaction scratch, so entries may keep it without a copy.
func (tx *Tx) readSlotConsistent(ref objRef) (kvlayout.Slot, objRef, error) {
	tab := tx.cn.schema[ref.table]
	buf := tx.sc.bytes(int(tab.SlotSize()))
	for {
		reps, err := tx.cn.replicasFor(ref.partition)
		if err != nil {
			return kvlayout.Slot{}, ref, tx.placementAbort(err)
		}
		if err := tx.co.ep.Read(tx.cn.tableAddr(reps[0], ref, 0), buf); err != nil {
			return kvlayout.Slot{}, ref, tx.verbFailure(err)
		}
		slot := tab.DecodeSlot(buf)
		if slot.Present && slot.Key != ref.key {
			// Stale cache: the slot was reused; re-probe once.
			tx.cn.dropRef(ref.table, ref.key)
			newRef, found, err := tx.resolve(ref.table, ref.key)
			if err != nil {
				return kvlayout.Slot{}, ref, tx.verbFailure(err)
			}
			if !found {
				return kvlayout.Slot{Present: false}, ref, nil
			}
			ref = newRef
			continue
		}
		if kvlayout.IsLocked(slot.Lock) && slot.Lock != tx.lockWord() {
			if tx.strayLock(slot.Lock) {
				// PILL: a stray lock of a failed coordinator is treated
				// as no lock at all (§3.1.2).
				return slot, ref, nil
			}
			if tx.drainWait(slot.Lock) {
				// The holder was an acked commit whose release was still
				// queued on a same-node drain; it has flushed — re-read.
				continue
			}
			if tx.mayStall() {
				if err := tx.stallWait(); err != nil {
					return kvlayout.Slot{}, ref, err
				}
				continue
			}
			return kvlayout.Slot{}, ref, tx.abort(metrics.AbortLockConflict,
				lockedBy("read of %d/%d found lock held by coordinator %d", ref, slot.Lock))
		}
		return slot, ref, nil
	}
}

// strayLock reports whether a lock word belongs to a known-failed
// coordinator (the PILL failed-ids check; O(1) bitset lookup).
func (tx *Tx) strayLock(word uint64) bool {
	if tx.cn.opts.DisablePILL {
		return false
	}
	return tx.cn.failed.Test(kvlayout.LockOwner(word))
}

// strayWord returns word if it is a held stray lock, else 0: the hint a
// read or a probe hands the lock step.
func (tx *Tx) strayWord(word uint64) uint64 {
	if kvlayout.IsLocked(word) && tx.strayLock(word) {
		return word
	}
	return 0
}

// holdsLocks reports whether the transaction already holds any lock. An
// entry whose lock doorbell is posted but not settled counts as held,
// whatever its CAS did: no decision reads a completion before its wait.
func (tx *Tx) holdsLocks() bool {
	for _, w := range tx.writes {
		if w.locked || w.posted != nil {
			return true
		}
	}
	return false
}

// mayStall reports whether the stalling path applies: a transaction may
// wait for a conflicting lock only while it holds none itself (no
// hold-and-wait, so stalled transactions can never deadlock each
// other); otherwise the conflict aborts as usual.
func (tx *Tx) mayStall() bool {
	return tx.cn.opts.StallOnConflict && !tx.holdsLocks()
}

// stallWait sleeps one poll interval of the stalling path.
func (tx *Tx) stallWait() error {
	if tx.cn.crashed.Load() {
		return tx.crash()
	}
	time.Sleep(tx.cn.stallPoll) //pandora:wallclock stall polling paces real goroutines; latency is measured on the VClock
	return nil
}

// linkFault extracts a link-rule failure (partition or verb timeout)
// from a verb error, or nil.
func linkFault(err error) *rdma.LinkError {
	var le *rdma.LinkError
	if errors.As(err, &le) {
		return le
	}
	return nil
}

// verbFailure maps a verb error to the transaction outcome: a crash of
// our own node propagates as ErrCrashed (leaving state strewn); a
// revocation means this incarnation has been fenced (Cor1) — it is a
// zombie and must go silent, never acknowledging an abort it cannot
// perform (recovery owns the state now); a link fault reports the
// suspect memory node to the FD and aborts; anything else aborts.
func (tx *Tx) verbFailure(err error) error {
	if errors.Is(err, rdma.ErrCrashed) {
		return tx.crash()
	}
	if errors.Is(err, rdma.ErrRevoked) {
		tx.release()
		return err
	}
	if errors.Is(err, ErrPartitionMigrating) {
		// The failure is placement, not fabric: a resolve or read hit a
		// partition that is mid-cutover.
		return tx.placementAbort(err)
	}
	if le := linkFault(err); le != nil {
		tx.cn.reportSuspect(le.Dst)
	}
	return tx.abortCause(metrics.AbortFault, abortInfo{format: "verb failed: ", detail: err}, err)
}

// placementAbort maps a replicasFor failure to the abort taxonomy: a
// partition marked mid-cutover aborts under the reconfig kind (the
// retry re-reads the refreshed placement — PR 4's rule: stale placement
// costs an abort, never a wrong commit); a genuinely empty live replica
// set is a fault.
func (tx *Tx) placementAbort(err error) error {
	if errors.Is(err, ErrPartitionMigrating) {
		return tx.abortCause(metrics.AbortReconfig, abortInfo{format: "placement: ", detail: err}, err)
	}
	return tx.abortCause(metrics.AbortFault, abortInfo{format: "no live replica: ", detail: err}, err)
}

// Write stages an update of an existing key and eagerly locks it
// (§3.1.5 step 1): its lock doorbell is posted now and, unless it must
// settle at once (defers, lock.go), waited for at Commit, so a conflict
// it met surfaces there.
func (tx *Tx) Write(table kvlayout.TableID, key kvlayout.Key, value []byte) error {
	if err := tx.checkUsable(); err != nil {
		return err
	}
	tab := tx.cn.schema[table]
	if len(value) > tab.ValueSize {
		return fmt.Errorf("core: value of %d bytes exceeds table %d value size %d", len(value), table, tab.ValueSize)
	}
	if w := tx.findWrite(table, key); w != nil {
		if w.kind == kvlayout.WriteDelete {
			w.kind = kvlayout.WriteUpdate
		}
		w.newValue = tx.sc.padded(value, tab.ValueSize)
		return nil
	}
	return tx.lockExisting(table, key, kvlayout.WriteUpdate, tx.sc.padded(value, tab.ValueSize))
}

// lockExisting resolves a key that must exist and runs the lock step on
// its slot, handing it the stray word a read of that slot passed over.
func (tx *Tx) lockExisting(table kvlayout.TableID, key kvlayout.Key, kind kvlayout.WriteKind, newValue []byte) error {
	ref, found, err := tx.resolve(table, key)
	if err != nil {
		return tx.verbFailure(err)
	}
	if !found {
		return ErrNotFound
	}
	var stray uint64
	if r := tx.findRead(table, key); r != nil && r.ref == ref {
		stray = r.stray
	}
	return tx.lockWrite(ref, kind, newValue, stray)
}

// Delete stages removal of an existing key.
func (tx *Tx) Delete(table kvlayout.TableID, key kvlayout.Key) error {
	if err := tx.checkUsable(); err != nil {
		return err
	}
	if w := tx.findWrite(table, key); w != nil {
		w.kind = kvlayout.WriteDelete
		w.newValue = nil
		return nil
	}
	return tx.lockExisting(table, key, kvlayout.WriteDelete, nil)
}

// Insert stages creation of a new key: it locks a free slot on the
// primary's probe chain. The key field and value become visible on all
// replicas only at commit.
func (tx *Tx) Insert(table kvlayout.TableID, key kvlayout.Key, value []byte) error {
	if err := tx.checkUsable(); err != nil {
		return err
	}
	tab := tx.cn.schema[table]
	if len(value) > tab.ValueSize {
		return fmt.Errorf("core: value of %d bytes exceeds table %d value size %d", len(value), table, tab.ValueSize)
	}
	if w := tx.findWrite(table, key); w != nil {
		if w.kind != kvlayout.WriteDelete {
			return ErrExists
		}
		// Own delete: the key is absent in this transaction's view, so the
		// entry flips back, as in Write.
		w.kind = kvlayout.WriteUpdate
		if w.wasInsert {
			w.kind = kvlayout.WriteInsert
		}
		w.newValue = tx.sc.padded(value, tab.ValueSize)
		return nil
	}
	for attempt := 0; attempt < 8; attempt++ {
		probeStart := tx.phaseClock()
		res, err := tx.cn.probe(tx.co.ep, table, key)
		if err != nil {
			return tx.verbFailure(err)
		}
		tx.recordPhase(metrics.PhaseResolve, probeStart)
		if res.found {
			return ErrExists
		}
		var slot, stray uint64
		switch {
		case res.claimed:
			// Another insert of this key is in flight at claimedSlot. If
			// its lock is stray (failed coordinator), take the slot over
			// via PILL stealing — the probe read the word, so the lock
			// step's first doorbell is the steal; otherwise it is an
			// ordinary lock conflict.
			if !tx.strayLock(res.claimedLock) {
				if tx.drainWait(res.claimedLock) {
					continue // the claimant's drained release freed the slot; re-probe
				}
				return tx.abort(metrics.AbortSteal, lockedBy("insert of %d/%d conflicts with in-flight claim by coordinator %d",
					objRef{table: table, key: key}, res.claimedLock))
			}
			slot, stray = res.claimedSlot, res.claimedLock
		case res.haveFree:
			slot = res.freeSlot
		default:
			return ErrTableFull
		}
		ref := objRef{table: table, key: key, partition: tx.cn.Ring().Partition(key), slot: slot}
		err = tx.lockWrite(ref, kvlayout.WriteInsert, tx.sc.padded(value, tab.ValueSize), stray)
		if !errors.Is(err, errSlotContended) {
			return err
		}
		// The slot changed under us; re-probe.
	}
	return tx.abort(metrics.AbortSteal, abortInfo{format: "insert: free-slot contention"})
}

// errSlotContended is an internal retry signal for insert slot races.
var errSlotContended = errors.New("core: free slot contended")

// rangeChunk is the number of keys a ReadRange prefetches per doorbell.
const rangeChunk = 16

// ReadRange reads every present key in [lo, hi], in key order, invoking
// fn for each. Keys are fetched in chunks of rangeChunk: all cache
// misses of a chunk are read with one doorbell-batched multi-READ
// instead of a dependent round trip per key, and the read-set dedup
// scan runs only against entries that predate the range (range keys
// are distinct, so entries appended by earlier chunks can never match
// later keys — the scan no longer grows quadratically with the range).
func (tx *Tx) ReadRange(table kvlayout.TableID, lo, hi kvlayout.Key, fn func(k kvlayout.Key, v []byte) bool) error {
	if hi < lo {
		return nil
	}
	preReads := len(tx.reads)
	for base := lo; ; {
		end := base + rangeChunk - 1
		if end > hi || end < base { // min(end, hi), wrap-safe
			end = hi
		}
		stop, err := tx.readRangeChunk(table, base, end, preReads, fn)
		if err != nil {
			return err
		}
		if stop || end == hi {
			return nil
		}
		base = end + 1
	}
}

// readRangeChunk fetches [lo, hi] (at most rangeChunk keys) and emits
// present values in key order. Each key is classified — own pending
// write, pre-range read-set entry, cache hit, or fabric miss — and the
// misses share one batched READ. Slots that come back contended or
// moved fall back to the per-key protocol loop, which owns the stall /
// stray-lock / re-probe policy. Misses join the read set but are not
// admitted to the read cache: a scan reads through it.
func (tx *Tx) readRangeChunk(table kvlayout.TableID, lo, hi kvlayout.Key, preReads int, fn func(k kvlayout.Key, v []byte) bool) (bool, error) {
	if err := tx.checkUsable(); err != nil {
		return false, err
	}
	n := int(hi-lo) + 1
	var (
		vals    [rangeChunk][]byte
		present [rangeChunk]bool
		refs    [rangeChunk]objRef
		fetch   [rangeChunk]bool
		slow    [rangeChunk]bool
		addrs   [rangeChunk]rdma.Addr
	)
	var epoch uint64
	if tx.co.rcache != nil {
		epoch = tx.cn.cacheEpoch.Load()
	}
	misses := 0
	for i := 0; i < n; i++ {
		k := lo + kvlayout.Key(i)
		if w := tx.findWrite(table, k); w != nil {
			if w.kind != kvlayout.WriteDelete {
				vals[i], present[i] = w.newValue, true
			}
			continue
		}
		if r := tx.findReadBefore(preReads, table, k); r != nil {
			vals[i], present[i] = r.value, true
			continue
		}
		if rc := tx.co.rcache; rc != nil {
			if v, ok := rc.Get(table, k, epoch); ok {
				ent := tx.addRead(objRef{table: table, key: k, partition: v.Partition, slot: v.Slot},
					v.Version, tx.sc.padded(v.Value, len(v.Value)), true)
				vals[i], present[i] = ent.value, true
				continue
			}
		}
		ref, found, err := tx.resolve(table, k)
		if err != nil {
			return false, tx.verbFailure(err)
		}
		if !found {
			continue
		}
		refs[i] = ref
		fetch[i] = true
		misses++
	}

	if misses > 0 {
		readStart := tx.phaseClock()
		b := rdma.GetBatch()
		slotSize := int(tx.cn.schema[table].SlotSize())
		na := 0
		for i := 0; i < n; i++ {
			if !fetch[i] {
				continue
			}
			reps, err := tx.cn.replicasFor(refs[i].partition)
			if err != nil {
				b.Put()
				return false, tx.placementAbort(err)
			}
			addrs[na] = tx.cn.tableAddr(reps[0], refs[i], 0)
			na++
		}
		buf, err := tx.co.ep.ReadBatch(b, addrs[:na], slotSize)
		if err != nil {
			b.Put()
			return false, tx.verbFailure(err)
		}
		tab := tx.cn.schema[table]
		j := 0
		for i := 0; i < n; i++ {
			if !fetch[i] {
				continue
			}
			slot := tab.DecodeSlot(buf[j*slotSize : (j+1)*slotSize])
			j++
			switch {
			case slot.Present && slot.Key != refs[i].key:
				slow[i] = true // slot reused; the slow path re-probes
			case kvlayout.IsLocked(slot.Lock) && slot.Lock != tx.lockWord() && !tx.strayLock(slot.Lock):
				slow[i] = true // live conflicting lock; the slow path stalls or aborts
			case !slot.Present:
				// absent (empty / tombstone / in-flight claim): skip
			default:
				ent := tx.addFabricRead(refs[i], slot, tx.sc.padded(slot.Value, len(slot.Value)))
				vals[i], present[i] = ent.value, true
			}
		}
		b.Put()
		for i := 0; i < n; i++ {
			if !slow[i] {
				continue
			}
			slot, ref, err := tx.readSlotConsistent(refs[i])
			if err != nil {
				return false, err
			}
			if !slot.Present {
				continue
			}
			ent := tx.addFabricRead(ref, slot, slot.Value)
			vals[i], present[i] = ent.value, true
		}
		tx.recordPhase(metrics.PhaseRead, readStart)
	}
	if _, err := tx.run(stage{kind: stageRead}); err != nil {
		return false, tx.verbFailure(err)
	}

	for i := 0; i < n; i++ {
		if !present[i] {
			continue
		}
		if !fn(lo+kvlayout.Key(i), append([]byte(nil), vals[i]...)) {
			return true, nil
		}
	}
	return false, nil
}

// findReadBefore returns a read-set entry for (table, key) among the
// first n entries — the read set as it stood before a range started.
func (tx *Tx) findReadBefore(n int, table kvlayout.TableID, key kvlayout.Key) *readEnt {
	for _, r := range tx.reads[:n] {
		if r.ref.table == table && r.ref.key == key {
			return r
		}
	}
	return nil
}

// Done reports whether the transaction has finished (committed, aborted,
// or abandoned by a crash).
func (tx *Tx) Done() bool { return tx.done }

// WriteSetSize returns the number of staged write-set objects.
func (tx *Tx) WriteSetSize() int { return len(tx.writes) }

// ReadSetSize returns the number of read-set entries.
func (tx *Tx) ReadSetSize() int { return len(tx.reads) }
