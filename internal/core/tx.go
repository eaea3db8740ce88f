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
// what locked says, whether or not the doorbell was settled.
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
// write): readChunk on the one key. A conflicting lock aborts the
// transaction unless the lock is stray (PILL) or the stalling path is
// configured. A value read from the fabric is admitted to the validated
// read cache; a range's reads are not (DESIGN.md §11).
func (tx *Tx) Read(table kvlayout.TableID, key kvlayout.Key) ([]byte, error) {
	var out [1]keyRead
	n := len(tx.reads)
	if err := tx.readChunk(table, key, n, out[:]); err != nil {
		return nil, err
	}
	if len(tx.reads) > n {
		// A cache hit or a present fabric slot joined the read set: the read
		// has returned, so its crash point is offered.
		if ent := tx.reads[n]; !ent.fromCache {
			tx.cacheRead(ent)
		}
		if err := tx.readStep(); err != nil {
			return nil, err
		}
	}
	if !out[0].present {
		return nil, ErrNotFound
	}
	return append([]byte(nil), out[0].val...), nil
}

// readStep runs the verb-less stageRead, whose crash point is the
// boundary between two execution steps.
func (tx *Tx) readStep() error {
	if _, err := tx.run(stage{kind: stageRead}); err != nil {
		return tx.verbFailure(err)
	}
	return nil
}

// cacheRead admits a point read's fabric slot to the validated read
// cache, as evidence for a ghost of the key (cache.Admit). The entry's
// value slice is owned by the read set, so the cache copies it.
func (tx *Tx) cacheRead(ent *readEnt) {
	if rc := tx.co.rcache; rc != nil {
		rc.Admit(ent.ref.table, ent.ref.key, ent.ref.partition, ent.ref.slot,
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

// judgeSlot settles the slot image buf holds for ref per the protocol
// policy: a reused slot drops the ref, re-resolves and is READ again; a
// live foreign lock stalls and is READ again, or aborts; a stray lock of
// a failed coordinator reads as no lock at all (PILL, §3.1.2); anything
// else — present or absent — is the verdict. It returns the slot and the
// ref it was read from: the read-set entry must pin a re-resolved
// location, or validation would re-read the abandoned slot. The slot's
// Value aliases buf.
func (tx *Tx) judgeSlot(ref objRef, buf []byte) (kvlayout.Slot, objRef, error) {
	tab := tx.cn.schema[ref.table]
	for {
		slot := tab.DecodeSlot(buf)
		switch {
		case slot.Present && slot.Key != ref.key:
			tx.cn.dropRef(ref.table, ref.key)
			newRef, found, err := tx.resolve(ref.table, ref.key)
			if err != nil {
				return kvlayout.Slot{}, ref, tx.verbFailure(err)
			}
			if !found {
				return kvlayout.Slot{}, ref, nil
			}
			ref = newRef
		case tx.foreignLock(slot.Lock):
			if !tx.mayStall() {
				return kvlayout.Slot{}, ref, tx.abort(metrics.AbortLockConflict,
					lockedBy("read of %d/%d found lock held by coordinator %d", ref, slot.Lock))
			}
			if err := tx.stallWait(); err != nil {
				return kvlayout.Slot{}, ref, err
			}
		default:
			return slot, ref, nil
		}
		if err := tx.fetchSlots([]objRef{ref}, buf); err != nil {
			return kvlayout.Slot{}, ref, err
		}
	}
}

// fetchSlots READs the primary's image of every ref into buf, one slot
// size each and back to back, as one doorbell: the execution phase's one
// READ site.
func (tx *Tx) fetchSlots(refs []objRef, buf []byte) error {
	size := len(buf) / len(refs)
	b := &tx.sc.fetch
	b.Reset()
	for i, ref := range refs {
		reps, err := tx.cn.replicasFor(ref.partition)
		if err != nil {
			return tx.placementAbort(err)
		}
		b.AddRead(tx.cn.tableAddr(reps[0], ref, 0), buf[i*size:(i+1)*size])
	}
	if err := tx.co.ep.Do(b.Ops()...); err != nil {
		return tx.verbFailure(err)
	}
	return nil
}

// strayLock reports whether a held lock word is PILL's to steal: its
// owner is announced failed and it is no logged transaction's word
// recovery has yet to settle (place.View.Stray).
func (tx *Tx) strayLock(word uint64) bool {
	return !tx.cn.opts.DisablePILL && tx.cn.place.Load().Stray(word)
}

// foreignLock reports whether word is a lock a running coordinator other
// than this transaction holds: the lock a read or validation may not
// pass over.
func (tx *Tx) foreignLock(word uint64) bool {
	return kvlayout.IsLocked(word) && word != tx.lockWord() && !tx.strayLock(word)
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

// stallWait sleeps one poll interval of the stalling path. The Go runtime
// does not honour an interval that short: as backoff.wait (session.go)
// measured, once the P goes idle a time.Sleep under 1ms parks the
// goroutine for about 1ms (Linux, Go 1.24), so the 20µs default costs a
// stalled lock ≈1ms of host time per poll, while the model clock charges
// the poll only the one round trip it retries.
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

// rangeChunk is the most keys one readChunk reads: a ReadRange's
// doorbell.
const rangeChunk = 16

// keyRead is what readChunk found for one key: its value, if present.
type keyRead struct {
	val     []byte
	present bool
}

// ReadRange reads every present key in [lo, hi], in key order, invoking
// fn for each. Keys are read a chunk of rangeChunk at a time (readChunk),
// so a chunk's fabric misses cost one doorbell instead of a dependent
// round trip per key, and the read-set dedup scan runs only against
// entries that predate the range (range keys are distinct, so entries
// appended by earlier chunks can never match later keys). The reads join
// the read set but are not admitted to the read cache: a scan reads
// through it instead of evicting the keys point reads keep hot.
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
		var out [rangeChunk]keyRead
		chunk := out[:end-base+1]
		if err := tx.readChunk(table, base, preReads, chunk); err != nil {
			return err
		}
		if err := tx.readStep(); err != nil {
			return err
		}
		for i, r := range chunk {
			if r.present && !fn(base+kvlayout.Key(i), append([]byte(nil), r.val...)) {
				return nil
			}
		}
		if end == hi {
			return nil
		}
		base = end + 1
	}
}

// readChunk is the one execution read (§3.1.5) of the len(out) keys from
// lo, at most rangeChunk of them; out[i] gets key lo+i's value. Each key
// is classified in order — own staged write, a read-set entry among the
// first preReads, a read-cache hit, or resolve — and every miss is READ
// in one doorbell, each image then judged where it landed (judgeSlot).
// Cache hits and present fabric slots join the read set; admitting a
// fabric read to the read cache is the caller's.
func (tx *Tx) readChunk(table kvlayout.TableID, lo kvlayout.Key, preReads int, out []keyRead) error {
	if err := tx.checkUsable(); err != nil {
		return err
	}
	refs, at := &tx.sc.refs, &tx.sc.at
	var epoch uint64
	if tx.co.rcache != nil {
		epoch = tx.cn.cacheEpoch.Load()
	}
	misses := 0
	for i := range out {
		k := lo + kvlayout.Key(i)
		if w := tx.findWrite(table, k); w != nil {
			if w.kind != kvlayout.WriteDelete {
				out[i] = keyRead{w.newValue, true}
			}
			continue
		}
		if r := tx.findReadBefore(preReads, table, k); r != nil {
			out[i] = keyRead{r.value, true}
			continue
		}
		// A cache hit skips the fabric. The cached version joins the read
		// set like a fabric-read version, so validation catches any
		// staleness before commit (a stale hit costs an abort, never a
		// wrong result).
		if rc := tx.co.rcache; rc != nil {
			if v, ok := rc.Get(table, k, epoch); ok {
				ent := tx.addRead(objRef{table: table, key: k, partition: v.Partition, slot: v.Slot},
					v.Version, tx.sc.padded(v.Value, len(v.Value)), true)
				out[i] = keyRead{ent.value, true}
				continue
			}
		}
		ref, found, err := tx.resolve(table, k)
		if err != nil {
			return tx.verbFailure(err)
		}
		if found {
			refs[misses], at[misses] = ref, i
			misses++
		}
	}
	if misses == 0 {
		return nil
	}
	readStart := tx.phaseClock()
	size := int(tx.cn.schema[table].SlotSize())
	buf := tx.sc.bytes(misses * size)
	if err := tx.fetchSlots(refs[:misses], buf); err != nil {
		return err
	}
	for j := 0; j < misses; j++ {
		slot, ref, err := tx.judgeSlot(refs[j], buf[j*size:(j+1)*size:(j+1)*size])
		if err != nil {
			return err
		}
		if slot.Present {
			ent := tx.addFabricRead(ref, slot, slot.Value)
			out[at[j]] = keyRead{ent.value, true}
		}
	}
	tx.recordPhase(metrics.PhaseRead, readStart)
	return nil
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
