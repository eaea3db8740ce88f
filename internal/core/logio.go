package core

import (
	"slices"

	"pandora/internal/kvlayout"
	"pandora/internal/metrics"
	"pandora/internal/rdma"
)

// logWriteOf converts a write-set entry to its undo-log form. The
// logged Kind drives the UNDO direction (RollbackImage): an entry whose
// slot held no committed key before the transaction is always undone to
// a tombstone, even if the transaction later turned the insert into an
// update or delete.
func logWriteOf(ent *writeEnt) kvlayout.LogWrite {
	kind := ent.kind
	if ent.wasInsert {
		kind = kvlayout.WriteInsert
	}
	return kvlayout.LogWrite{
		Table:      ent.ref.table,
		Partition:  ent.ref.partition,
		Slot:       ent.ref.slot,
		Key:        ent.ref.key,
		Kind:       kind,
		OldVersion: ent.oldVersion,
		NewVersion: ent.newVersion,
		OldValue:   ent.oldValue,
	}
}

// logAreaOff is the offset of this coordinator's log area within its
// compute node's log region.
func (tx *Tx) logAreaOff() uint64 { return kvlayout.LogAreaOffset(tx.co.slot) }

// writePandoraLog performs Pandora's logging phase (§3.1.4): the whole
// write-set is serialised into one record and written with a single
// RDMA WRITE to each of the f+1 designated log servers, in parallel.
// Total cost: f+1 WRITEs per transaction, independent of write-set size.
func (tx *Tx) writePandoraLog() error {
	rec := kvlayout.LogRecord{TxID: tx.id, Coord: tx.co.id, Writes: tx.sc.log[:0]}
	for _, w := range tx.writes {
		rec.Writes = append(rec.Writes, logWriteOf(w))
	}
	tx.sc.log = rec.Writes[:0]
	off := tx.logAreaOff() + kvlayout.TxLogOff
	region := kvlayout.LogRegionID(tx.cn.id)
	b := rdma.GetBatch()
	defer b.Put()
	payload := b.Bytes(rec.EncodedSize()) // built where the WRITEs read it; dies with the batch
	rec.EncodeInto(payload)
	for _, n := range tx.logServers() {
		b.AddWrite(rdma.Addr{Node: n, Region: region, Offset: off}, payload)
	}
	return tx.runLog(stageLog, b, "logging: every log server unreachable")
}

// runLog executes a log stage — the record writes in b, plus under
// Persist the durability flushes behind them — and settles tx.logged.
// Write-ahead rule for NVM (§7, selective one-sided flush): the log
// must be durable before any data is applied; nothing is applied until
// this stage, flushes included, has completed (RC ordering runs each
// flush after its write where the two share a doorbell, §16).
func (tx *Tx) runLog(kind stageKind, b *rdma.OpBatch, unreachable string) error {
	st := stage{kind: kind, b: b, cut: b.Len()}
	if tx.cn.opts.Persist {
		b.ChainFlushes(0)
	}
	inWrites, err := tx.run(st)
	written := 0
	for _, op := range b.Ops()[:st.cut] {
		if op.Err == nil {
			written++
		}
	}
	// The record reached `written` servers: mark logged BEFORE acting on
	// any failure — a link-faulted write to another server, or a flush —
	// so the abort truncates the copies that landed. A valid log left
	// behind an acked abort would be rolled forward by recovery.
	if written > 0 {
		tx.logged = true
	}
	if err != nil && inWrites {
		return tx.verbFailure(err)
	}
	if written == 0 {
		// Dead log servers are tolerated while a surviving copy exists.
		return tx.abort(metrics.AbortFault, abortInfo{format: unreachable})
	}
	if err != nil {
		return tx.verbFailure(err)
	}
	return nil
}

// fordLogObject writes a single-object undo record (FORD-mode exec-time
// logging, §2.3): one record per write-set object, appended to this
// coordinator's log area on each replica of the object. This is f+1
// WRITEs per object, versus Pandora's f+1 per transaction.
func (tx *Tx) fordLogObject(ent *writeEnt) error {
	logStart := tx.phaseClock()
	rec := kvlayout.LogRecord{TxID: tx.id, Coord: tx.co.id, Writes: append(tx.sc.log[:0], logWriteOf(ent))}
	tx.sc.log = rec.Writes[:0]
	region := kvlayout.LogRegionID(tx.cn.id)
	if tx.fordLogAt == nil {
		tx.fordLogAt = make(map[rdma.NodeID]uint64)
	}
	b := rdma.GetBatch()
	defer b.Put()
	payload := b.Bytes(rec.EncodedSize()) // built where the WRITEs read it; dies with the batch
	rec.EncodeInto(payload)
	for _, n := range ent.replicas {
		cur, ok := tx.fordLogAt[n]
		if !ok {
			cur = tx.logAreaOff() + kvlayout.TxLogOff
		}
		if cur+uint64(len(payload)) > tx.logAreaOff()+kvlayout.LockLogOff {
			//pandora:abortother capacity limit of the FORD log area, not a protocol conflict
			return tx.abort(metrics.AbortOther, abortInfo{format: "ford log area full"})
		}
		b.AddWrite(rdma.Addr{Node: n, Region: region, Offset: cur}, payload)
		tx.fordLogAt[n] = cur + uint64(len(payload))
	}
	if err := tx.runLog(stageFordLog, b, "ford logging: every replica unreachable"); err != nil {
		return err
	}
	tx.recordPhase(metrics.PhaseLog, logStart)
	return nil
}

// lockIntent is the traditional scheme's extra round trip (§6.1): before
// every lock CAS the coordinator logs the lock intent to its f+1 log
// servers and awaits completion — precisely the overhead PILL
// eliminates. Under PILL the stage is verb-less.
func (tx *Tx) lockIntent(ent *writeEnt) error {
	if tx.cn.opts.Protocol != ProtocolTradLog {
		if _, err := tx.run(stage{kind: stageLockIntent}); err != nil {
			return tx.verbFailure(err)
		}
		return nil
	}
	if tx.intentIdx >= kvlayout.MaxLockIntents {
		//pandora:abortother capacity limit of the lock-intent log, not a protocol conflict
		return tx.abort(metrics.AbortOther, abortInfo{format: "lock-intent log full"})
	}
	logStart, ref := tx.phaseClock(), ent.ref
	payload := kvlayout.EncodeLockIntent(kvlayout.LockIntent{
		TxID:      tx.id,
		Table:     ref.table,
		Key:       ref.key,
		Slot:      ref.slot,
		Partition: ref.partition,
	})
	off := tx.logAreaOff() + kvlayout.LockLogOff + 8 + uint64(tx.intentIdx)*kvlayout.LockIntentSize
	region := kvlayout.LogRegionID(tx.cn.id)
	b := rdma.GetBatch()
	defer b.Put()
	for _, n := range tx.logServers() {
		b.AddWrite(rdma.Addr{Node: n, Region: region, Offset: off}, payload)
	}
	if _, err := tx.run(stage{kind: stageLockIntent, b: b, cut: b.Len()}); err != nil {
		return tx.verbFailure(err)
	}
	written := 0
	for _, op := range b.Ops() {
		if op.Err == nil {
			written++
		}
	}
	if written == 0 {
		return tx.abort(metrics.AbortFault, abortInfo{format: "lock-intent logging: every log server unreachable"})
	}
	tx.intentIdx++
	tx.recordPhase(metrics.PhaseLog, logStart)
	return nil
}

// logServers returns the nodes holding this coordinator's transaction
// log.
func (tx *Tx) logServers() []rdma.NodeID { return tx.cn.place.Load().logServers }

// appendTruncateOps appends the log-truncation WRITEs for this
// transaction to b: the 8-byte invalidation of the record header on
// every node where a log may exist.
func (tx *Tx) appendTruncateOps(b *rdma.OpBatch) {
	region := kvlayout.LogRegionID(tx.cn.id)
	off := tx.logAreaOff() + kvlayout.TxLogOff
	if tx.cn.opts.Protocol == ProtocolFORD {
		// FORD-mode spread records over the write-set objects' replicas.
		// Sorted so the posting order (which fixes the fault-PRNG draw
		// order) does not depend on map iteration.
		nodes := make([]rdma.NodeID, 0, len(tx.fordLogAt))
		for n := range tx.fordLogAt {
			nodes = append(nodes, n)
		}
		slices.Sort(nodes)
		for _, n := range nodes {
			b.AddWrite(rdma.Addr{Node: n, Region: region, Offset: off}, kvlayout.TruncateWord[:])
		}
		return
	}
	for _, n := range tx.logServers() {
		b.AddWrite(rdma.Addr{Node: n, Region: region, Offset: off}, kvlayout.TruncateWord[:])
	}
}
