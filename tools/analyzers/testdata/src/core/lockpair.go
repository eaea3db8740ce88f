// Fixture for the lockpair pass: a self-contained miniature of the
// internal/core locking shapes. The leaky functions reproduce the
// exact bug class PR 1 fixed by hand — a path out of the function
// between the lock CAS and the write-set registration leaked the lock.
package core

// Endpoint mirrors rdma.Endpoint's verb surface (matched by type name).
type Endpoint struct{}

func (ep *Endpoint) Read(addr uint64, buf []byte) error              { return nil }
func (ep *Endpoint) Write(addr uint64, buf []byte) error             { return nil }
func (ep *Endpoint) CAS(addr, old, new uint64) (uint64, bool, error) { return 0, false, nil }
func (ep *Endpoint) Do(ops ...*Op) error                             { return nil }
func (ep *Endpoint) DoSeq(ops ...*Op) error                          { return nil }

// Op mirrors rdma.Op.
type Op struct {
	Kind    int
	Addr    uint64
	Expect  uint64
	Swap    uint64
	Buf     []byte
	Swapped bool
}

type writeEnt struct {
	locked bool
}

type Tx struct {
	ep     *Endpoint
	writes []*writeEnt
}

func (tx *Tx) lockWord() uint64 { return 1 }

func (tx *Tx) failLocked(ent *writeEnt, err error) error {
	ent.locked = true
	tx.writes = append(tx.writes, ent)
	return err
}

func (tx *Tx) unlockAddr(addr uint64) error { return nil }
func (tx *Tx) crash() error                 { return nil }

// goodLock is the fixed PR 1 shape: the doorbell's error path hands the
// possibly-taken lock to failLocked (or proves the CAS never fired via
// Swapped), and the entry is registered before any further exit.
func (tx *Tx) goodLock(addr uint64, buf []byte) error {
	ent := &writeEnt{}
	lockOp := &Op{Swap: tx.lockWord()}
	readOp := &Op{Buf: buf}
	if err := tx.ep.Do(lockOp, readOp); err != nil {
		if lockOp.Swapped {
			return tx.failLocked(ent, err)
		}
		return err
	}
	ent.locked = true
	tx.writes = append(tx.writes, ent)
	if err := tx.ep.Write(addr+8, buf); err != nil {
		return tx.failLocked(ent, err)
	}
	return nil
}

// goodSingleCAS: a single-op CAS post may return on its error — link
// admission precedes execution, so an errored single CAS never took
// the lock — and the swapped-false edge proves the word was not taken.
func (tx *Tx) goodSingleCAS(addr, old uint64) error {
	ent := &writeEnt{}
	if _, stole, err := tx.ep.CAS(addr, old, tx.lockWord()); err != nil || !stole {
		return err
	}
	ent.locked = true
	tx.writes = append(tx.writes, ent)
	return nil
}

// goodBackout releases the word instead of registering it: the
// slot-moved back-out idiom. A failed release hands the lock over.
func (tx *Tx) goodBackout(addr, old uint64) error {
	ent := &writeEnt{}
	_, stole, err := tx.ep.CAS(addr, old, tx.lockWord())
	if err != nil {
		return err
	}
	if !stole {
		return nil
	}
	if err := tx.unlockAddr(addr); err != nil {
		return tx.failLocked(ent, err)
	}
	return nil
}

// goodCrashExit abandons the lock on a simulated node death — the one
// path recovery is specified to repair.
func (tx *Tx) goodCrashExit(addr, old uint64, die bool) error {
	ent := &writeEnt{}
	_, stole, err := tx.ep.CAS(addr, old, tx.lockWord())
	if err != nil || !stole {
		return err
	}
	if die {
		return tx.crash()
	}
	ent.locked = true
	tx.writes = append(tx.writes, ent)
	return nil
}

// leakyDoorbell drops the doorbell's error without consulting Swapped:
// the CAS may have taken the lock while the READ faulted, and the
// error return leaks it.
func (tx *Tx) leakyDoorbell(buf []byte) error {
	ent := &writeEnt{}
	lockOp := &Op{Swap: tx.lockWord()}
	readOp := &Op{Buf: buf}
	if err := tx.ep.Do(lockOp, readOp); err != nil { // want "doorbell posting a lock CAS can reach a function exit"
		return err
	}
	ent.locked = true
	tx.writes = append(tx.writes, ent)
	return nil
}

// leakyErrReturn registers too late: the verb between the acquisition
// and the registration returns its fault while the lock is held but
// unknown to the write set.
func (tx *Tx) leakyErrReturn(addr uint64, buf []byte) error {
	ent := &writeEnt{}
	lockOp := &Op{Swap: tx.lockWord()}
	readOp := &Op{Buf: buf}
	if err := tx.ep.Do(lockOp, readOp); err != nil { // want "doorbell posting a lock CAS can reach a function exit"
		if lockOp.Swapped {
			return tx.failLocked(ent, err)
		}
		return err
	}
	if err := tx.ep.Write(addr+8, buf); err != nil {
		return err
	}
	ent.locked = true
	tx.writes = append(tx.writes, ent)
	return nil
}

// leakyNeverRegistered takes a lock and forgets it entirely.
func (tx *Tx) leakyNeverRegistered(addr, old uint64) error {
	_, _, err := tx.ep.CAS(addr, old, tx.lockWord()) // want "lock-acquiring CAS can reach a function exit"
	return err
}

// ackTx mirrors the commit-tail surface of the ack-obligation rule
// (DESIGN.md §16): once AckedCommit is set, the locks must reach a
// release path before any non-crash exit.
type ackTx struct {
	writes      []*writeEnt
	AckedCommit bool
	async       bool
}

func (tx *ackTx) tailStage(b *Op) *Op            { return b }
func (tx *ackTx) run(st *Op) error               { return nil }
func (tx *ackTx) handoffTail(ackedAt int64)      {}
func (tx *ackTx) postAckFailure(err error) error { return err }
func (tx *ackTx) crash() error                   { return nil }
func (tx *ackTx) release()                       {}

// goodCommitTail is the real Commit shape: the read-only ack is exempt
// (no locks exist), the async branch hands the tail to the drain, the
// sync branch builds the truncate | release stage and runs it, and
// post-ack failures route to the sanctioned exit.
func (tx *ackTx) goodCommitTail(die bool, b *Op) error {
	if len(tx.writes) == 0 {
		tx.AckedCommit = true
		tx.release()
		return nil
	}
	tx.AckedCommit = true
	if die {
		return tx.crash()
	}
	if tx.async {
		tx.handoffTail(7)
		tx.release()
		return nil
	}
	if err := tx.run(tx.tailStage(b)); err != nil {
		return tx.postAckFailure(err)
	}
	tx.release()
	return nil
}

// leakyAckedTail is the deleted-hand-off leak: the async branch returns
// at the ack without giving the tail to the drain, so the acked
// transaction's locks are owned by nobody.
func (tx *ackTx) leakyAckedTail() error {
	if len(tx.writes) == 0 {
		tx.AckedCommit = true
		return nil
	}
	tx.AckedCommit = true // want "acknowledged commit can reach a function exit"
	tx.release()
	return nil
}
