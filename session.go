package pandora

import (
	"errors"
	"fmt"
	"time"

	"pandora/internal/core"
	"pandora/internal/kvlayout"
	"pandora/internal/rdma"
)

// Session is a client handle bound to one transaction coordinator. A
// session runs one transaction at a time; open one session per worker
// goroutine.
type Session struct {
	c  *Cluster
	co *core.Coordinator
	// bo carries Update's retry-delay ladders across calls, so a burst
	// of contended Updates keeps its earned backoff; a successful commit
	// resets it (the conflict ended — the next Update starts fresh).
	bo backoff
	// tx and inner are the one transaction header Update reuses for every
	// attempt (DESIGN.md §18).
	tx    Tx
	inner core.Tx
}

// Session returns the coordinator handle for (compute node, coordinator)
// — the paper's unit of transaction concurrency.
func (c *Cluster) Session(node, coord int) *Session {
	cn := c.node(node)
	return &Session{c: c, co: cn.Coordinator(coord), bo: newBackoff()}
}

// CoordinatorID returns the session's unique coordinator-id (embedded in
// every lock the session takes — the PILL identity).
func (s *Session) CoordinatorID() kvlayout.CoordID { return s.co.ID() }

// Begin starts a transaction. The handle is the caller's: it stays
// readable (Done, CommitAcked, WriteSetSize, ...) however many
// transactions the session runs afterwards.
func (s *Session) Begin() *Tx {
	return &Tx{c: s.c, inner: s.co.Begin()}
}

// Update runs fn inside a transaction and commits, retrying aborts up to
// maxRetries times. It is the convenience most applications want.
//
// A commit that errored after the acknowledgement point counts as
// success: the write is durable and fn must not run again. Aborts
// caused by link faults (verb timeouts, partitions) back off with
// capped exponential delay before retrying, so a transiently gray link
// is not hammered. Conflict aborts retry immediately a few times, then
// sleep too: on a hot key the lock holder needs the scheduler, and
// spinning through the whole retry budget can starve it. Each such
// sleep asks for 1µs to 128µs but can park for about 1ms (see
// backoff.wait).
// A negative maxRetries means none: fn still runs once.
//
// The *Tx passed to fn belongs to the session and is reused by the next
// attempt and the next Update: fn must not keep it past its return.
func (s *Session) Update(maxRetries int, fn func(tx *Tx) error) error {
	var err error
	b := &s.bo
	tx := &s.tx
	for attempt := 0; attempt == 0 || attempt <= maxRetries; attempt++ {
		*tx = Tx{c: s.c, inner: s.co.BeginIn(&s.inner)}
		if err = fn(tx); err != nil {
			if !tx.Done() {
				_ = tx.Abort()
			}
			if IsAborted(err) {
				b.wait(err)
				continue // conflicting abort: retry
			}
			return err
		}
		err = tx.Commit()
		if err == nil || tx.CommitAcked() {
			b.reset()
			return nil
		}
		if !IsAborted(err) {
			return err
		}
		b.wait(err)
	}
	return err
}

// backoff tracks the two retry-delay ladders of Update: one for
// link-fault aborts, one for conflict aborts.
type backoff struct {
	link, conflict time.Duration
	conflicts      int
}

func newBackoff() backoff {
	return backoff{link: 50 * time.Microsecond, conflict: time.Microsecond}
}

// reset returns both ladders to their floor after a successful commit.
// Without it the conflict ladder only ever climbed for the life of the
// session: one hot burst left every later, uncontended Update paying
// the ceiling delay on its first conflict.
func (b *backoff) reset() { *b = newBackoff() }

// wait sleeps before a retry according to the abort's cause. Link
// faults back off 50µs→2ms. Conflicts get a handful of free immediate
// retries (the common, cheap case), then ask for 1µs→128µs. The Go
// runtime does not honour a sleep that short: once the P goes idle, a
// time.Sleep under 1ms parks the goroutine for about 1ms (Linux, Go
// 1.24: 0.4ms for a 1µs request, 1.1–1.3ms for 16µs and 128µs), so a
// conflict sleep on this ladder costs close to 1ms, not microseconds.
// Spinning until the deadline instead burned more CPU per transaction
// and raised no throughput, so the sleep stays.
func (b *backoff) wait(err error) {
	if errors.Is(err, rdma.ErrVerbTimeout) || errors.Is(err, rdma.ErrLinkPartitioned) {
		time.Sleep(b.link)
		if next := b.link * 2; next <= 2*time.Millisecond {
			b.link = next
		}
		return
	}
	if b.conflicts++; b.conflicts <= 4 {
		return
	}
	time.Sleep(b.conflict)
	if next := b.conflict * 2; next <= 128*time.Microsecond {
		b.conflict = next
	}
}

// Tx is one transaction. Not safe for concurrent use.
type Tx struct {
	c     *Cluster
	inner *core.Tx
}

// Errors re-exported for callers.
var (
	ErrAborted       = core.ErrAborted
	ErrNotFound      = core.ErrNotFound
	ErrExists        = core.ErrExists
	ErrTxDone        = core.ErrTxDone
	ErrIndeterminate = core.ErrIndeterminate
)

// IsAborted reports whether err is a transaction abort.
func IsAborted(err error) bool { return errors.Is(err, core.ErrAborted) }

// IsIndeterminate reports whether err left the transaction's outcome
// unresolved: cleanup could not complete (e.g. a partition outlasted
// every retry) and the client must not assume commit or abort. Recovery
// of the coordinator's node resolves the outcome from the logs.
func IsIndeterminate(err error) bool { return errors.Is(err, core.ErrIndeterminate) }

// AbortReason extracts the abort reason, or "".
func AbortReason(err error) string { return core.AbortReason(err) }

func (tx *Tx) table(name string) (kvlayout.TableID, error) {
	id, ok := tx.c.tableID[name]
	if !ok {
		return 0, fmt.Errorf("pandora: unknown table %q", name)
	}
	return id, nil
}

// Read returns the committed value of key (or this transaction's own
// pending write).
func (tx *Tx) Read(table string, key Key) ([]byte, error) {
	id, err := tx.table(table)
	if err != nil {
		return nil, err
	}
	return tx.inner.Read(id, key)
}

// Write stages an update of an existing key.
func (tx *Tx) Write(table string, key Key, value []byte) error {
	id, err := tx.table(table)
	if err != nil {
		return err
	}
	return tx.inner.Write(id, key, value)
}

// Insert stages creation of a new key.
func (tx *Tx) Insert(table string, key Key, value []byte) error {
	id, err := tx.table(table)
	if err != nil {
		return err
	}
	return tx.inner.Insert(id, key, value)
}

// Delete stages removal of an existing key.
func (tx *Tx) Delete(table string, key Key) error {
	id, err := tx.table(table)
	if err != nil {
		return err
	}
	return tx.inner.Delete(id, key)
}

// ReadRange reads every present key in [lo, hi] in key order, calling fn
// for each; fn returning false stops the scan.
func (tx *Tx) ReadRange(table string, lo, hi Key, fn func(k Key, v []byte) bool) error {
	id, err := tx.table(table)
	if err != nil {
		return err
	}
	return tx.inner.ReadRange(id, lo, hi, fn)
}

// Commit validates and commits; on conflict it aborts and returns an
// error matching ErrAborted.
func (tx *Tx) Commit() error { return tx.inner.Commit() }

// Abort aborts the transaction.
func (tx *Tx) Abort() error { return tx.inner.Abort() }

// Done reports whether the transaction has finished.
func (tx *Tx) Done() bool { return tx.inner.Done() }

// CommitAcked reports whether the client was sent a commit
// acknowledgement (used by the litmus framework for Cor3 checks).
func (tx *Tx) CommitAcked() bool { return tx.inner.AckedCommit }

// AbortAcked reports whether the client was sent an abort
// acknowledgement.
func (tx *Tx) AbortAcked() bool { return tx.inner.AckedAbort }

// WriteSetSize returns the number of staged writes (diagnostics).
func (tx *Tx) WriteSetSize() int { return tx.inner.WriteSetSize() }

// ReadSetSize returns the number of read-set entries (diagnostics).
func (tx *Tx) ReadSetSize() int { return tx.inner.ReadSetSize() }
