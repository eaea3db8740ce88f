package pandora

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"pandora/internal/rdma"
)

// conflictErr is what backoff.wait sees for a plain conflict abort:
// anything not matching the link-fault sentinels.
var conflictErr = errors.New("conflict")

// TestBackoffConflictLadderShape pins the conflict ladder: four free
// immediate retries, then 1µs doubling to a 128µs ceiling.
func TestBackoffConflictLadderShape(t *testing.T) {
	b := newBackoff()
	if b.conflict != time.Microsecond || b.link != 50*time.Microsecond || b.conflicts != 0 {
		t.Fatalf("floor wrong: %+v", b)
	}
	want := []time.Duration{
		// Four free retries leave the delay untouched...
		time.Microsecond, time.Microsecond, time.Microsecond, time.Microsecond,
		// ...then each slept retry doubles it, capped at 128µs.
		2 * time.Microsecond, 4 * time.Microsecond, 8 * time.Microsecond,
		16 * time.Microsecond, 32 * time.Microsecond, 64 * time.Microsecond,
		128 * time.Microsecond, 128 * time.Microsecond, 128 * time.Microsecond,
	}
	for i, w := range want {
		b.wait(conflictErr)
		if b.conflict != w {
			t.Fatalf("after wait %d: conflict delay %v, want %v", i+1, b.conflict, w)
		}
		if b.conflicts != i+1 {
			t.Fatalf("after wait %d: conflicts %d", i+1, b.conflicts)
		}
	}
	if b.link != 50*time.Microsecond {
		t.Fatalf("conflict waits moved the link ladder: %v", b.link)
	}
}

// TestBackoffLinkLadderShape pins the link-fault ladder: 50µs doubling
// to a 2ms ceiling, independent of the conflict ladder.
func TestBackoffLinkLadderShape(t *testing.T) {
	b := newBackoff()
	linkErr := fmt.Errorf("verb: %w", rdma.ErrVerbTimeout)
	// Doubling stops once the next step would exceed 2ms, so the ladder
	// tops out at 1.6ms.
	want := []time.Duration{
		100 * time.Microsecond, 200 * time.Microsecond, 400 * time.Microsecond,
		800 * time.Microsecond, 1600 * time.Microsecond, 1600 * time.Microsecond,
		1600 * time.Microsecond,
	}
	for i, w := range want {
		b.wait(linkErr)
		if b.link != w {
			t.Fatalf("after wait %d: link delay %v, want %v", i+1, b.link, w)
		}
	}
	if b.conflict != time.Microsecond || b.conflicts != 0 {
		t.Fatalf("link waits moved the conflict ladder: %+v", b)
	}
	partErr := fmt.Errorf("verb: %w", rdma.ErrLinkPartitioned)
	b.wait(partErr)
	if b.link != 1600*time.Microsecond || b.conflicts != 0 {
		t.Fatal("partition error did not use the link ladder")
	}
}

// TestBackoffResetReturnsToFloor pins the reset contract: both ladders
// and the free-retry budget return to their floors.
func TestBackoffResetReturnsToFloor(t *testing.T) {
	b := newBackoff()
	for i := 0; i < 12; i++ {
		b.wait(conflictErr)
		b.wait(fmt.Errorf("verb: %w", rdma.ErrVerbTimeout))
	}
	b.reset()
	if b != newBackoff() {
		t.Fatalf("reset left %+v", b)
	}
}

// TestUpdateResetsBackoffOnCommit drives a real session through a
// conflict burst and a successful commit, and checks the session's
// persistent ladder was climbed by the former and reset by the latter.
// This is the PR 1 starvation fix completed: before, the ladder was
// rebuilt per Update call (climb lost between calls); persisting it
// without the reset would instead tax every post-burst Update with the
// ceiling delay.
func TestUpdateResetsBackoffOnCommit(t *testing.T) {
	c, err := New(Config{
		Tables:           []TableSpec{{Name: "kv", ValueSize: 16, Capacity: 1024}},
		HotlockThreshold: -1, // plain CAS baseline: conflicts abort, no queue
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s := c.Session(0, 0)
	if err := s.Update(0, func(tx *Tx) error {
		return tx.Insert("kv", 1, []byte("v"))
	}); err != nil {
		t.Fatal(err)
	}

	// Hold key 1's lock from another session, then burn conflict retries.
	holder := c.Session(1, 0)
	htx := holder.Begin()
	if err := htx.Write("kv", 1, []byte("h")); err != nil {
		t.Fatal(err)
	}
	err = s.Update(6, func(tx *Tx) error {
		return tx.Write("kv", 1, []byte("w"))
	})
	if !IsAborted(err) {
		t.Fatalf("contended update: %v", err)
	}
	if s.bo.conflicts != 7 || s.bo.conflict <= time.Microsecond {
		t.Fatalf("ladder did not climb: %+v", s.bo)
	}

	// The ladder persists across Update calls while conflicts continue.
	climbed := s.bo.conflict
	err = s.Update(1, func(tx *Tx) error {
		return tx.Write("kv", 1, []byte("w"))
	})
	if !IsAborted(err) {
		t.Fatalf("contended update: %v", err)
	}
	if s.bo.conflicts != 9 || s.bo.conflict < climbed {
		t.Fatalf("ladder did not persist across Update calls: %+v", s.bo)
	}

	// Release the lock; the next successful commit resets the ladder.
	if err := htx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.Update(0, func(tx *Tx) error {
		return tx.Write("kv", 1, []byte("w2"))
	}); err != nil {
		t.Fatal(err)
	}
	if s.bo != newBackoff() {
		t.Fatalf("successful commit did not reset the ladder: %+v", s.bo)
	}
}

// TestUpdateNegativeRetriesRunsOnce: a negative retry budget means no
// retries, not no attempts — fn runs exactly once and its transaction
// commits. (It used to return nil without ever calling fn.)
func TestUpdateNegativeRetriesRunsOnce(t *testing.T) {
	c, err := New(Config{Tables: []TableSpec{{Name: "kv", ValueSize: 16, Capacity: 64}}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s := c.Session(0, 0)
	calls := 0
	if err := s.Update(-1, func(tx *Tx) error {
		calls++
		return tx.Insert("kv", 1, []byte("v"))
	}); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("fn ran %d times under a negative budget, want 1", calls)
	}
	if err := s.Update(-1, func(tx *Tx) error {
		v, err := tx.Read("kv", 1)
		if err == nil && v[0] != 'v' {
			err = fmt.Errorf("key 1 = %q", v)
		}
		return err
	}); err != nil {
		t.Fatalf("the insert did not commit: %v", err)
	}

	// A conflict under a negative budget surfaces after the one attempt.
	htx := c.Session(1, 0).Begin()
	if err := htx.Write("kv", 1, []byte("h")); err != nil {
		t.Fatal(err)
	}
	calls = 0
	err = s.Update(-3, func(tx *Tx) error {
		calls++
		return tx.Write("kv", 1, []byte("w"))
	})
	if !IsAborted(err) || calls != 1 {
		t.Fatalf("contended update under a negative budget: err=%v after %d attempts, want one abort", err, calls)
	}
	if err := htx.Abort(); err != nil {
		t.Fatal(err)
	}
}
