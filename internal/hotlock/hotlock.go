// Package hotlock is a per-coordinator contention tracker: it promotes
// a key after a streak of lock conflicts and demotes it after a quiet
// streak of uncontended acquisitions.
//
// It once chose which keys took the FAA ticket queue that sat on top of
// the PILL lock word. The queue is gone (DESIGN.md §14: plain stalling
// was faster on the queue's own episodes), and nothing in the product
// imports this package; it stays only because the repository
// benchmark's probes (benchmark/probes.go) time its three methods.
package hotlock

import "pandora/internal/kvlayout"

const (
	// DefaultThreshold is the conflict streak that promotes a key when
	// NewTracker is given 0.
	DefaultThreshold = 3

	// DemoteAfter is the number of consecutive uncontended acquisitions
	// of a promoted key after which it is demoted again.
	DemoteAfter = 8

	// trackerSlots sizes the direct-mapped contention table. Power of
	// two.
	trackerSlots = 512
)

// entry is one direct-mapped contention-table slot.
type entry struct {
	table    kvlayout.TableID
	key      kvlayout.Key
	used     bool
	promoted bool
	streak   int // consecutive conflicts while cold
	quiet    int // consecutive uncontended acquires while promoted
}

// Tracker is the adaptive promotion table. It is not safe for
// concurrent use.
type Tracker struct {
	threshold int
	slots     [trackerSlots]entry
}

// NewTracker returns a tracker promoting keys after the given conflict
// streak; 0 selects DefaultThreshold.
func NewTracker(threshold int) *Tracker {
	if threshold <= 0 {
		threshold = DefaultThreshold
	}
	return &Tracker{threshold: threshold}
}

func (t *Tracker) slot(table kvlayout.TableID, key kvlayout.Key) *entry {
	return &t.slots[kvlayout.Mix64(uint64(table)<<48^uint64(key))&(trackerSlots-1)]
}

// owns reports whether e currently tracks (table, key).
func (e *entry) owns(table kvlayout.TableID, key kvlayout.Key) bool {
	return e.used && e.table == table && e.key == key
}

// Queued reports whether (table, key) is currently promoted.
func (t *Tracker) Queued(table kvlayout.TableID, key kvlayout.Key) bool {
	e := t.slot(table, key)
	return e.owns(table, key) && e.promoted
}

// OnConflict records a lock conflict on (table, key) and reports
// whether this conflict promoted the key. A colder key occupying the
// same direct-mapped slot is evicted: conflicts are the signal worth
// remembering.
func (t *Tracker) OnConflict(table kvlayout.TableID, key kvlayout.Key) (promoted bool) {
	e := t.slot(table, key)
	if !e.owns(table, key) {
		*e = entry{table: table, key: key, used: true}
	}
	if e.promoted {
		e.quiet = 0
		return false
	}
	e.streak++
	if e.streak >= t.threshold {
		e.promoted = true
		e.quiet = 0
		return true
	}
	return false
}

// OnAcquired records an uncontended (first-CAS) acquisition of
// (table, key) and reports whether the quiet streak demoted it. Keys
// not already tracked are left alone — uncontended traffic must not
// evict hot entries.
func (t *Tracker) OnAcquired(table kvlayout.TableID, key kvlayout.Key) (demoted bool) {
	e := t.slot(table, key)
	if !e.owns(table, key) {
		return false
	}
	if !e.promoted {
		e.streak = 0
		return false
	}
	e.quiet++
	if e.quiet >= DemoteAfter {
		*e = entry{}
		return true
	}
	return false
}
