package hotlock

import (
	"testing"

	"pandora/internal/kvlayout"
)

func TestPromotionAfterStreak(t *testing.T) {
	tr := NewTracker(0)
	for i := 0; i < DefaultThreshold-1; i++ {
		if tr.OnConflict(1, 42) {
			t.Fatalf("promoted after %d conflicts, threshold is %d", i+1, DefaultThreshold)
		}
		if tr.Queued(1, 42) {
			t.Fatal("Queued before promotion")
		}
	}
	if !tr.OnConflict(1, 42) {
		t.Fatal("no promotion at threshold")
	}
	if !tr.Queued(1, 42) {
		t.Fatal("Queued false after promotion")
	}
	// Further conflicts on a promoted key report no new promotion.
	if tr.OnConflict(1, 42) {
		t.Fatal("double promotion")
	}
}

func TestCustomThreshold(t *testing.T) {
	tr := NewTracker(1)
	if !tr.OnConflict(3, 7) || !tr.Queued(3, 7) {
		t.Fatal("threshold 1 must promote on the first conflict")
	}
}

func TestDemotionAfterQuietStreak(t *testing.T) {
	tr := NewTracker(1)
	tr.OnConflict(1, 42)
	for i := 0; i < DemoteAfter-1; i++ {
		if tr.OnAcquired(1, 42) {
			t.Fatalf("demoted after %d quiet acquires, want %d", i+1, DemoteAfter)
		}
		if !tr.Queued(1, 42) {
			t.Fatal("Queued false before demotion")
		}
	}
	if !tr.OnAcquired(1, 42) {
		t.Fatal("no demotion after quiet streak")
	}
	if tr.Queued(1, 42) {
		t.Fatal("Queued true after demotion")
	}
}

func TestConflictResetsQuietStreak(t *testing.T) {
	tr := NewTracker(1)
	tr.OnConflict(1, 42)
	for i := 0; i < DemoteAfter-1; i++ {
		tr.OnAcquired(1, 42)
	}
	tr.OnConflict(1, 42) // interleaved conflict must restart the quiet count
	for i := 0; i < DemoteAfter-1; i++ {
		if tr.OnAcquired(1, 42) {
			t.Fatal("demoted despite interleaved conflict")
		}
	}
	if !tr.OnAcquired(1, 42) {
		t.Fatal("no demotion after full quiet streak")
	}
}

func TestAcquireResetsColdStreak(t *testing.T) {
	tr := NewTracker(3)
	tr.OnConflict(1, 42)
	tr.OnConflict(1, 42)
	tr.OnAcquired(1, 42) // success clears the partial streak
	tr.OnConflict(1, 42)
	tr.OnConflict(1, 42)
	if tr.Queued(1, 42) {
		t.Fatal("promoted despite streak reset")
	}
	if !tr.OnConflict(1, 42) {
		t.Fatal("no promotion after fresh full streak")
	}
}

func TestConflictEvictsCollidingEntry(t *testing.T) {
	tr := NewTracker(2)
	// Find two keys mapping to the same direct-mapped slot.
	base := kvlayout.Key(1)
	var other kvlayout.Key
	for k := kvlayout.Key(2); ; k++ {
		if tr.slot(1, k) == tr.slot(1, base) {
			other = k
			break
		}
	}
	tr.OnConflict(1, base)
	tr.OnConflict(1, other) // evicts base's half-built streak
	if tr.OnConflict(1, base) {
		t.Fatal("eviction did not reset the streak")
	}
	if !tr.OnConflict(1, base) {
		t.Fatal("no promotion after rebuilt streak")
	}
	// The evicted key's state is gone, not merged.
	if tr.Queued(1, other) {
		t.Fatal("collided key inherited promotion")
	}
}

func TestAcquiredIgnoresUntrackedKeys(t *testing.T) {
	tr := NewTracker(2)
	tr.OnConflict(1, 42)
	// An uncontended acquire of a different key colliding on the same
	// slot must not evict the tracked streak.
	var other kvlayout.Key
	for k := kvlayout.Key(1000); ; k++ {
		if tr.slot(1, k) == tr.slot(1, 42) && k != 42 {
			other = k
			break
		}
	}
	if tr.OnAcquired(1, other) {
		t.Fatal("untracked key reported demotion")
	}
	if !tr.OnConflict(1, 42) {
		t.Fatal("uncontended collision evicted a tracked streak")
	}
}
