package metrics

import (
	"bytes"
	"sync"
	"testing"
	"time"
	"unsafe"
)

func TestBucketOf(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1 << 20, 21}, {1<<62 + 1, 63}, {1<<63 - 1, 63},
	}
	for _, c := range cases {
		if got := bucketOf(c.d); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.d, got, c.want)
		}
	}
	// Floors invert: every bucket's floor lands back in that bucket.
	for i := 1; i < numBuckets; i++ {
		if got := bucketOf(time.Duration(bucketFloor(i))); got != i {
			t.Errorf("bucketOf(bucketFloor(%d)) = %d", i, got)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := New()
	// 90 samples at 1µs, 9 at 10µs, 1 at 1ms: p50/p95 land in the 1µs
	// and 10µs buckets, p99 in the 10µs bucket, max in the 1ms bucket.
	for i := 0; i < 90; i++ {
		r.RecordPhase(PhaseRead, uint64(i), time.Microsecond)
	}
	for i := 0; i < 9; i++ {
		r.RecordPhase(PhaseRead, uint64(i), 10*time.Microsecond)
	}
	r.RecordPhase(PhaseRead, 0, time.Millisecond)

	s := r.Snapshot()
	ps := s.Phases[PhaseRead]
	if ps.Phase != "read" || ps.Count != 100 {
		t.Fatalf("phase row = %+v", ps)
	}
	if want := bucketFloor(bucketOf(time.Microsecond)); ps.P50 != want {
		t.Errorf("p50 = %d, want %d", ps.P50, want)
	}
	if want := bucketFloor(bucketOf(10 * time.Microsecond)); ps.P95 != want || ps.P99 != want {
		t.Errorf("p95/p99 = %d/%d, want %d", ps.P95, ps.P99, want)
	}
	if want := bucketFloor(bucketOf(time.Millisecond)); ps.Max != want {
		t.Errorf("max = %d, want %d", ps.Max, want)
	}
	// Untouched phases stay present with zero counts.
	if s.Phases[PhaseLock].Count != 0 || s.Phases[PhaseLock].Phase != "lock" {
		t.Errorf("lock row = %+v", s.Phases[PhaseLock])
	}
}

func TestVerbCounters(t *testing.T) {
	r := New()
	r.CountVerb(1001, VerbCAS, false, VerbOK)
	r.CountVerb(1001, VerbCAS, true, VerbOK)
	r.CountVerb(1001, VerbCAS, false, VerbDeadlineExpired)
	r.CountVerb(1000, VerbRead, false, VerbFaulted)

	s := r.Snapshot()
	if len(s.Verbs) != 2*int(NumVerbs) {
		t.Fatalf("verb rows = %d, want %d", len(s.Verbs), 2*int(NumVerbs))
	}
	// Sorted by node, then verb enum order.
	if s.Verbs[0].Node != 1000 || s.Verbs[0].Verb != "READ" {
		t.Fatalf("first row = %+v", s.Verbs[0])
	}
	if s.Verbs[0].Issued != 1 || s.Verbs[0].Faulted != 1 {
		t.Errorf("READ@1000 = %+v", s.Verbs[0])
	}
	var cas VerbSnapshot
	for _, v := range s.Verbs {
		if v.Node == 1001 && v.Verb == "CAS" {
			cas = v
		}
	}
	if cas.Issued != 3 || cas.Retried != 1 || cas.DeadlineExpired != 1 || cas.Faulted != 0 {
		t.Errorf("CAS@1001 = %+v", cas)
	}
}

// TestVerbLanesSum: a cell's value is the sum over the issuer lanes, any
// lane value is accepted, and CountVerb is lane 0.
func TestVerbLanesSum(t *testing.T) {
	r := New()
	for lane := uint32(0); lane < 3*verbLanes; lane++ {
		r.CountVerbFrom(lane, 7, VerbWrite, lane%2 == 0, VerbFaulted)
	}
	r.CountVerb(7, VerbWrite, false, VerbOK)
	for _, v := range r.Snapshot().Verbs {
		if v.Verb == "WRITE" {
			if v.Issued != 3*verbLanes+1 || v.Retried != 3*verbLanes/2 || v.Faulted != 3*verbLanes || v.DeadlineExpired != 0 {
				t.Errorf("WRITE@7 = %+v", v)
			}
		} else if v.Issued != 0 {
			t.Errorf("%s@7 = %+v, want untouched", v.Verb, v)
		}
	}
}

// TestCounterLayout pins what keeps concurrent issuers apart (see
// rdma.TestLaneLayout): blocks are aligned to 8 bytes, so two lanes'
// cells share no cache line only with a line of padding between them,
// and lane 0 must not hold the block's first byte, which indexing
// through the pointer loads as its nil check.
func TestCounterLayout(t *testing.T) {
	var b verbBlock
	if off := unsafe.Offsetof(b.lanes); off < 64 {
		t.Errorf("lanes start at offset %d: lane 0 shares the line the nil check reads", off)
	}
	if pad := unsafe.Sizeof(b.lanes[0]) - unsafe.Sizeof(b.lanes[0].counters); pad < 64 {
		t.Errorf("%d B between two lanes' cells: they can meet in one 64 B line", pad)
	}
}

// TestShardOfSpreads: coordinator i of successive 8-coordinator nodes
// (ids 8 apart) and one node's coordinators record on distinct shards.
func TestShardOfSpreads(t *testing.T) {
	for _, c := range []struct{ base, stride uint64 }{{16, 1}, {0, 8}, {43, 8}} {
		seen := map[uint64]uint64{}
		for i := uint64(0); i < histShards; i++ {
			key := c.base + i*c.stride
			if prev, dup := seen[shardOf(key)]; dup {
				t.Errorf("base %d stride %d: keys %d and %d share shard %d", c.base, c.stride, prev, key, shardOf(key))
			}
			seen[shardOf(key)] = key
		}
	}
}

func TestAbortCounters(t *testing.T) {
	r := New()
	r.CountAbort(AbortLockConflict)
	r.CountAbort(AbortLockConflict)
	r.CountAbort(AbortCacheStale)
	r.CountAbort(NumAbortReasons + 7) // out of range folds into other

	s := r.Snapshot()
	if got := s.AbortCount(AbortLockConflict); got != 2 {
		t.Errorf("lock-conflict = %d, want 2", got)
	}
	if got := s.AbortCount(AbortCacheStale); got != 1 {
		t.Errorf("cache-stale = %d, want 1", got)
	}
	if got := s.AbortCount(AbortOther); got != 1 {
		t.Errorf("other = %d, want 1", got)
	}
	if got := s.AbortCount(AbortValidationVersion); got != 0 {
		t.Errorf("validation-version = %d, want 0", got)
	}
}

func TestLockCounters(t *testing.T) {
	r := New()
	r.CountLock(LockRetry)
	r.CountLock(LockRetry)
	r.CountLock(LockQueuedAcquire)
	r.CountLock(LockPromotion)
	r.CountLock(NumLockEvents + 1) // out of range is dropped

	s := r.Snapshot()
	if got := s.LockCount(LockRetry); got != 2 {
		t.Errorf("lock-retry = %d, want 2", got)
	}
	if got := s.LockCount(LockQueuedAcquire); got != 1 {
		t.Errorf("queued-acquire = %d, want 1", got)
	}
	if got := s.LockCount(LockDemotion); got != 0 {
		t.Errorf("demotion = %d, want 0", got)
	}
	if len(s.Locks) != int(NumLockEvents) {
		t.Fatalf("snapshot has %d lock rows, want %d", len(s.Locks), NumLockEvents)
	}

	// Sub and Idle must see the family.
	d := r.Snapshot().Sub(s)
	if !d.Idle() {
		t.Fatal("self-delta must be idle")
	}
	r.CountLock(LockTicketRepair)
	d = r.Snapshot().Sub(s)
	if d.Idle() || d.LockCount(LockTicketRepair) != 1 {
		t.Fatalf("ticket-repair delta = %d, want 1", d.LockCount(LockTicketRepair))
	}
}

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	r.RecordPhase(PhaseLock, 3, time.Second)
	r.CountAbort(AbortFault)
	r.CountLock(LockRetry)
	r.CountVerb(7, VerbWrite, true, VerbFaulted)
	s := r.Snapshot()
	if !s.Idle() {
		t.Fatalf("nil registry snapshot not idle: %+v", s)
	}
	if len(s.Phases) != int(NumPhases) || len(s.Aborts) != int(NumAbortReasons) ||
		len(s.Locks) != int(NumLockEvents) {
		t.Fatalf("nil snapshot not fully shaped: %d phases, %d aborts, %d locks",
			len(s.Phases), len(s.Aborts), len(s.Locks))
	}
}

func TestSnapshotSub(t *testing.T) {
	r := New()
	r.RecordPhase(PhaseValidate, 0, time.Microsecond)
	r.CountVerb(5, VerbRead, false, VerbOK)
	r.CountAbort(AbortSteal)
	before := r.Snapshot()

	if !before.Sub(before).Idle() {
		t.Fatal("self-delta must be idle")
	}

	r.RecordPhase(PhaseValidate, 0, 2*time.Microsecond)
	r.CountVerb(5, VerbRead, true, VerbOK)
	r.CountVerb(9, VerbFAA, false, VerbOK) // node unseen by `before`
	r.CountAbort(AbortSteal)

	d := r.Snapshot().Sub(before)
	if d.Idle() {
		t.Fatal("delta must not be idle")
	}
	if got := d.PhaseCount(PhaseValidate); got != 1 {
		t.Errorf("validate delta count = %d, want 1", got)
	}
	if got := d.AbortCount(AbortSteal); got != 1 {
		t.Errorf("steal delta = %d, want 1", got)
	}
	for _, v := range d.Verbs {
		switch {
		case v.Node == 5 && v.Verb == "READ":
			if v.Issued != 1 || v.Retried != 1 {
				t.Errorf("READ@5 delta = %+v", v)
			}
		case v.Node == 9 && v.Verb == "FAA":
			if v.Issued != 1 {
				t.Errorf("FAA@9 delta = %+v", v)
			}
		}
	}
}

// TestSnapshotJSONDeterministic: the same recording sequence must
// marshal to byte-identical JSON — the property the seeded bench
// artifacts rely on.
func TestSnapshotJSONDeterministic(t *testing.T) {
	build := func() []byte {
		r := New()
		// Register nodes out of order to exercise the sorted table.
		for _, n := range []uint16{1002, 2, 1000, 900} {
			r.CountVerb(n, VerbWrite, false, VerbOK)
			r.CountVerb(n, VerbRead, n%2 == 0, VerbOK)
		}
		for i := 0; i < 1000; i++ {
			r.RecordPhase(Phase(i%int(NumPhases)), uint64(i), time.Duration(i)*time.Microsecond)
		}
		r.CountAbort(AbortFault)
		b, err := r.Snapshot().JSON()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := build(), build()
	if !bytes.Equal(a, b) {
		t.Fatalf("same sequence, different JSON:\n%s\n----\n%s", a, b)
	}
}

// TestConcurrentRecording: hammer every family from many goroutines
// (meaningful under -race — the CI metrics lane runs this package with
// the detector on) and check totals are not lost.
func TestConcurrentRecording(t *testing.T) {
	r := New()
	const gs, per = 8, 10000
	var wg sync.WaitGroup
	for g := 0; g < gs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.RecordPhase(PhaseCommitBack, uint64(g), time.Duration(i))
				r.CountVerb(uint16(i%13), VerbCAS, i%7 == 0, VerbOK)
				if i%100 == 0 {
					r.CountAbort(AbortLockConflict)
				}
			}
		}(g)
	}
	wg.Wait()
	s := r.Snapshot()
	if got := s.PhaseCount(PhaseCommitBack); got != gs*per {
		t.Errorf("phase samples = %d, want %d", got, gs*per)
	}
	var issued uint64
	for _, v := range s.Verbs {
		issued += v.Issued
	}
	if issued != gs*per {
		t.Errorf("verbs issued = %d, want %d", issued, gs*per)
	}
	if got := s.AbortCount(AbortLockConflict); got != gs*(per/100) {
		t.Errorf("aborts = %d, want %d", got, gs*(per/100))
	}
}
