package fdetect

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pandora/internal/kvlayout"
	"pandora/internal/quorum"
	"pandora/internal/rdma"
)

// fakeClock is a manually advanced clock for deterministic detection
// tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func TestCoordIDAllocationUniqueAndSerial(t *testing.T) {
	d := New(Config{})
	seen := map[kvlayout.CoordID]bool{}
	for node := rdma.NodeID(0); node < 8; node++ {
		ids, err := d.RegisterCompute(node, 16)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			if seen[id] {
				t.Fatalf("coordinator-id %d allocated twice", id)
			}
			seen[id] = true
		}
	}
	if d.UsedIDs() != 128 {
		t.Fatalf("UsedIDs = %d, want 128", d.UsedIDs())
	}
}

func TestCoordIDExhaustion(t *testing.T) {
	d := New(Config{})
	if _, err := d.RegisterCompute(0, kvlayout.MaxCoordIDs); err != nil {
		t.Fatal(err)
	}
	if _, err := d.RegisterCompute(1, 1); err == nil {
		t.Fatal("allocation past the id space succeeded")
	}
}

func TestHeartbeatTimeoutDetection(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	up := map[rdma.NodeID]bool{2: true}
	d := New(Config{Timeout: 5 * time.Millisecond, Now: clk.Now, Alive: func(n rdma.NodeID) bool { return up[n] }})
	ids, _ := d.RegisterCompute(1, 2)
	d.RegisterMemory(2)

	var mu sync.Mutex
	var events []Event
	d.Subscribe(func(ev Event) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	})

	// Node 2 stays up; node 1 is silent.
	clk.Advance(4 * time.Millisecond)
	d.sweep()
	mu.Lock()
	n := len(events)
	mu.Unlock()
	if n != 0 {
		t.Fatalf("premature failure events: %+v", events)
	}

	clk.Advance(2 * time.Millisecond) // node 1 now 6ms silent, node 2 only 2ms
	d.sweep()
	mu.Lock()
	defer mu.Unlock()
	if len(events) != 1 {
		t.Fatalf("got %d events, want 1: %+v", len(events), events)
	}
	ev := events[0]
	if ev.Node != 1 || ev.Kind != Compute || len(ev.Coords) != 2 {
		t.Fatalf("event = %+v", ev)
	}
	if ev.Coords[0] != ids[0] || ev.Coords[1] != ids[1] {
		t.Fatalf("event coords = %v, want %v", ev.Coords, ids)
	}
	if !d.IsFailed(1) || d.IsFailed(2) {
		t.Fatal("IsFailed state wrong")
	}
	// The failure event is current.
	if cur, ok := d.Failure(1); !ok || !slices.Equal(cur.Coords, ids) {
		t.Fatalf("Failure(1) = %+v, %t; want the event", cur, ok)
	}
}

func TestNoDuplicateFailureEvents(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	d := New(Config{Timeout: 5 * time.Millisecond, Now: clk.Now})
	d.RegisterCompute(1, 1)
	count := 0
	d.Subscribe(func(Event) { count++ })
	clk.Advance(10 * time.Millisecond)
	d.sweep()
	d.sweep()
	if _, ok := d.MarkFailed(1); ok {
		t.Fatal("MarkFailed on already-failed node reported ok")
	}
	if count != 1 {
		t.Fatalf("failure reported %d times, want 1", count)
	}
}

func TestDistributedMajorityDetection(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	up := map[rdma.NodeID]bool{1: true}
	d := New(Config{Timeout: 5 * time.Millisecond, Now: clk.Now, Replicas: 3, Alive: func(n rdma.NodeID) bool { return up[n] }})
	d.RegisterCompute(1, 1)
	var events []Event
	d.Subscribe(func(ev Event) { events = append(events, ev) })

	// One FD replica crashes: heartbeats only reach replicas 1 and 2,
	// which is still a majority — the node must not be declared failed.
	d.CrashReplica(0)
	for i := 0; i < 5; i++ {
		clk.Advance(2 * time.Millisecond)
		d.sweep()
	}
	if len(events) != 0 {
		t.Fatalf("false positive with one FD replica down: %+v", events)
	}

	// The node truly goes silent: both live replicas expire.
	up[1] = false
	clk.Advance(6 * time.Millisecond)
	d.sweep()
	if len(events) != 1 {
		t.Fatalf("missed real failure: %+v", events)
	}
}

func TestDistributedRestartedReplicaDoesNotFalselyVote(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	up := map[rdma.NodeID]bool{1: true}
	d := New(Config{Timeout: 5 * time.Millisecond, Now: clk.Now, Replicas: 3, Alive: func(n rdma.NodeID) bool { return up[n] }})
	d.RegisterCompute(1, 1)
	var events []Event
	d.Subscribe(func(ev Event) { events = append(events, ev) })

	d.CrashReplica(0)
	clk.Advance(100 * time.Millisecond)
	d.sweep() // node 1's last beat: fresh at replicas 1,2; stale at 0
	up[1] = false
	d.RestartReplica(0)
	d.sweep()
	if len(events) != 0 {
		t.Fatalf("restarted replica's stale view caused a false positive: %+v", events)
	}
}

func TestEvenReplicaCountPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("even replica count accepted")
		}
	}()
	New(Config{Replicas: 2})
}

func TestQuorumPersistenceAcrossFDRestart(t *testing.T) {
	store := quorum.NewStore(3)
	d1 := New(Config{Store: store})
	ids, _ := d1.RegisterCompute(1, 4)
	d1.MarkFailed(1)

	// FD crashes and a fresh instance recovers its state from the
	// ensemble (§3.2.4: FD failures can be repeated without violating
	// correctness).
	d2 := New(Config{Store: store})
	if d2.UsedIDs() != 4 {
		t.Fatalf("restarted FD UsedIDs = %d, want 4", d2.UsedIDs())
	}
	// New allocations must not collide with pre-restart ids.
	more, err := d2.RegisterCompute(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range more {
		for _, old := range ids {
			if id == old {
				t.Fatalf("restarted FD reallocated id %d", id)
			}
		}
	}
}

// TestFreeCoordIDs: only freed failed ids are handed out again, lowest
// first; a live id and a failed id not freed never are, and freeing retires
// the failure event.
func TestFreeCoordIDs(t *testing.T) {
	d := New(Config{})
	first, _ := d.RegisterCompute(1, 4)  // 0..3
	second, _ := d.RegisterCompute(2, 4) // 4..7, stays live
	d.MarkFailed(1)
	d.FreeCoordIDs([]kvlayout.CoordID{first[1], first[2], second[0]})
	if d.UsedIDs() != 6 {
		t.Fatalf("after freeing: UsedIDs = %d, want 6", d.UsedIDs())
	}
	if _, ok := d.Failure(1); ok {
		t.Fatal("node 1's failure is still current after ids of it were freed")
	}
	third, err := d.RegisterCompute(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if want := []kvlayout.CoordID{first[1], first[2], 8}; !slices.Equal(third, want) {
		t.Fatalf("node 3 got ids %v, want %v", third, want)
	}
	// The whole space can still be used up, and no further.
	if _, err := d.RegisterCompute(4, kvlayout.MaxCoordIDs-9); err != nil {
		t.Fatal(err)
	}
	if _, err := d.RegisterCompute(5, 1); err == nil {
		t.Fatal("allocation past the id space succeeded")
	}
}

func TestLateSweepFencesNoLiveNode(t *testing.T) {
	const timeout = 5 * time.Millisecond
	clk := &fakeClock{now: time.Unix(1000, 0)}
	up := map[rdma.NodeID]bool{1: true, 2: true}
	d := New(Config{Timeout: timeout, Now: clk.Now, Alive: func(n rdma.NodeID) bool { return up[n] }})
	d.RegisterCompute(1, 1)
	d.RegisterMemory(2)
	var events []Event
	d.Subscribe(func(ev Event) { events = append(events, ev) })

	// A sweep 100 timeouts late still finds both nodes alive.
	d.sweep()
	clk.Advance(100 * timeout)
	d.sweep()
	if len(events) != 0 {
		t.Fatalf("late sweep fenced a live node: %+v", events)
	}

	// Node 1 goes down: silent for exactly the timeout it is not yet
	// expired; the first sweep past it declares node 1 failed, once.
	up[1] = false
	clk.Advance(timeout)
	d.sweep()
	if len(events) != 0 {
		t.Fatalf("node declared failed at the timeout, not past it: %+v", events)
	}
	clk.Advance(time.Microsecond)
	d.sweep()
	clk.Advance(100 * timeout)
	d.sweep()
	if len(events) != 1 || events[0].Node != 1 {
		t.Fatalf("events = %+v, want one for node 1", events)
	}
}

func TestStartStopLiveDetection(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	var up atomic.Bool
	up.Store(true)
	// probed signals, without blocking the sweep, that a sweep read
	// node 1's liveness.
	probed := make(chan struct{}, 1)
	alive := func(rdma.NodeID) bool {
		select {
		case probed <- struct{}{}:
		default:
		}
		return up.Load()
	}
	d := New(Config{Timeout: 20 * time.Millisecond, Now: clk.Now, Alive: alive})
	d.RegisterCompute(1, 1)
	failed := make(chan Event, 1)
	d.Subscribe(func(ev Event) {
		select {
		case failed <- ev:
		default:
		}
	})
	d.Start()
	defer d.Stop()

	// Five sweeps, each after the clock jumped 100 ms, find node 1 up:
	// no failure.
	for i := 0; i < 5; i++ {
		clk.Advance(100 * time.Millisecond)
		select {
		case <-probed:
		case <-time.After(2 * time.Second):
			t.Fatal("the sweep loop never ran")
		}
	}
	select {
	case ev := <-failed:
		t.Fatalf("false positive while up: %+v", ev)
	default:
	}
	// Node 1 goes down: the next sweep past the timeout fails it.
	up.Store(false)
	clk.Advance(100 * time.Millisecond)
	select {
	case ev := <-failed:
		if ev.Node != 1 {
			t.Fatalf("wrong node failed: %+v", ev)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("silent node never declared failed")
	}
}
