package rdma

import (
	"bytes"
	"encoding/binary"
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func newTestFabric(t *testing.T) *Fabric {
	t.Helper()
	f := NewFabric(LatencyModel{})
	f.AddNode(0) // compute
	f.AddNode(1) // memory
	return f
}

func TestReadWriteRoundTrip(t *testing.T) {
	f := newTestFabric(t)
	f.RegisterRegion(1, 0, 4096)
	ep := f.Endpoint(0)
	addr := Addr{Node: 1, Region: 0, Offset: 128}

	src := []byte("hello, disaggregated world")
	if err := ep.Write(addr, src); err != nil {
		t.Fatalf("Write: %v", err)
	}
	dst := make([]byte, len(src))
	if err := ep.Read(addr, dst); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(src, dst) {
		t.Fatalf("round trip mismatch: got %q want %q", dst, src)
	}
}

func TestReadZeroLength(t *testing.T) {
	f := newTestFabric(t)
	f.RegisterRegion(1, 0, 64)
	ep := f.Endpoint(0)
	if err := ep.Read(Addr{Node: 1}, nil); err != nil {
		t.Fatalf("zero-length read: %v", err)
	}
	if err := ep.Write(Addr{Node: 1}, nil); err != nil {
		t.Fatalf("zero-length write: %v", err)
	}
}

func TestOutOfBounds(t *testing.T) {
	f := newTestFabric(t)
	f.RegisterRegion(1, 0, 64)
	ep := f.Endpoint(0)
	cases := []struct {
		off uint64
		n   int
	}{
		{64, 1}, {60, 8}, {^uint64(0), 1}, {0, 65},
	}
	for _, c := range cases {
		if err := ep.Read(Addr{Node: 1, Offset: c.off}, make([]byte, c.n)); !errors.Is(err, ErrOutOfBounds) {
			t.Errorf("Read(off=%d,n=%d): err=%v, want ErrOutOfBounds", c.off, c.n, err)
		}
	}
	// Exact fit is fine.
	if err := ep.Read(Addr{Node: 1, Offset: 0}, make([]byte, 64)); err != nil {
		t.Errorf("exact-fit read: %v", err)
	}
}

func TestCASSemantics(t *testing.T) {
	f := newTestFabric(t)
	f.RegisterRegion(1, 0, 64)
	ep := f.Endpoint(0)
	addr := Addr{Node: 1, Region: 0, Offset: 8}

	old, swapped, err := ep.CAS(addr, 0, 42)
	if err != nil || !swapped || old != 0 {
		t.Fatalf("CAS(0->42) = (%d,%v,%v), want (0,true,nil)", old, swapped, err)
	}
	old, swapped, err = ep.CAS(addr, 0, 99)
	if err != nil || swapped || old != 42 {
		t.Fatalf("failed CAS = (%d,%v,%v), want (42,false,nil)", old, swapped, err)
	}
	old, swapped, err = ep.CAS(addr, 42, 7)
	if err != nil || !swapped || old != 42 {
		t.Fatalf("CAS(42->7) = (%d,%v,%v), want (42,true,nil)", old, swapped, err)
	}
}

func TestCASUnaligned(t *testing.T) {
	f := newTestFabric(t)
	f.RegisterRegion(1, 0, 64)
	ep := f.Endpoint(0)
	if _, _, err := ep.CAS(Addr{Node: 1, Offset: 4}, 0, 1); !errors.Is(err, ErrUnaligned) {
		t.Fatalf("unaligned CAS err = %v, want ErrUnaligned", err)
	}
	if _, err := ep.FAA(Addr{Node: 1, Offset: 3}, 1); !errors.Is(err, ErrUnaligned) {
		t.Fatalf("unaligned FAA err = %v, want ErrUnaligned", err)
	}
}

func TestFAA(t *testing.T) {
	f := newTestFabric(t)
	f.RegisterRegion(1, 0, 64)
	ep := f.Endpoint(0)
	addr := Addr{Node: 1, Region: 0, Offset: 16}
	for i := 0; i < 10; i++ {
		old, err := ep.FAA(addr, 3)
		if err != nil {
			t.Fatalf("FAA: %v", err)
		}
		if old != uint64(i*3) {
			t.Fatalf("FAA old = %d, want %d", old, i*3)
		}
	}
}

func TestCASAtomicUnderContention(t *testing.T) {
	f := newTestFabric(t)
	f.RegisterRegion(1, 0, 64)
	addr := Addr{Node: 1, Region: 0, Offset: 0}

	const (
		workers = 8
		rounds  = 2000
	)
	var wg sync.WaitGroup
	wins := make([]int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ep := f.Endpoint(0)
			for i := 0; i < rounds; i++ {
				// Lock (CAS 0 -> w+1), then unlock (write 0).
				for {
					_, swapped, err := ep.CAS(addr, 0, uint64(w+1))
					if err != nil {
						t.Errorf("CAS: %v", err)
						return
					}
					if swapped {
						break
					}
				}
				wins[w]++
				var zero [8]byte
				if err := ep.Write(addr, zero[:]); err != nil {
					t.Errorf("unlock: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, n := range wins {
		if n != rounds {
			t.Fatalf("worker %d completed %d rounds, want %d", w, n, rounds)
		}
	}
}

func TestFAAAtomicUnderContention(t *testing.T) {
	f := newTestFabric(t)
	f.RegisterRegion(1, 0, 64)
	addr := Addr{Node: 1, Region: 0, Offset: 8}
	const workers, rounds = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ep := f.Endpoint(0)
			for i := 0; i < rounds; i++ {
				if _, err := ep.FAA(addr, 1); err != nil {
					t.Errorf("FAA: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	got, err := f.Endpoint(0).FAA(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != workers*rounds {
		t.Fatalf("counter = %d, want %d", got, workers*rounds)
	}
}

func TestRevocation(t *testing.T) {
	f := newTestFabric(t)
	f.AddNode(2)
	f.RegisterRegion(1, 0, 64)
	epA, epB := f.Endpoint(0), f.Endpoint(2)
	addr := Addr{Node: 1, Region: 0, Offset: 0}

	f.Revoke(1, 0)
	if err := epA.Write(addr, []byte{1}); !errors.Is(err, ErrRevoked) {
		t.Fatalf("revoked write err = %v, want ErrRevoked", err)
	}
	if _, _, err := epA.CAS(addr, 0, 1); !errors.Is(err, ErrRevoked) {
		t.Fatalf("revoked CAS err = %v, want ErrRevoked", err)
	}
	// Other endpoints are unaffected.
	if err := epB.Write(addr, []byte{1}); err != nil {
		t.Fatalf("unrevoked endpoint write: %v", err)
	}
	// Restore re-grants access.
	f.Restore(1, 0)
	if err := epA.Write(addr, []byte{2}); err != nil {
		t.Fatalf("restored write: %v", err)
	}
}

func TestNodeDown(t *testing.T) {
	f := newTestFabric(t)
	f.RegisterRegion(1, 0, 64)
	ep := f.Endpoint(0)
	addr := Addr{Node: 1, Region: 0, Offset: 0}

	if err := ep.Write(addr, []byte{7}); err != nil {
		t.Fatal(err)
	}
	f.SetDown(1, true)
	if err := ep.Read(addr, make([]byte, 1)); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("down read err = %v, want ErrNodeDown", err)
	}
	// Memory survives the outage (we model process fail-stop).
	f.SetDown(1, false)
	b := make([]byte, 1)
	if err := ep.Read(addr, b); err != nil || b[0] != 7 {
		t.Fatalf("post-restart read = (%v,%v), want (7,nil)", b[0], err)
	}
}

func TestLocalCrashStopsVerbs(t *testing.T) {
	f := newTestFabric(t)
	f.RegisterRegion(1, 0, 64)
	ep := f.Endpoint(0)
	f.SetCrashed(0, true)
	if err := ep.Write(Addr{Node: 1}, []byte{1}); !errors.Is(err, ErrCrashed) {
		t.Fatalf("crashed-local write err = %v, want ErrCrashed", err)
	}
	if !f.IsCrashed(0) {
		t.Fatal("IsCrashed(0) = false after SetCrashed")
	}
}

func TestUnknownRegion(t *testing.T) {
	f := newTestFabric(t)
	ep := f.Endpoint(0)
	if err := ep.Read(Addr{Node: 1, Region: 9}, make([]byte, 1)); !errors.Is(err, ErrNoRegion) {
		t.Fatalf("err = %v, want ErrNoRegion", err)
	}
	if err := ep.Read(Addr{Node: 42}, make([]byte, 1)); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("unknown node err = %v, want ErrNodeDown", err)
	}
}

func TestLatencyCharging(t *testing.T) {
	lat := LatencyModel{BaseRTT: time.Microsecond, BytesPerSec: 1e9}
	f := NewFabric(lat)
	f.AddNode(0)
	f.AddNode(1)
	f.AddNode(2)
	f.RegisterRegion(1, 0, 4096)
	f.RegisterRegion(2, 0, 4096)

	var clk VClock
	ep := f.Endpoint(0).WithClock(&clk)

	// A 1000-byte verb on a 1 GB/s link: 1 µs RTT + 1 µs transfer.
	if err := ep.Write(Addr{Node: 1}, make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	if got, want := clk.Now(), 2*time.Microsecond; got != want {
		t.Fatalf("single verb charged %v, want %v", got, want)
	}

	// Two parallel verbs charge the max, not the sum.
	clk.Reset()
	err := ep.Do(
		&Op{Kind: OpWrite, Addr: Addr{Node: 1}, Buf: make([]byte, 1000)},
		&Op{Kind: OpWrite, Addr: Addr{Node: 2}, Buf: make([]byte, 3000)},
	)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := clk.Now(), 4*time.Microsecond; got != want {
		t.Fatalf("parallel batch charged %v, want %v", got, want)
	}

	// A dependent chain — one call per verb — charges the sum.
	clk.Reset()
	if err := ep.Write(Addr{Node: 1}, make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	if err := ep.Write(Addr{Node: 2}, make([]byte, 3000)); err != nil {
		t.Fatal(err)
	}
	if got, want := clk.Now(), 6*time.Microsecond; got != want {
		t.Fatalf("sequential chain charged %v, want %v", got, want)
	}
}

// TestFailedVerbIsCharged: a verb that fails after admission and gate
// went out on the wire and costs a full verb, through the single-verb
// wrappers as through Do; one that a partitioned link or a closed gate
// refused was never posted and costs nothing.
func TestFailedVerbIsCharged(t *testing.T) {
	lat := LatencyModel{BaseRTT: time.Microsecond, BytesPerSec: 1e9}
	f := NewFabric(lat)
	f.AddNode(0)
	f.AddNode(1)
	f.RegisterRegion(1, 0, 4096)
	var clk VClock
	alive := true
	ep := f.Endpoint(0).WithClock(&clk).WithGate(func() bool { return alive })

	buf := make([]byte, 1000)
	verbs := []struct {
		name string
		n    int
		fn   func() error
	}{
		{"Read", len(buf), func() error { return ep.Read(Addr{Node: 1}, buf) }},
		{"Write", len(buf), func() error { return ep.Write(Addr{Node: 1}, buf) }},
		{"CAS", 8, func() error { _, _, err := ep.CAS(Addr{Node: 1}, 0, 1); return err }},
		{"FAA", 8, func() error { _, err := ep.FAA(Addr{Node: 1}, 1); return err }},
		{"Flush", 500, func() error { return ep.Flush(Addr{Node: 1}, 500) }},
		{"Do", len(buf), func() error { return ep.Do(&Op{Kind: OpRead, Addr: Addr{Node: 1}, Buf: buf}) }},
	}
	refusals := []struct {
		name   string
		on     func()
		off    func()
		err    error
		charge bool
	}{
		{"down node", func() { f.SetDown(1, true) }, func() { f.SetDown(1, false) }, ErrNodeDown, true},
		{"partitioned link", func() { f.PartitionLink(0, 1) }, func() { f.HealLink(0, 1) }, ErrLinkPartitioned, false},
		{"closed gate", func() { alive = false }, func() { alive = true }, ErrCrashed, false},
	}
	for _, r := range refusals {
		r.on()
		for _, v := range verbs {
			clk.Reset()
			if err := v.fn(); !errors.Is(err, r.err) {
				t.Fatalf("%s, %s: err = %v, want %v", r.name, v.name, err, r.err)
			}
			want := time.Duration(0)
			if r.charge {
				want = lat.Verb(v.n)
			}
			if got := clk.Now(); got != want {
				t.Errorf("%s, %s: charged %v, want %v", r.name, v.name, got, want)
			}
		}
		r.off()
	}
}

func TestDoReportsPerOpErrors(t *testing.T) {
	f := newTestFabric(t)
	f.RegisterRegion(1, 0, 64)
	ep := f.Endpoint(0)
	good := &Op{Kind: OpWrite, Addr: Addr{Node: 1}, Buf: []byte{1}}
	bad := &Op{Kind: OpRead, Addr: Addr{Node: 1, Region: 5}, Buf: make([]byte, 1)}
	err := ep.Do(good, bad)
	if !errors.Is(err, ErrNoRegion) {
		t.Fatalf("Do err = %v, want ErrNoRegion", err)
	}
	if good.Err != nil {
		t.Fatalf("good op err = %v, want nil", good.Err)
	}
	if !errors.Is(bad.Err, ErrNoRegion) {
		t.Fatalf("bad op err = %v, want ErrNoRegion", bad.Err)
	}
}

// Property: writing any payload at any in-bounds offset then reading it
// back returns the identical payload.
func TestWriteReadProperty(t *testing.T) {
	f := newTestFabric(t)
	const size = 1 << 12
	f.RegisterRegion(1, 0, size)
	ep := f.Endpoint(0)
	prop := func(off uint16, payload []byte) bool {
		o := uint64(off) % (size / 2)
		if len(payload) > size/2 {
			payload = payload[:size/2]
		}
		if err := ep.Write(Addr{Node: 1, Offset: o}, payload); err != nil {
			return false
		}
		got := make([]byte, len(payload))
		if err := ep.Read(Addr{Node: 1, Offset: o}, got); err != nil {
			return false
		}
		return bytes.Equal(got, payload)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: CAS on an arbitrary aligned word behaves as the sequential
// specification: swaps iff the current value equals expect, and always
// returns the prior value.
func TestCASProperty(t *testing.T) {
	f := newTestFabric(t)
	const size = 1 << 10
	f.RegisterRegion(1, 0, size)
	ep := f.Endpoint(0)
	prop := func(slot uint8, initial, expect, swap uint64) bool {
		off := (uint64(slot) % (size / 8)) * 8
		addr := Addr{Node: 1, Offset: off}
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], initial)
		if err := ep.Write(addr, w[:]); err != nil {
			return false
		}
		old, swapped, err := ep.CAS(addr, expect, swap)
		if err != nil || old != initial || swapped != (initial == expect) {
			return false
		}
		var r [8]byte
		if err := ep.Read(addr, r[:]); err != nil {
			return false
		}
		got := binary.LittleEndian.Uint64(r[:])
		if initial == expect {
			return got == swap
		}
		return got == initial
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: FAA is a fetch-then-add with wrap-around uint64 semantics.
func TestFAAProperty(t *testing.T) {
	f := newTestFabric(t)
	f.RegisterRegion(1, 0, 64)
	ep := f.Endpoint(0)
	addr := Addr{Node: 1, Offset: 0}
	prop := func(initial, delta uint64) bool {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], initial)
		if err := ep.Write(addr, w[:]); err != nil {
			return false
		}
		old, err := ep.FAA(addr, delta)
		if err != nil || old != initial {
			return false
		}
		var r [8]byte
		if err := ep.Read(addr, r[:]); err != nil {
			return false
		}
		return binary.LittleEndian.Uint64(r[:]) == initial+delta
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRegionReadUint64(t *testing.T) {
	f := newTestFabric(t)
	r := f.RegisterRegion(1, 0, 64)
	ep := f.Endpoint(0)
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], 0xdeadbeef)
	if err := ep.Write(Addr{Node: 1, Offset: 8}, w[:]); err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadUint64(8)
	if err != nil || got != 0xdeadbeef {
		t.Fatalf("ReadUint64 = (%#x, %v), want (0xdeadbeef, nil)", got, err)
	}
	if _, err := r.ReadUint64(3); !errors.Is(err, ErrUnaligned) {
		t.Fatalf("unaligned ReadUint64 err = %v", err)
	}
	if _, err := r.ReadUint64(64); !errors.Is(err, ErrOutOfBounds) {
		t.Fatalf("oob ReadUint64 err = %v", err)
	}
}

func TestFlushChargesByteCount(t *testing.T) {
	lat := LatencyModel{BaseRTT: time.Microsecond, BytesPerSec: 1e9}
	f := NewFabric(lat)
	f.EnablePersistence()
	f.AddNode(0)
	f.AddNode(1)
	f.RegisterRegion(1, 0, 8192)

	var clk VClock
	ep := f.Endpoint(0).WithClock(&clk)
	if err := ep.Write(Addr{Node: 1}, make([]byte, 4000)); err != nil {
		t.Fatal(err)
	}

	// A 4000-byte flush on a 1 GB/s link: 1 µs RTT + 4 µs transfer.
	// The old engine mischarged every flush as a fixed 8-byte verb.
	clk.Reset()
	if err := ep.Flush(Addr{Node: 1}, 4000); err != nil {
		t.Fatal(err)
	}
	if got, want := clk.Now(), lat.Verb(4000); got != want {
		t.Fatalf("Flush(4000) charged %v, want %v", got, want)
	}
	if clk.Now() <= lat.Verb(8) {
		t.Fatalf("Flush charged like a fixed 8-byte verb: %v", clk.Now())
	}

	// The same holds for an OpFlush issued through a batch.
	clk.Reset()
	b := GetBatch()
	b.AddFlush(Addr{Node: 1}, 4000)
	if err := ep.Do(b.Ops()...); err != nil {
		t.Fatal(err)
	}
	b.Put()
	if got, want := clk.Now(), lat.Verb(4000); got != want {
		t.Fatalf("batched OpFlush charged %v, want %v", got, want)
	}
}
