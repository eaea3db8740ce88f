package pandora_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	pandora "pandora"
	"pandora/internal/race"
)

// Tests of the coordinator-owned transaction scratch (DESIGN.md §18):
// what the transaction path may allocate, and that recycling the scratch
// never shows through a value or handle the caller still holds.

// TestUpdateAllocs gates the heap allocations of a warm Session.Update:
// the only one left per transaction is the caller-owned copy each Read
// returns or each ReadRange callback is handed.
func TestUpdateAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("-race instrumentation allocates; the Update alloc gate is enforced by the no-race lane")
	}
	const keys = 1024
	c := newLoaded(t, testConfig(), keys)
	s := c.Session(0, 0)
	val := u64(7)
	var k pandora.Key
	cases := []struct {
		name string
		want float64
		fn   func(tx *pandora.Tx) error
	}{
		{"2R+2W", 2, func(tx *pandora.Tx) error {
			a, b := k, (k+1)%keys
			if _, err := tx.Read("kv", a); err != nil {
				return err
			}
			if _, err := tx.Read("kv", b); err != nil {
				return err
			}
			if err := tx.Write("kv", a, val); err != nil {
				return err
			}
			return tx.Write("kv", b, val)
		}},
		{"4R read-only", 4, func(tx *pandora.Tx) error {
			for i := pandora.Key(0); i < 4; i++ {
				if _, err := tx.Read("kv", (k+i)%keys); err != nil {
					return err
				}
			}
			return nil
		}},
		{"16-key range", 16, func(tx *pandora.Tx) error {
			lo := k % (keys - 16)
			return tx.ReadRange("kv", lo, lo+15, func(pandora.Key, []byte) bool { return true })
		}},
	}
	for _, tc := range cases {
		run := func() {
			k = (k + 4) % keys
			if err := s.Update(5, tc.fn); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < keys/4; i++ { // warm the address cache, the pools and the scratch
			run()
		}
		if n := testing.AllocsPerRun(500, run); n > tc.want {
			t.Errorf("%s: %.0f allocs per Update, want %.0f", tc.name, n, tc.want)
		}
	}
}

// TestReadValuesSurviveScratchReuse: a slice returned by Read or handed
// to a ReadRange callback is the caller's — 1 000 further transactions on
// the same session, recycling the scratch it was copied from, leave it
// unchanged.
func TestReadValuesSurviveScratchReuse(t *testing.T) {
	const keys = 256
	c := newLoaded(t, testConfig(), keys)
	s := c.Session(0, 0)
	var held [][]byte
	if err := s.Update(5, func(tx *pandora.Tx) error {
		held = held[:0]
		v, err := tx.Read("kv", 3)
		if err != nil {
			return err
		}
		held = append(held, v)
		if err := tx.Write("kv", 4, u64(44)); err != nil {
			return err
		}
		if v, err = tx.Read("kv", 4); err != nil { // own pending write
			return err
		}
		held = append(held, v)
		return tx.ReadRange("kv", 10, 29, func(_ pandora.Key, v []byte) bool {
			held = append(held, v)
			return true
		})
	}); err != nil {
		t.Fatal(err)
	}
	want := [][]byte{u64(30), u64(44)}
	for k := uint64(10); k <= 29; k++ {
		want = append(want, u64(k*10))
	}
	for i := 0; i < 1000; i++ {
		k := pandora.Key(i % keys)
		if err := s.Update(5, func(tx *pandora.Tx) error {
			if err := tx.ReadRange("kv", k, k+7, func(pandora.Key, []byte) bool { return true }); err != nil {
				return err
			}
			return tx.Write("kv", 100+k%100, u64(uint64(i)))
		}); err != nil {
			t.Fatal(err)
		}
	}
	if len(held) != len(want) {
		t.Fatalf("held %d values, want %d", len(held), len(want))
	}
	for i := range want {
		if !bytes.Equal(held[i], want[i]) {
			t.Errorf("held value %d changed under later transactions: %x, want %x", i, held[i], want[i])
		}
	}
}

// TestBeginHandleOutlivesLaterTransactions: a handle from Session.Begin
// is the caller's and keeps reporting its own outcome after the session
// has run more transactions, through Begin and through Update's reused
// header alike.
func TestBeginHandleOutlivesLaterTransactions(t *testing.T) {
	c := newLoaded(t, testConfig(), 64)
	s := c.Session(0, 0)

	committed := s.Begin()
	if _, err := committed.Read("kv", 1); err != nil {
		t.Fatal(err)
	}
	for k := pandora.Key(2); k <= 4; k++ {
		if err := committed.Write("kv", k, u64(1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := committed.Commit(); err != nil {
		t.Fatal(err)
	}
	aborted := s.Begin()
	if err := aborted.Write("kv", 5, u64(1)); err != nil {
		t.Fatal(err)
	}
	if err := aborted.Abort(); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 10; i++ {
		write := func(tx *pandora.Tx) error { return tx.Write("kv", pandora.Key(10+i), u64(2)) }
		if i%2 == 0 {
			if err := s.Update(5, write); err != nil {
				t.Fatal(err)
			}
			continue
		}
		tx := s.Begin()
		if err := write(tx); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	if !committed.Done() || !committed.CommitAcked() || committed.AbortAcked() ||
		committed.WriteSetSize() != 3 || committed.ReadSetSize() != 1 {
		t.Errorf("committed handle now reports done=%t commitAcked=%t abortAcked=%t writes=%d reads=%d",
			committed.Done(), committed.CommitAcked(), committed.AbortAcked(),
			committed.WriteSetSize(), committed.ReadSetSize())
	}
	if !aborted.Done() || aborted.CommitAcked() || !aborted.AbortAcked() || aborted.WriteSetSize() != 1 {
		t.Errorf("aborted handle now reports done=%t commitAcked=%t abortAcked=%t writes=%d",
			aborted.Done(), aborted.CommitAcked(), aborted.AbortAcked(), aborted.WriteSetSize())
	}
	if err := committed.Write("kv", 6, u64(3)); err != pandora.ErrTxDone {
		t.Errorf("write on a finished handle: %v, want ErrTxDone", err)
	}
}

// TestPostedTailReleasesItsOwnLocksAfterScratchReuse: the tail of
// transaction n is posted at its ack and paid by the first doorbell of
// transaction n+1, whose Begin recycles the scratch n's write set lived
// in. The tail's verbs land before Commit returns, so n's locks are
// free while its round is still unpaid, and n+1 holds only its own.
func TestPostedTailReleasesItsOwnLocksAfterScratchReuse(t *testing.T) {
	c := newLoaded(t, testConfig(), 64)
	s := c.Session(0, 0)
	locked := func() int {
		t.Helper()
		rep, err := c.CheckConsistency("kv")
		if err != nil {
			t.Fatal(err)
		}
		return rep.LockedSlots
	}

	if err := s.Update(0, func(tx *pandora.Tx) error {
		if err := tx.Write("kv", 1, u64(11)); err != nil {
			return err
		}
		return tx.Write("kv", 2, u64(22))
	}); err != nil {
		t.Fatal(err)
	}
	if !c.Engine(0).Coordinator(0).Outstanding() {
		t.Fatal("the acked commit's tail was waited for, want it posted and unpaid")
	}
	if n := locked(); n != 0 {
		t.Fatalf("%d slots locked behind the acked commit, want 0 (its tail landed)", n)
	}
	if err := s.Update(0, func(tx *pandora.Tx) error {
		if err := tx.Write("kv", 3, u64(33)); err != nil {
			return err
		}
		if n := locked(); n != 1 {
			t.Errorf("%d slots locked inside the next transaction, want only its own", n)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n := locked(); n != 0 {
		t.Fatalf("%d slots still locked after the second commit", n)
	}
	for k, want := range map[pandora.Key]uint64{1: 11, 2: 22, 3: 33} {
		if got := binary.LittleEndian.Uint64(readValidated(t, c.Session(1, 0), "kv", k)); got != want {
			t.Errorf("key %d = %d, want %d", k, got, want)
		}
	}
}

// TestRestartedNodeTransactsAfterAbandonedWrite: a transaction cut down
// mid-write by a node crash never releases anything; the restarted
// node's first transaction on the same coordinator slot must find a
// usable scratch all the same.
func TestRestartedNodeTransactsAfterAbandonedWrite(t *testing.T) {
	c := newLoaded(t, testConfig(), 64)
	tx := c.Session(0, 0).Begin()
	if _, err := tx.Read("kv", 1); err != nil {
		t.Fatal(err)
	}
	if err := tx.Write("kv", 1, u64(111)); err != nil {
		t.Fatal(err)
	}
	c.CrashCompute(0)
	if err := tx.Write("kv", 2, u64(222)); err == nil {
		t.Fatal("write on a crashed node succeeded")
	}
	if _, err := c.FailCompute(0); err != nil {
		t.Fatal(err)
	}
	if err := c.RestartCompute(0); err != nil {
		t.Fatal(err)
	}
	s := c.Session(0, 0)
	if err := s.Update(5, func(tx *pandora.Tx) error {
		v, err := tx.Read("kv", 1)
		if err != nil {
			return err
		}
		if got := binary.LittleEndian.Uint64(v); got != 10 {
			return fmt.Errorf("key 1 = %d after the abandoned write, want 10", got)
		}
		if err := tx.Write("kv", 1, u64(1)); err != nil {
			return err
		}
		return tx.Write("kv", 2, u64(2))
	}); err != nil {
		t.Fatal(err)
	}
	for k := pandora.Key(1); k <= 2; k++ {
		if got := binary.LittleEndian.Uint64(readValidated(t, s, "kv", k)); got != uint64(k) {
			t.Errorf("key %d = %d, want %d", k, got, k)
		}
	}
}

// TestWriteSetsAcrossScratchGrowth commits write sets that cross every
// growth step of the entry slabs and the byte arena (1, 2, 17 and 64
// keys, values of exactly ValueSize), each read back inside the
// transaction and after it. `make test` runs it under -race.
func TestWriteSetsAcrossScratchGrowth(t *testing.T) {
	c := newLoaded(t, testConfig(), 128)
	s := c.Session(0, 0)
	full := func(k pandora.Key, round int) []byte { // exactly ValueSize bytes, none zero
		v := bytes.Repeat([]byte{byte(round + 1)}, 16)
		binary.LittleEndian.PutUint64(v, uint64(k)<<8|0xff)
		return v
	}
	for round, n := range []int{1, 2, 17, 64, 2} {
		if err := s.Update(5, func(tx *pandora.Tx) error {
			for k := pandora.Key(0); k < pandora.Key(n); k++ {
				if _, err := tx.Read("kv", k+64); err != nil {
					return err
				}
				if err := tx.Write("kv", k, full(k, round)); err != nil {
					return err
				}
			}
			for k := pandora.Key(0); k < pandora.Key(n); k++ {
				v, err := tx.Read("kv", k)
				if err != nil {
					return err
				}
				if !bytes.Equal(v, full(k, round)) {
					return fmt.Errorf("own write of key %d reads %x inside a %d-key transaction", k, v, n)
				}
			}
			return nil
		}); err != nil {
			t.Fatalf("%d-key write set: %v", n, err)
		}
		for k := pandora.Key(0); k < pandora.Key(n); k++ {
			if v := readValidated(t, s, "kv", k); !bytes.Equal(v, full(k, round)) {
				t.Fatalf("key %d = %x after a %d-key transaction, want %x", k, v, n, full(k, round))
			}
		}
	}
	if rep, err := c.CheckConsistency("kv"); err != nil || rep.LockedSlots != 0 || len(rep.DivergentKeys) != 0 {
		t.Fatalf("store inconsistent after the growth rounds: %+v, %v", rep, err)
	}
}
