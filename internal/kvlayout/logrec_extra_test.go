package kvlayout

import (
	"bytes"
	"encoding/binary"
	"testing"

	"pandora/internal/race"
)

func TestTombstoneSlotNotPresent(t *testing.T) {
	tab := Table{ValueSize: 8, Slots: 8}
	buf := make([]byte, tab.SlotSize())
	binary.LittleEndian.PutUint64(buf[SlotKeyOff:], TombstoneKeyField)
	s := tab.DecodeSlot(buf)
	if s.Present {
		t.Fatal("tombstoned slot decoded as present")
	}
}

func TestDecodeLogRecordsMultiple(t *testing.T) {
	r1 := LogRecord{TxID: 1, Coord: 7, Writes: []LogWrite{{Table: 0, Key: 10, OldValue: []byte("aa")}}}
	r2 := LogRecord{TxID: 2, Coord: 7, Writes: []LogWrite{{Table: 1, Key: 20, OldValue: []byte("bbbb")}}}
	r3 := LogRecord{TxID: 3, Coord: 7}
	area := make([]byte, LogAreaSize)
	off := 0
	for _, r := range []LogRecord{r1, r2, r3} {
		b := r.Encode()
		copy(area[off:], b)
		off += len(b)
	}
	recs := DecodeLogRecords(area)
	if len(recs) != 3 {
		t.Fatalf("decoded %d records, want 3", len(recs))
	}
	for i, want := range []uint64{1, 2, 3} {
		if recs[i].TxID != want {
			t.Fatalf("record %d txID = %d, want %d", i, recs[i].TxID, want)
		}
	}
	// Truncating the first record hides everything.
	copy(area, TruncateWord[:])
	if got := DecodeLogRecords(area); len(got) != 0 {
		t.Fatalf("truncated area decoded %d records", len(got))
	}
}

func TestDecodeLogRecordsEmptyArea(t *testing.T) {
	if got := DecodeLogRecords(make([]byte, LogAreaSize)); len(got) != 0 {
		t.Fatalf("empty area decoded %d records", len(got))
	}
}

func lockLogArea() []byte { return make([]byte, LogAreaSize-LockLogOff) }

func TestLockIntentRoundTrip(t *testing.T) {
	area := lockLogArea()
	in := []LockIntent{
		{TxID: 5, Table: 2, Key: 100, Slot: 17, Partition: 3},
		{TxID: 5, Table: 1, Key: 200, Slot: 9, Partition: 0},
	}
	off := 8
	for _, li := range in {
		copy(area[off:], EncodeLockIntent(li))
		off += LockIntentSize
	}
	got := DecodeLockIntents(area)
	if len(got) != 2 {
		t.Fatalf("decoded %d intents, want 2", len(got))
	}
	for i := range in {
		if got[i] != in[i] {
			t.Fatalf("intent %d = %+v, want %+v", i, got[i], in[i])
		}
	}
}

func TestLockIntentLatestTxOnly(t *testing.T) {
	area := lockLogArea()
	// Old tx 4 wrote three entries; new tx 5 overwrote the first two.
	copy(area[8:], EncodeLockIntent(LockIntent{TxID: 5, Key: 1}))
	copy(area[8+LockIntentSize:], EncodeLockIntent(LockIntent{TxID: 5, Key: 2}))
	copy(area[8+2*LockIntentSize:], EncodeLockIntent(LockIntent{TxID: 4, Key: 99}))
	got := DecodeLockIntents(area)
	if len(got) != 2 {
		t.Fatalf("decoded %d intents, want 2 (latest tx only): %+v", len(got), got)
	}
	for _, li := range got {
		if li.TxID != 5 {
			t.Fatalf("stale intent leaked: %+v", li)
		}
	}
}

func TestLockIntentFloorTruncation(t *testing.T) {
	area := lockLogArea()
	copy(area[8:], EncodeLockIntent(LockIntent{TxID: 5, Key: 1}))
	// Recovery raises the floor to 5: entry becomes invisible.
	binary.LittleEndian.PutUint64(area, 5)
	if got := DecodeLockIntents(area); len(got) != 0 {
		t.Fatalf("floored intent still decoded: %+v", got)
	}
}

func TestLockIntentGarbageIgnored(t *testing.T) {
	area := lockLogArea()
	for i := range area {
		area[i] = 0x5a
	}
	binary.LittleEndian.PutUint64(area, 0)
	if got := DecodeLockIntents(area); len(got) != 0 {
		t.Fatalf("garbage decoded as %d intents", len(got))
	}
}

// TestEncodeIntoAllocs: EncodeInto writes the same bytes Encode returns,
// into the caller's buffer and without touching the heap — the commit
// path serialises straight into a verb batch's arena.
func TestEncodeIntoAllocs(t *testing.T) {
	rec := LogRecord{TxID: 9, Coord: 3, Writes: []LogWrite{
		{Table: 1, Partition: 2, Slot: 5, Key: 7, Kind: WriteUpdate, OldVersion: 4, NewVersion: 5, OldValue: []byte("thirteen byte")},
		{Table: 1, Partition: 3, Slot: 6, Key: 8, Kind: WriteInsert, NewVersion: 1},
	}}
	buf := make([]byte, rec.EncodedSize())
	rec.EncodeInto(buf)
	if !bytes.Equal(buf, rec.Encode()) {
		t.Fatal("EncodeInto and Encode disagree")
	}
	if got, ok := DecodeLogRecord(buf); !ok || got.TxID != 9 || len(got.Writes) != 2 {
		t.Fatalf("EncodeInto output does not decode: %+v, %t", got, ok)
	}
	defer func() {
		if recover() == nil {
			t.Error("EncodeInto accepted a buffer that is not EncodedSize bytes")
		}
	}()
	if race.Enabled {
		t.Log("-race instrumentation allocates; the EncodeInto zero-alloc gate is enforced by the no-race lane")
	} else if n := testing.AllocsPerRun(200, func() {
		clear(buf)
		rec.EncodeInto(buf)
	}); n > 0 {
		t.Errorf("EncodeInto: %.0f allocs, want 0", n)
	}
	rec.EncodeInto(make([]byte, len(buf)+8))
}
