package kvlayout

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestLockWordRoundTrip(t *testing.T) {
	prop := func(owner uint16, tag uint32) bool {
		w := LockWord(CoordID(owner), tag)
		return IsLocked(w) && LockOwner(w) == CoordID(owner) && LockTag(w) == tag
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUnlockedWordIsZero(t *testing.T) {
	if IsLocked(0) {
		t.Fatal("zero word must be unlocked")
	}
	if !IsLocked(LockWord(0, 0)) {
		t.Fatal("LockWord(0,0) must still read as locked")
	}
}

func TestSlotSizePadding(t *testing.T) {
	cases := []struct {
		valueSize int
		slotSize  uint64
	}{
		{16, 40}, {40, 64}, {48, 72}, {672, 696}, {1, 32}, {7, 32}, {8, 32},
	}
	for _, c := range cases {
		tab := Table{ValueSize: c.valueSize, Slots: 16}
		if got := tab.SlotSize(); got != c.slotSize {
			t.Errorf("SlotSize(value=%d) = %d, want %d", c.valueSize, got, c.slotSize)
		}
	}
}

func TestHomeSlotInRange(t *testing.T) {
	tab := Table{ValueSize: 8, Slots: 1 << 10}
	prop := func(k uint64) bool {
		return tab.HomeSlot(Key(k)) < tab.Slots
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHomeSlotSpreads(t *testing.T) {
	// Sequential keys (the benchmarks preload 0..n-1) must not all land
	// in a narrow band of slots.
	tab := Table{ValueSize: 8, Slots: 1 << 12}
	seen := make(map[uint64]int)
	for k := Key(0); k < 2048; k++ {
		seen[tab.HomeSlot(k)]++
	}
	if len(seen) < 1500 {
		t.Fatalf("2048 sequential keys hashed to only %d distinct home slots", len(seen))
	}
}

func TestSlotEncodeDecodeRoundTrip(t *testing.T) {
	tab := Table{ValueSize: 16, Slots: 8}
	buf := make([]byte, tab.SlotSize())
	in := Slot{
		Lock:    LockWord(7, 99),
		Version: 12345,
		Key:     42,
		Present: true,
		Value:   []byte("0123456789abcdef"),
	}
	tab.EncodeSlot(buf, in)
	out := tab.DecodeSlot(buf)
	if out.Lock != in.Lock || out.Version != in.Version || out.Key != in.Key || !out.Present {
		t.Fatalf("decode mismatch: %+v vs %+v", out, in)
	}
	if !bytes.Equal(out.Value, in.Value) {
		t.Fatalf("value mismatch: %q vs %q", out.Value, in.Value)
	}
}

func TestEmptySlotDecodes(t *testing.T) {
	tab := Table{ValueSize: 8, Slots: 8}
	buf := make([]byte, tab.SlotSize())
	s := tab.DecodeSlot(buf)
	if s.Present || s.Lock != 0 || s.Version != 0 {
		t.Fatalf("zeroed slot decoded as %+v", s)
	}
}

func TestKeyZeroIsRepresentable(t *testing.T) {
	// Key 0 must be distinguishable from an empty slot.
	tab := Table{ValueSize: 8, Slots: 8}
	buf := make([]byte, tab.SlotSize())
	tab.EncodeSlot(buf, Slot{Present: true, Key: 0, Value: make([]byte, 8)})
	s := tab.DecodeSlot(buf)
	if !s.Present || s.Key != 0 {
		t.Fatalf("key 0 decoded as %+v", s)
	}
}

func TestLogRecordRoundTrip(t *testing.T) {
	rec := LogRecord{
		TxID:  777,
		Coord: 3,
		Writes: []LogWrite{
			{Table: 1, Partition: 4, Slot: 100, Key: 55, Kind: WriteUpdate,
				OldVersion: 9, NewVersion: 10, OldValue: []byte("old-value")},
			{Table: 2, Partition: 0, Slot: 7, Key: 0, Kind: WriteInsert,
				OldVersion: 0, NewVersion: 1},
			{Table: 1, Partition: 9, Slot: 3, Key: 123, Kind: WriteDelete,
				OldVersion: 4, NewVersion: 5, OldValue: []byte("deleted")},
		},
	}
	buf := rec.Encode()
	got, ok := DecodeLogRecord(buf)
	if !ok {
		t.Fatal("decode failed")
	}
	if got.TxID != rec.TxID || got.Coord != rec.Coord || len(got.Writes) != 3 {
		t.Fatalf("header mismatch: %+v", got)
	}
	for i := range rec.Writes {
		w, g := rec.Writes[i], got.Writes[i]
		if w.Table != g.Table || w.Partition != g.Partition || w.Slot != g.Slot ||
			w.Key != g.Key || w.Kind != g.Kind ||
			w.OldVersion != g.OldVersion || w.NewVersion != g.NewVersion ||
			!bytes.Equal(w.OldValue, g.OldValue) {
			t.Fatalf("write %d mismatch:\n got %+v\nwant %+v", i, g, w)
		}
	}
}

func TestLogRecordProperty(t *testing.T) {
	prop := func(txid uint64, coord uint16, keys []uint64, val []byte) bool {
		if len(keys) > 16 {
			keys = keys[:16]
		}
		if len(val) > 128 {
			val = val[:128]
		}
		rec := LogRecord{TxID: txid, Coord: CoordID(coord)}
		for i, k := range keys {
			rec.Writes = append(rec.Writes, LogWrite{
				Table: TableID(i), Key: Key(k), Slot: k % 1024,
				Kind: WriteKind(i % 3), OldVersion: uint64(i), NewVersion: uint64(i + 1),
				OldValue: val,
			})
		}
		got, ok := DecodeLogRecord(rec.Encode())
		if !ok || got.TxID != txid || got.Coord != CoordID(coord) || len(got.Writes) != len(rec.Writes) {
			return false
		}
		for i := range rec.Writes {
			if got.Writes[i].Key != rec.Writes[i].Key ||
				!bytes.Equal(got.Writes[i].OldValue, rec.Writes[i].OldValue) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsTruncated(t *testing.T) {
	rec := LogRecord{TxID: 1, Coord: 1, Writes: []LogWrite{{Table: 1, Key: 2, OldValue: []byte("x")}}}
	buf := rec.Encode()
	// Truncation clears the first header word.
	copy(buf, TruncateWord[:])
	if _, ok := DecodeLogRecord(buf); ok {
		t.Fatal("truncated record decoded as valid")
	}
}

func TestDecodeRejectsTorn(t *testing.T) {
	rec := LogRecord{TxID: 5, Coord: 1, Writes: []LogWrite{{Table: 1, Key: 2, OldValue: []byte("abc")}}}
	buf := rec.Encode()
	// A torn write: trailer from a previous record with a different txID.
	PutUint64(buf[len(buf)-8:], 4)
	if _, ok := DecodeLogRecord(buf); ok {
		t.Fatal("torn record decoded as valid")
	}
}

func TestDecodeRejectsEmptyAndGarbage(t *testing.T) {
	if _, ok := DecodeLogRecord(make([]byte, LogAreaSize)); ok {
		t.Fatal("zeroed area decoded as valid")
	}
	if _, ok := DecodeLogRecord([]byte{1, 2, 3}); ok {
		t.Fatal("short garbage decoded as valid")
	}
	garbage := bytes.Repeat([]byte{0xa5}, 256)
	if _, ok := DecodeLogRecord(garbage); ok {
		t.Fatal("garbage decoded as valid")
	}
}

func TestDecodeRejectsOversizedEntryCount(t *testing.T) {
	rec := LogRecord{TxID: 9, Coord: 2, Writes: []LogWrite{{Table: 1, Key: 1}}}
	buf := rec.Encode()
	// Corrupt the entry count upward; the decoder must not read past the
	// trailer.
	buf[18] = 0xff
	buf[19] = 0x0f
	if _, ok := DecodeLogRecord(buf); ok {
		t.Fatal("record with corrupt entry count decoded as valid")
	}
}

func TestEncodedSizeMatchesEncode(t *testing.T) {
	rec := LogRecord{TxID: 1, Coord: 1, Writes: []LogWrite{
		{OldValue: make([]byte, 13)}, {OldValue: make([]byte, 8)}, {},
	}}
	if got, want := len(rec.Encode()), rec.EncodedSize(); got != want {
		t.Fatalf("len(Encode()) = %d, EncodedSize() = %d", got, want)
	}
}

func TestEncodePanicsWhenOversized(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for record larger than the log area")
		}
	}()
	rec := LogRecord{}
	for i := 0; i < 100; i++ {
		rec.Writes = append(rec.Writes, LogWrite{OldValue: make([]byte, 700)})
	}
	rec.Encode()
}

func TestLogAreaOffset(t *testing.T) {
	if LogAreaOffset(0) != 0 || LogAreaOffset(3) != 3*LogAreaSize {
		t.Fatal("LogAreaOffset arithmetic wrong")
	}
}

func TestRegionIDs(t *testing.T) {
	tr := TableRegionID(3, 7)
	lr := LogRegionID(5)
	if IsLogRegion(tr) {
		t.Fatal("table region classified as log region")
	}
	if !IsLogRegion(lr) {
		t.Fatal("log region not classified as log region")
	}
	if TableRegionID(3, 7) != tr {
		t.Fatal("TableRegionID not deterministic")
	}
	if TableRegionID(3, 8) == tr || TableRegionID(4, 7) == tr {
		t.Fatal("TableRegionID collision")
	}
}

func TestMix64Deterministic(t *testing.T) {
	if Mix64(0) != Mix64(0) {
		t.Fatal("Mix64 not deterministic")
	}
	// Golden value: the hash is part of the on-wire contract (addresses
	// are recomputed independently by recovery), so it must never change.
	if got := Mix64(1); got != 0x910a2dec89025cc1 {
		t.Fatalf("Mix64(1) = %#x; the hash function must not change", got)
	}
}

// TestEncodeSlotZeroPadsValue encodes over a dirty image: a value
// shorter than ValueSize leaves zeros, not the old bytes, behind it.
func TestEncodeSlotZeroPadsValue(t *testing.T) {
	tab := Table{ValueSize: 16, Slots: 8}
	for _, tc := range []struct {
		name  string
		value []byte
	}{
		{"empty", nil},
		{"short", []byte("abc")},
		{"exact", []byte("0123456789abcdef")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			buf := bytes.Repeat([]byte{0xAA}, int(tab.SlotSize()))
			tab.EncodeSlot(buf, Slot{Version: 1, Key: 9, Present: true, Value: tc.value})
			want := make([]byte, tab.ValueSize)
			copy(want, tc.value)
			if got := tab.DecodeSlot(buf).Value; !bytes.Equal(got, want) {
				t.Fatalf("value field = %x, want %x", got, want)
			}
		})
	}
}
