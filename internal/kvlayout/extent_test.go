package kvlayout

import (
	"encoding/binary"
	"reflect"
	"testing"
)

// recordOf builds a one-write record of exactly size bytes
// (size ≥ 96, a multiple of 8).
func recordOf(txID uint64, size int) []byte {
	rec := LogRecord{TxID: txID, Coord: 7, Writes: []LogWrite{{Key: Key(txID), NewVersion: 1,
		OldValue: make([]byte, size-logHdrSize-logTrlSize-entHdrSize)}}}
	if rec.EncodedSize() != size {
		panic("recordOf: size is not a record size")
	}
	return rec.Encode()
}

// txArea lays records back to back from the start of a transaction-log area.
func txArea(recs ...[]byte) []byte {
	area := make([]byte, LockLogOff)
	off := 0
	for _, r := range recs {
		off += copy(area[off:], r)
	}
	return area
}

func TestLogExtentBoundaries(t *testing.T) {
	withSize := func(size uint32) []byte {
		area := txArea(recordOf(9, 176))
		binary.LittleEndian.PutUint32(area[20:], size)
		return area
	}
	truncated := txArea(recordOf(9, 176))
	copy(truncated, TruncateWord[:])
	for _, c := range []struct {
		name          string
		area          []byte
		read          int // bytes of the area READ so far
		single, chain int // LogExtent without and with chain
	}{
		{"never written", txArea(), LogPrefixSize, 0, 0},
		{"truncated record", truncated, LogPrefixSize, 0, 0},
		{"common record", txArea(recordOf(9, 176)), LogPrefixSize, 176, 176},
		{"record ends exactly at the prefix", txArea(recordOf(9, LogPrefixSize)), LogPrefixSize, LogPrefixSize, LockLogOff},
		{"next header straddles the prefix", txArea(recordOf(9, LogPrefixSize-8)), LogPrefixSize, LogPrefixSize - 8, LockLogOff},
		{"record longer than the prefix", txArea(recordOf(9, 816)), LogPrefixSize, 816, LockLogOff},
		{"record fills the area", txArea(recordOf(9, LockLogOff)), LogPrefixSize, LockLogOff, LockLogOff},
		{"size 0", withSize(0), LogPrefixSize, 0, 0},
		{"size below header+trailer", withSize(logHdrSize + logTrlSize - 1), LogPrefixSize, 0, 0},
		{"size above the area", withSize(LockLogOff + 8), LogPrefixSize, 0, 0},
		{"size garbage", withSize(0xdeadbeef), LogPrefixSize, 0, 0},
		{"header not wholly read", txArea(recordOf(9, 176)), logHdrSize - 1, LockLogOff, LockLogOff},
		{"nothing read", txArea(recordOf(9, 176)), 0, LockLogOff, LockLogOff},
		{"chain ends inside the prefix", txArea(recordOf(9, 112), recordOf(9, 112), recordOf(9, 112)), LogPrefixSize, 112, 336},
		{"chain ends on the prefix boundary", txArea(recordOf(9, 256), recordOf(9, 256)), LogPrefixSize, 256, LockLogOff},
		{"stale lower-txID record after the chain", txArea(recordOf(9, 112), recordOf(9, 112), recordOf(4, 112)), LogPrefixSize, 112, 336},
		{"whole area read, chain to its end", txArea(recordOf(9, LockLogOff-96), recordOf(9, 96)), LockLogOff, LockLogOff - 96, LockLogOff},
		{"whole area read, no room for another record", txArea(recordOf(9, LockLogOff-40)), LockLogOff, LockLogOff - 40, LockLogOff - 40},
	} {
		if got := LogExtent(c.area[:c.read], false); got != c.single {
			t.Errorf("%s: LogExtent(single) = %d, want %d", c.name, got, c.single)
		}
		if got := LogExtent(c.area[:c.read], true); got != c.chain {
			t.Errorf("%s: LogExtent(chain) = %d, want %d", c.name, got, c.chain)
		}
	}
}

func TestLockIntentExtentBoundaries(t *testing.T) {
	const whole = 8 + MaxLockIntents*LockIntentSize
	intents := func(floor uint64, txIDs ...uint64) []byte {
		area := lockLogArea()
		binary.LittleEndian.PutUint64(area, floor)
		for i, id := range txIDs {
			copy(area[8+i*LockIntentSize:], EncodeLockIntent(LockIntent{TxID: id, Key: Key(i)}))
		}
		return area
	}
	repeat := func(id uint64, n int) []uint64 {
		ids := make([]uint64, n)
		for i := range ids {
			ids[i] = id
		}
		return ids
	}
	inPrefix := (LogPrefixSize - 8) / LockIntentSize // whole entries a prefix holds
	if whole > LogAreaSize-LockLogOff {
		t.Fatalf("whole intent area = %d bytes, beyond the %d allocated", whole, LogAreaSize-LockLogOff)
	}
	for _, c := range []struct {
		name string
		area []byte
		read int
		want int
	}{
		{"never written", intents(0), LogPrefixSize, 8},
		{"latest transaction at the floor", intents(5, 5, 5), LogPrefixSize, 8},
		{"three intents, then an older transaction's", intents(4, 5, 5, 5, 3, 3), LogPrefixSize, 8 + 3*LockIntentSize},
		{"three intents, then never written", intents(0, 5, 5, 5), LogPrefixSize, 8 + 3*LockIntentSize},
		{"prefix one short of full", intents(0, append(repeat(5, inPrefix-1), 4)...), LogPrefixSize, 8 + (inPrefix-1)*LockIntentSize},
		{"prefix exactly full", intents(0, append(repeat(5, inPrefix), 4)...), LogPrefixSize, whole},
		{"entry 0 not wholly read", intents(0, 5), 8 + LockIntentSize - 1, whole},
		{"whole area read and full", intents(0, repeat(5, MaxLockIntents)...), LogAreaSize - LockLogOff, whole},
	} {
		got := LockIntentExtent(c.area[:c.read])
		if got != c.want {
			t.Errorf("%s: LockIntentExtent = %d, want %d", c.name, got, c.want)
			continue
		}
		// What the extent keeps is the latest transaction's group: decoding
		// it finds what decoding the area finds.
		if got <= c.read && !reflect.DeepEqual(DecodeLockIntents(c.area[:got]), DecodeLockIntents(c.area)) {
			t.Errorf("%s: decoding area[:%d] differs from decoding the area", c.name, got)
		}
	}
}

// FuzzLogExtent: whatever the area holds and however much of it was
// READ, the extent stays inside the area and cuts off nothing a decoder
// of the whole area would have found.
func FuzzLogExtent(f *testing.F) {
	f.Add([]byte{}, uint16(LogPrefixSize), false)
	f.Add(recordOf(9, 176), uint16(LogPrefixSize), false)
	f.Add(recordOf(9, 816), uint16(LogPrefixSize), true)
	f.Add(txArea(recordOf(9, 256), recordOf(9, 256), recordOf(4, 112))[:700], uint16(LogPrefixSize), true)
	f.Add(txArea(recordOf(9, 112), recordOf(9, 112))[:300], uint16(120), true)
	torn := recordOf(9, 816)
	torn[len(torn)-1] ^= 1
	f.Add(torn, uint16(40), false)
	f.Fuzz(func(t *testing.T, content []byte, read uint16, chain bool) {
		area := make([]byte, LockLogOff)
		copy(area, content)
		extent := LogExtent(area[:min(int(read), len(area))], chain)
		if extent < 0 || extent > LockLogOff {
			t.Fatalf("extent %d outside the area", extent)
		}
		got, want := DecodeLogRecords(area[:extent]), DecodeLogRecords(area)
		if !chain {
			// One record is asked for; a header not yet READ asks for the
			// whole area, and whatever lies behind the record comes with it.
			got, want = got[:min(1, len(got))], want[:min(1, len(want))]
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("DecodeLogRecords(area[:%d]) = %d records, the area holds %d", extent, len(got), len(want))
		}
	})
}
