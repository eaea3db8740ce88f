package kvlayout

import "encoding/binary"

// Slot is the decoded form of one object slot as fetched by a one-sided
// READ. Present is false for an empty (or deleted) slot.
type Slot struct {
	Lock    uint64
	Version uint64
	Key     Key
	Present bool
	Value   []byte
}

// DecodeSlot interprets a raw slot buffer for table t. The returned
// Value aliases buf.
func (t Table) DecodeSlot(buf []byte) Slot {
	s := Slot{
		Lock:    binary.LittleEndian.Uint64(buf[SlotLockOff:]),
		Version: binary.LittleEndian.Uint64(buf[SlotVersionOff:]),
	}
	kf := binary.LittleEndian.Uint64(buf[SlotKeyOff:])
	if kf != 0 && kf != TombstoneKeyField && !IsClaim(kf) {
		s.Present = true
		s.Key = Key(kf - 1)
	}
	s.Value = buf[SlotValueOff : SlotValueOff+t.ValueSize]
	return s
}

// EncodeSlot writes a full slot image into buf (which must be
// SlotSize() bytes). A value shorter than ValueSize is zero-padded, so
// no byte of the old image survives in the value field. Used by
// memory-node preloading, which encodes straight into the region.
func (t Table) EncodeSlot(buf []byte, s Slot) {
	binary.LittleEndian.PutUint64(buf[SlotLockOff:], s.Lock)
	binary.LittleEndian.PutUint64(buf[SlotVersionOff:], s.Version)
	var kf uint64
	if s.Present {
		kf = uint64(s.Key) + 1
	}
	binary.LittleEndian.PutUint64(buf[SlotKeyOff:], kf)
	val := buf[SlotValueOff : SlotValueOff+t.ValueSize]
	clear(val[copy(val, s.Value):])
}

// KeyField returns the on-memory encoding of a key: key+1, with 0
// reserved for "empty slot".
func KeyField(k Key) uint64 { return uint64(k) + 1 }

// PutUint64 / Uint64 are small helpers shared by protocol code building
// verb payloads.
func PutUint64(b []byte, v uint64) { binary.LittleEndian.PutUint64(b, v) }

// Uint64 reads a little-endian word.
func Uint64(b []byte) uint64 { return binary.LittleEndian.Uint64(b) }
