package kvlayout

import "encoding/binary"

// Undo-log record format (§3.1.4).
//
// Each coordinator owns a LogAreaSize byte area inside its compute
// node's log region on each of the f+1 designated log servers. A
// transaction writes its entire record — header, one entry per write-set
// object, trailer — with a single RDMA WRITE; the trailing txID lets a
// reader detect torn records written by a coordinator that crashed
// mid-WRITE (our simulated WRITEs are atomic, which is strictly safer,
// but the format keeps the guard that real hardware needs).
//
// Truncation ("setting an invalid bit in the log header", §3.2.3) is an
// 8-byte WRITE of zero over the header's first word, clearing the magic.

// LogAreaSize is the per-coordinator log allocation (32 KB as in the
// paper).
const LogAreaSize = 32 << 10

// LogAreaOffset returns the offset of coordinator slot i's area within
// its compute node's log region.
func LogAreaOffset(coordSlot int) uint64 { return uint64(coordSlot) * LogAreaSize }

// WriteKind distinguishes the undo action for a logged write.
type WriteKind uint8

// Write kinds.
const (
	WriteUpdate WriteKind = iota // undo: restore old value + version
	WriteInsert                  // undo: empty the slot
	WriteDelete                  // undo: restore old value + version + key
)

const (
	logMagic   = uint32(0x50494c4c) // "PILL"
	logHdrSize = 32
	logTrlSize = 16
	entHdrSize = 48
	flagValid  = uint32(1)
)

// LogWrite is one write-set object in an undo-log record. Slot and
// Partition pin the object's physical location: every replica of a
// partition uses the identical slot index, so recovery needs no probing.
type LogWrite struct {
	Table      TableID
	Partition  uint32
	Slot       uint64
	Key        Key
	Kind       WriteKind
	OldVersion uint64
	NewVersion uint64
	OldValue   []byte // undo image; empty for inserts
}

// LogRecord is the undo log of one transaction.
type LogRecord struct {
	TxID   uint64
	Coord  CoordID
	Writes []LogWrite
}

// EncodedSize returns the byte size of the encoded record.
func (r *LogRecord) EncodedSize() int {
	n := logHdrSize + logTrlSize
	for _, w := range r.Writes {
		n += entHdrSize + pad8(len(w.OldValue))
	}
	return n
}

// Encode serialises the record into a fresh buffer.
func (r *LogRecord) Encode() []byte {
	buf := make([]byte, r.EncodedSize())
	r.EncodeInto(buf)
	return buf
}

// EncodeInto serialises the record into buf, which must be exactly
// EncodedSize() zeroed bytes (the format's padding is never written) —
// the commit path hands it a verb batch's arena so the record is built
// where the WRITE reads it. It panics if the record exceeds LogAreaSize,
// which indicates a transaction larger than the protocol supports.
func (r *LogRecord) EncodeInto(buf []byte) {
	size := r.EncodedSize()
	if size > LogAreaSize {
		panic("kvlayout: log record exceeds coordinator log area")
	}
	if len(buf) != size {
		panic("kvlayout: EncodeInto buffer is not EncodedSize bytes")
	}
	le := binary.LittleEndian
	le.PutUint32(buf[0:], logMagic)
	le.PutUint32(buf[4:], flagValid)
	le.PutUint64(buf[8:], r.TxID)
	le.PutUint16(buf[16:], uint16(r.Coord))
	le.PutUint16(buf[18:], uint16(len(r.Writes)))
	le.PutUint32(buf[20:], uint32(size))
	off := logHdrSize
	for i := range r.Writes {
		w := &r.Writes[i]
		le.PutUint16(buf[off+0:], uint16(w.Table))
		buf[off+2] = byte(w.Kind)
		le.PutUint32(buf[off+4:], uint32(len(w.OldValue)))
		le.PutUint64(buf[off+8:], uint64(w.Key))
		le.PutUint64(buf[off+16:], w.Slot)
		le.PutUint32(buf[off+24:], w.Partition)
		le.PutUint64(buf[off+32:], w.OldVersion)
		le.PutUint64(buf[off+40:], w.NewVersion)
		copy(buf[off+entHdrSize:], w.OldValue)
		off += entHdrSize + pad8(len(w.OldValue))
	}
	le.PutUint32(buf[off:], ^logMagic)
	le.PutUint64(buf[off+8:], r.TxID)
}

// DecodeLogRecord parses the coordinator log area. ok is false when the
// area holds no valid record (never written, truncated, or torn).
func DecodeLogRecord(buf []byte) (LogRecord, bool) {
	le := binary.LittleEndian
	if len(buf) < logHdrSize+logTrlSize {
		return LogRecord{}, false
	}
	if le.Uint32(buf[0:]) != logMagic || le.Uint32(buf[4:])&flagValid == 0 {
		return LogRecord{}, false
	}
	size := int(le.Uint32(buf[20:]))
	if size < logHdrSize+logTrlSize || size > len(buf) {
		return LogRecord{}, false
	}
	rec := LogRecord{
		TxID:  le.Uint64(buf[8:]),
		Coord: CoordID(le.Uint16(buf[16:])),
	}
	n := int(le.Uint16(buf[18:]))
	// Torn-write guard: trailer must carry the inverted magic and the
	// same txID as the header.
	trl := size - logTrlSize
	if le.Uint32(buf[trl:]) != ^logMagic || le.Uint64(buf[trl+8:]) != rec.TxID {
		return LogRecord{}, false
	}
	off := logHdrSize
	for i := 0; i < n; i++ {
		if off+entHdrSize > trl {
			return LogRecord{}, false
		}
		vlen := int(le.Uint32(buf[off+4:]))
		if off+entHdrSize+pad8(vlen) > trl {
			return LogRecord{}, false
		}
		w := LogWrite{
			Table:      TableID(le.Uint16(buf[off+0:])),
			Kind:       WriteKind(buf[off+2]),
			Key:        Key(le.Uint64(buf[off+8:])),
			Slot:       le.Uint64(buf[off+16:]),
			Partition:  le.Uint32(buf[off+24:]),
			OldVersion: le.Uint64(buf[off+32:]),
			NewVersion: le.Uint64(buf[off+40:]),
		}
		if vlen > 0 {
			w.OldValue = make([]byte, vlen)
			copy(w.OldValue, buf[off+entHdrSize:])
		}
		rec.Writes = append(rec.Writes, w)
		off += entHdrSize + pad8(vlen)
	}
	return rec, true
}

// TruncateWord is the 8-byte zero image written over a log header to
// invalidate ("truncate") the record.
var TruncateWord [8]byte

// RollbackImage builds the slot bytes (from SlotVersionOff to the slot
// end) that undo a logged write: the old version, the old key field and
// the old value. Rolled-back inserts leave a tombstone so probe chains
// that grew past the slot while it was locked stay intact. Shared by the
// coordinator's abort path and by log recovery.
func RollbackImage(tab Table, w LogWrite) []byte {
	buf := make([]byte, tab.SlotSize()-SlotVersionOff)
	binary.LittleEndian.PutUint64(buf[0:], w.OldVersion)
	if w.Kind == WriteInsert {
		binary.LittleEndian.PutUint64(buf[8:], TombstoneKeyField)
	} else {
		binary.LittleEndian.PutUint64(buf[8:], KeyField(w.Key))
		copy(buf[16:], w.OldValue)
	}
	return buf
}

// Per-coordinator log area split. Pandora writes one transaction record
// at TxLogOff. FORD-mode appends per-object records starting at TxLogOff
// and must fit below LockLogOff. The traditional lock-logging scheme
// (§6.1) additionally appends lock-intent entries in [LockLogOff,
// LogAreaSize).
const (
	TxLogOff   = 0
	LockLogOff = 24 << 10
)

// DecodeLogRecords parses consecutive records starting at the beginning
// of buf (FORD-mode appends several per-object records back to back).
// Decoding stops at the first invalid record.
func DecodeLogRecords(buf []byte) []LogRecord {
	var out []LogRecord
	off := 0
	for off < len(buf) {
		rec, ok := DecodeLogRecord(buf[off:])
		if !ok {
			break
		}
		out = append(out, rec)
		off += int(binary.LittleEndian.Uint32(buf[off+20:]))
	}
	return out
}

// Lock-intent log (traditional logging scheme, §6.1). Area layout within
// [LockLogOff, LogAreaSize):
//
//	+0   floor txID (8): recovery raises this to invalidate entries
//	+8.. fixed-size entries
//
// The reader considers only entries with a valid magic and txID above
// the floor, and of those only the highest-txID group — a coordinator
// has one outstanding transaction, so only the latest group can hold
// stray locks.
const (
	lockIntentMagic = uint32(0x4c4b4c47) // "LKLG"
	// LockIntentSize is the encoded size of one entry.
	LockIntentSize = 40
)

// LockIntent records that a coordinator is about to lock an object.
type LockIntent struct {
	TxID      uint64
	Table     TableID
	Key       Key
	Slot      uint64
	Partition uint32
}

// EncodeLockIntent serialises one entry.
func EncodeLockIntent(li LockIntent) []byte {
	buf := make([]byte, LockIntentSize)
	le := binary.LittleEndian
	le.PutUint32(buf[0:], lockIntentMagic)
	le.PutUint16(buf[4:], uint16(li.Table))
	le.PutUint64(buf[8:], li.TxID)
	le.PutUint64(buf[16:], uint64(li.Key))
	le.PutUint64(buf[24:], li.Slot)
	le.PutUint32(buf[32:], li.Partition)
	return buf
}

// MaxLockIntents is the entry capacity of the lock-intent area.
const MaxLockIntents = (LogAreaSize - LockLogOff - 8) / LockIntentSize

// DecodeLockIntents parses the lock-intent area (buf starts at
// LockLogOff, i.e. with the floor word) and returns the latest
// transaction's entries — those above the floor and carrying the
// maximum txID present.
func DecodeLockIntents(buf []byte) []LockIntent {
	if len(buf) < 8 {
		return nil
	}
	floor := binary.LittleEndian.Uint64(buf)
	var all []LockIntent
	maxTx := uint64(0)
	for off := 8; off+LockIntentSize <= len(buf); off += LockIntentSize {
		le := binary.LittleEndian
		if le.Uint32(buf[off:]) != lockIntentMagic {
			continue
		}
		li := LockIntent{
			TxID:      le.Uint64(buf[off+8:]),
			Table:     TableID(le.Uint16(buf[off+4:])),
			Key:       Key(le.Uint64(buf[off+16:])),
			Slot:      le.Uint64(buf[off+24:]),
			Partition: le.Uint32(buf[off+32:]),
		}
		if li.TxID <= floor {
			continue
		}
		if li.TxID > maxTx {
			maxTx = li.TxID
		}
		all = append(all, li)
	}
	var out []LockIntent
	for _, li := range all {
		if li.TxID == maxTx {
			out = append(out, li)
		}
	}
	return out
}
