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

// recordSize reads the size a record header claims. ok is false when hdr
// is no whole header, is not valid (never written, truncated), or its
// size field cannot be a record's within limit bytes.
func recordSize(hdr []byte, limit int) (size int, ok bool) {
	le := binary.LittleEndian
	if len(hdr) < logHdrSize || limit < logHdrSize+logTrlSize {
		return 0, false
	}
	if le.Uint32(hdr[0:]) != logMagic || le.Uint32(hdr[4:])&flagValid == 0 {
		return 0, false
	}
	size = int(le.Uint32(hdr[20:]))
	return size, size >= logHdrSize+logTrlSize && size <= limit
}

// DecodeLogRecord parses the coordinator log area. ok is false when the
// area holds no valid record (never written, truncated, or torn).
func DecodeLogRecord(buf []byte) (LogRecord, bool) {
	le := binary.LittleEndian
	size, ok := recordSize(buf, len(buf))
	if !ok {
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

// LogPrefixSize is how much of a log area recovery READs before it knows
// what the area holds: the header and the common record (a 2-write
// transfer logs 176 bytes), or the floor word and twelve lock intents.
const LogPrefixSize = 512

// LogExtent reports how many bytes of a transaction-log area ([TxLogOff,
// LockLogOff)) its record occupies — with chain, FORD-mode's run of
// back-to-back records — judged from the area's first len(read) bytes.
// An answer above len(read) means the rest must be READ before decoding;
// it never exceeds LockLogOff. The content ends at the first header
// DecodeLogRecord would reject; a chain whose next header lies beyond
// read may run to the end of the area, so all of it is asked for.
// DecodeLogRecords over area[:extent] yields what it yields over the area
// (without chain: the first record of it).
func LogExtent(read []byte, chain bool) int {
	off := 0
	for off+logHdrSize+logTrlSize <= LockLogOff {
		if off+logHdrSize > len(read) {
			return LockLogOff
		}
		size, ok := recordSize(read[off:], LockLogOff-off)
		if !ok {
			break
		}
		off += size
		if !chain {
			break
		}
	}
	return off
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

// LockIntentExtent is LogExtent for the lock-intent area, read from its
// floor word on. A coordinator logs each transaction's intents from entry
// 0, so the latest transaction's are entry 0 and the entries behind it
// that carry its txID: the content ends at the first entry that does not
// (an older transaction's, or never written), and is the floor word alone
// when entry 0 is at or below the floor. A prefix whose every entry
// carries entry 0's txID asks for the whole area.
func LockIntentExtent(read []byte) int {
	const whole = 8 + MaxLockIntents*LockIntentSize
	le := binary.LittleEndian
	if len(read) < 8+LockIntentSize {
		return whole
	}
	floor, latest := le.Uint64(read), le.Uint64(read[8+8:])
	if latest <= floor {
		return 8
	}
	off := 8
	for ; off < whole; off += LockIntentSize {
		if off+LockIntentSize > len(read) {
			return whole
		}
		if le.Uint32(read[off:]) != lockIntentMagic || le.Uint64(read[off+8:]) != latest {
			break
		}
	}
	return off
}
