// Fixture for the lockword pass: hand-rolled PILL lock-word bit
// manipulation outside internal/kvlayout.
package lockword

// CoordID mirrors kvlayout.CoordID (matched by type name).
type CoordID uint16

const lockedFlag = uint64(1) << 63

// handRolledLockWord rebuilds the encoding kvlayout.LockWord owns.
func handRolledLockWord(owner CoordID, tag uint32) uint64 {
	return lockedFlag | uint64(owner)<<32 | uint64(tag) // want "raw bit operation with the lock-word locked flag"
}

// handRolledPack packs the owner field without the flag.
func handRolledPack(owner CoordID, tag uint32) uint64 {
	return uint64(owner)<<32 | uint64(tag) // want "raw owner-field shift on a lock word"
}

// handRolledIsLocked duplicates kvlayout.IsLocked.
func handRolledIsLocked(word uint64) bool {
	return word&lockedFlag != 0 // want "raw bit operation with the lock-word locked flag"
}

// handRolledOwner duplicates kvlayout.LockOwner.
func handRolledOwner(word uint64) CoordID {
	return CoordID(word >> 32) // want "raw owner-field extraction into CoordID"
}

// literalFlag uses the numeric literal directly.
func literalFlag(word uint64) bool {
	return word&0x8000000000000000 != 0 // want "raw bit operation with the lock-word locked flag"
}

// unrelatedBits: other constants and widths stay legal.
func unrelatedBits(x uint64, y uint32) uint64 {
	regionFlag := uint64(1) << 31
	_ = y << 16
	return x | regionFlag
}

// unrelatedShift32: a 32-bit shift with no CoordID involvement is fine.
func unrelatedShift32(x uint64) uint64 {
	return x >> 32 & 0xff
}
