package reconfig

import (
	"bytes"
	"reflect"
	"testing"

	"pandora/internal/kvlayout"
	"pandora/internal/place"
	"pandora/internal/rdma"
)

func sampleImage() *image {
	return &image{
		seq: 7, migID: 3, kind: KindRemove, subject: 102, phase: phaseRunning,
		from:   []rdma.NodeID{100, 101, 102},
		to:     []rdma.NodeID{100, 101, 0}, // positional: the hole the subject leaves
		states: []PartitionState{StateDone, StateCutover, StateCopying, StatePending, StatePending},
	}
}

// TestImageRoundTrip: encode → decode is the identity, also for a buffer
// with a journal region's worth of trailing zeros (how it is read back)
// and for an image with no members or partitions.
func TestImageRoundTrip(t *testing.T) {
	for _, im := range []*image{sampleImage(), {seq: 1, kind: KindAdd, subject: 9, phase: phaseComplete, states: []PartitionState{}}} {
		buf := im.encode()
		if len(buf) != im.encodedSize() || len(buf)%8 != 0 {
			t.Fatalf("encoded %d bytes, encodedSize %d (must agree, word-aligned)", len(buf), im.encodedSize())
		}
		for _, b := range [][]byte{buf, append(append([]byte(nil), buf...), make([]byte, journalRegionSize-len(buf))...)} {
			got, ok := decodeImage(b)
			if !ok {
				t.Fatalf("decodeImage rejected a valid %d-byte image", len(b))
			}
			if !reflect.DeepEqual(got, im) {
				t.Fatalf("round trip:\n got %+v\nwant %+v", got, im)
			}
		}
	}
}

// TestDecodeImageRejects: an empty region, a short buffer, a foreign
// magic, an image torn anywhere inside its arrays, a header whose counts
// were bit-flipped past the buffer, and a kind, phase or partition state
// flipped to a value this package never writes are all "no journal
// here" — never a panic, never a half-read image.
func TestDecodeImageRejects(t *testing.T) {
	good := sampleImage().encode()
	if _, ok := decodeImage(make([]byte, journalRegionSize)); ok {
		t.Error("accepted an all-zero region")
	}
	// Short and torn: every proper prefix that cuts into the header, the
	// member arrays or the state bytes.
	lastState := 9*8 + 8*6 + len(sampleImage().states)
	for n := 0; n < lastState; n++ {
		if _, ok := decodeImage(good[:n]); ok {
			t.Errorf("accepted a %d-byte prefix of a %d-byte image", n, len(good))
		}
	}
	// Bit flips: any bit of the magic; any bit of a count word that
	// makes the image claim more than the buffer holds (a flip that still
	// fits is undetectable here: the journal carries no checksum, it relies
	// on one-sided WRITEs of at most a region landing whole — Recover and
	// freshImage hold the partition count against the installed ring's,
	// TestRecoverRefusesMiscountedImage).
	for bit := 0; bit < 64; bit++ {
		flipped := append([]byte(nil), good...)
		flipped[bit/8] ^= 1 << (bit % 8)
		if _, ok := decodeImage(flipped); ok {
			t.Errorf("accepted an image with magic bit %d flipped", bit)
		}
	}
	for word := 6; word <= 8; word++ {
		for bit := 0; bit < 64; bit++ {
			flipped := append([]byte(nil), good...)
			flipped[word*8+bit/8] ^= 1 << (bit % 8)
			// What the header now claims to need, saturating.
			need, max := uint64(9*8), uint64(len(flipped))
			for w, per := range map[int]uint64{6: 8, 7: 8, 8: 1} {
				if n := kvlayout.Uint64(flipped[w*8:]); n > max {
					need = max + 1
				} else {
					need += per * n
				}
			}
			im, ok := decodeImage(flipped) // must not panic, whatever the count
			if ok && need > max {
				t.Errorf("accepted an image claiming %d bytes of a %d-byte buffer (count word %d, bit %d): %+v", need, max, word, bit, im)
			}
		}
	}
	// Enumerated fields: every single-bit flip of the kind word (add ↔
	// remove aside — both are kinds) and of the phase word (running ↔
	// complete aside), and every flip of a state byte that leaves the
	// four states. A state past done would never reach done under a
	// monotone advance.
	for _, f := range []struct {
		word  int
		legal [2]uint64
	}{{3, [2]uint64{uint64(KindAdd), uint64(KindRemove)}}, {5, [2]uint64{phaseRunning, phaseComplete}}} {
		for bit := 0; bit < 64; bit++ {
			flipped := append([]byte(nil), good...)
			flipped[f.word*8+bit/8] ^= 1 << (bit % 8)
			v := kvlayout.Uint64(flipped[f.word*8:])
			if _, ok := decodeImage(flipped); ok != (v == f.legal[0] || v == f.legal[1]) {
				t.Errorf("header word %d = %#x: accepted = %t", f.word, v, ok)
			}
		}
	}
	for i := lastState - len(sampleImage().states); i < lastState; i++ {
		for bit := 0; bit < 8; bit++ {
			flipped := append([]byte(nil), good...)
			flipped[i] ^= 1 << bit
			if _, ok := decodeImage(flipped); ok != (PartitionState(flipped[i]) <= StateDone) {
				t.Errorf("state byte %#x at offset %d: accepted = %t", flipped[i], i, ok)
			}
		}
	}
}

// TestImageAdvance: the per-partition state machine over every (from,
// to) pair. A forward move or a forward skip lands on to; an equal or
// backward request leaves the image byte-identical; either way advance
// reports the state it found and touches no other partition. A partition
// the image does not have is an error, and complete closes an image once.
func TestImageAdvance(t *testing.T) {
	all := []PartitionState{StatePending, StateCopying, StateCutover, StateDone}
	for _, from := range all {
		for _, to := range all {
			im := sampleImage()
			im.states = []PartitionState{StateCopying, from, StatePending}
			before := im.encode()
			was, err := im.advance(1, to)
			if err != nil || was != from {
				t.Fatalf("advance(%v → %v) = (%v, %v), want the state it found and no error", from, to, was, err)
			}
			want := max(from, to)
			if got := im.states; got[0] != StateCopying || got[1] != want || got[2] != StatePending {
				t.Errorf("advance(%v → %v) left states %v, want partition 1 at %v and the others untouched", from, to, got, want)
			}
			if to <= from && !bytes.Equal(im.encode(), before) {
				t.Errorf("advance(%v → %v) changed the image; a request at or behind the state must not", from, to)
			}
		}
	}
	im := sampleImage()
	before := im.encode()
	for _, p := range []uint32{uint32(len(im.states)), NoPartition} {
		if _, err := im.advance(p, StateDone); err == nil {
			t.Errorf("advance(partition %d) of a %d-partition image: no error", p, len(im.states))
		}
	}
	if !bytes.Equal(im.encode(), before) {
		t.Error("a refused advance changed the image")
	}
	if !im.complete() || im.phase != phaseComplete {
		t.Fatalf("complete() on a running image: phase %d", im.phase)
	}
	for p, s := range im.states {
		if s != StateDone {
			t.Errorf("after complete partition %d is %v", p, s)
		}
	}
	closed := im.encode()
	if im.complete() || !bytes.Equal(im.encode(), closed) {
		t.Error("a second complete() changed the image or reported a change")
	}
	if was, err := im.advance(1, StateCopying); err != nil || was != StateDone || !bytes.Equal(im.encode(), closed) {
		t.Errorf("advance on a complete image = (%v, %v), want done and no change", was, err)
	}
}

func TestMovedPartitionsAndEqualIDs(t *testing.T) {
	ids := func(n ...rdma.NodeID) []rdma.NodeID { return n }
	for _, tc := range []struct {
		a, b []rdma.NodeID
		want bool
	}{
		{nil, nil, true},
		{nil, ids(), true},
		{ids(1, 2), ids(1, 2), true},
		{ids(1, 2), ids(2, 1), false}, // order is the primary preference
		{ids(1, 2), ids(1), false},
		{ids(1), ids(1, 2), false},
		{ids(1, 2), ids(1, 3), false},
	} {
		if got := equalIDs(tc.a, tc.b); got != tc.want {
			t.Errorf("equalIDs(%v, %v) = %t, want %t", tc.a, tc.b, got, tc.want)
		}
	}

	cur := place.New(ids(100, 101, 102), 2, 8)
	if got := movedPartitions(cur, cur); got != nil {
		t.Errorf("movedPartitions(r, r) = %v, want none", got)
	}
	// One partition reassigned: exactly that one moves.
	target := cur.Reassign(5, ids(102, 100))
	want := []uint32{5}
	if equalIDs(cur.Replicas(5), target.Replicas(5)) {
		want = nil // the reassignment happened to be the identity
	}
	if got := movedPartitions(cur, target); !reflect.DeepEqual(got, want) {
		t.Errorf("movedPartitions after Reassign(5) = %v, want %v", got, want)
	}
	// A new member: every partition listed is one whose replicas differ,
	// ascending, and no differing partition is left out.
	grown, err := cur.WithMember(103)
	if err != nil {
		t.Fatal(err)
	}
	moved := movedPartitions(cur, grown)
	if len(moved) == 0 {
		t.Fatal("adding a member moved no partition")
	}
	listed := map[uint32]bool{}
	for i, p := range moved {
		if i > 0 && moved[i-1] >= p {
			t.Fatalf("movedPartitions not ascending: %v", moved)
		}
		listed[p] = true
	}
	for p := uint32(0); p < cur.Partitions(); p++ {
		if differs := !reflect.DeepEqual(cur.Replicas(p), grown.Replicas(p)); differs != listed[p] {
			t.Errorf("partition %d: replicas differ %t, listed %t", p, differs, listed[p])
		}
	}
}

func TestStringers(t *testing.T) {
	for s, want := range map[Step]string{
		StepJournalStart: "journal-start", StepCopied: "copied", StepMarked: "marked",
		StepCutoverCopied: "cutover-copied", StepInstalled: "installed",
		StepPartitionDone: "partition-done", StepFinalize: "finalize", Step(99): "step(99)",
	} {
		if got := s.String(); got != want {
			t.Errorf("Step(%d).String() = %q, want %q", uint8(s), got, want)
		}
	}
	for s, want := range map[PartitionState]string{
		StatePending: "pending", StateCopying: "copying", StateCutover: "cutover",
		StateDone: "done", PartitionState(9): "state(9)",
	} {
		if got := s.String(); got != want {
			t.Errorf("PartitionState(%d).String() = %q, want %q", uint8(s), got, want)
		}
	}
	for k, want := range map[Kind]string{KindAdd: "add", KindRemove: "remove", Kind(0): "kind(0)"} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", uint8(k), got, want)
		}
	}
}
