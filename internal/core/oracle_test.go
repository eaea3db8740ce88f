package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"pandora/internal/kvlayout"
)

// TestSequentialOracle runs long random scripts of single-coordinator
// transactions against the DKVS and, in lockstep, against a plain map
// oracle. After every transaction the committed state must match the
// oracle exactly — including the error results of every operation
// (not-found, exists). This complements the concurrent litmus tests
// with exhaustive sequential semantics coverage of the
// read/write/insert/delete/abort surface, including slot reuse and
// tombstone chains on a deliberately tiny table.
func TestSequentialOracle(t *testing.T) {
	for _, proto := range []Protocol{ProtocolPandora, ProtocolFORD, ProtocolTradLog} {
		proto := proto
		t.Run(proto.String(), func(t *testing.T) {
			schema := []kvlayout.Table{{ID: 0, ValueSize: 16, Slots: 32}} // tiny: forces probe chains
			e := newEnv(t, envConfig{schema: schema, opts: Options{Protocol: proto}})
			co := e.nodes[0].Coordinator(0)
			rng := rand.New(rand.NewSource(int64(proto) + 99))

			oracle := map[kvlayout.Key][]byte{}
			const keySpace = 24 // < slots, with churn

			for iter := 0; iter < 600; iter++ {
				tx := co.Begin()
				// Within-transaction semantics mirror the engine's
				// write-set behaviour (asserted by the tx_edge tests):
				// once a key has a write-set entry, Write and Delete
				// succeed on it regardless of logical deletion, and
				// Insert reports ErrExists.
				pending := map[kvlayout.Key][]byte{} // nil = deleted
				snapshot := func(k kvlayout.Key) ([]byte, bool) {
					if v, ok := pending[k]; ok {
						return v, v != nil
					}
					v, ok := oracle[k]
					return v, ok
				}
				inWriteSet := func(k kvlayout.Key) bool {
					_, ok := pending[k]
					return ok
				}
				abort := rng.Intn(5) == 0
				failed := false
				ops := 1 + rng.Intn(4)
				for i := 0; i < ops && !failed; i++ {
					k := kvlayout.Key(rng.Intn(keySpace))
					val := padValue(schema[0], []byte(fmt.Sprintf("v%d-%d", iter, i)))
					switch rng.Intn(4) {
					case 0: // read
						want, wantOK := snapshot(k)
						got, err := tx.Read(0, k)
						switch {
						case wantOK && err != nil:
							t.Fatalf("iter %d: read %d err %v, oracle has %q", iter, k, err, want)
						case !wantOK && !errors.Is(err, ErrNotFound):
							t.Fatalf("iter %d: read %d = (%q,%v), oracle absent", iter, k, got, err)
						case wantOK && !bytes.Equal(got, want):
							t.Fatalf("iter %d: read %d = %q, oracle %q", iter, k, got, want)
						}
					case 1: // write
						_, visible := snapshot(k)
						wantOK := visible || inWriteSet(k)
						err := tx.Write(0, k, val)
						if wantOK != (err == nil) {
							t.Fatalf("iter %d: write %d err %v, oracle writable=%v", iter, k, err, wantOK)
						}
						if err == nil {
							pending[k] = val
						} else if !errors.Is(err, ErrNotFound) {
							t.Fatalf("iter %d: write %d unexpected err %v", iter, k, err)
						}
					case 2: // insert
						// Present in the transaction's own view: an own delete
						// makes the key insertable again.
						_, wantOK := snapshot(k)
						err := tx.Insert(0, k, val)
						switch {
						case !wantOK && err == nil:
							pending[k] = val
						case wantOK && errors.Is(err, ErrExists):
						case !wantOK && errors.Is(err, ErrTableFull):
							// possible on the tiny table; treat as a
							// no-op and stop the transaction here
							failed = true
							_ = tx.Abort()
						default:
							t.Fatalf("iter %d: insert %d err %v, oracle present=%v", iter, k, err, wantOK)
						}
					case 3: // delete
						_, visible := snapshot(k)
						wantOK := visible || inWriteSet(k)
						err := tx.Delete(0, k)
						if wantOK != (err == nil) {
							t.Fatalf("iter %d: delete %d err %v, oracle deletable=%v", iter, k, err, wantOK)
						}
						if err == nil {
							pending[k] = nil
						}
					}
				}
				if failed {
					continue
				}
				if abort {
					_ = tx.Abort()
					continue // oracle unchanged
				}
				if err := tx.Commit(); err != nil {
					t.Fatalf("iter %d: commit: %v", iter, err)
				}
				for k, v := range pending {
					if v == nil {
						delete(oracle, k)
					} else {
						oracle[k] = v
					}
				}

				// Periodic full audit against the oracle.
				if iter%50 == 49 {
					atx := co.Begin()
					for k := kvlayout.Key(0); k < keySpace; k++ {
						want, wantOK := oracle[k]
						got, err := atx.Read(0, k)
						switch {
						case wantOK && (err != nil || !bytes.Equal(got, want)):
							t.Fatalf("audit iter %d: key %d = (%q,%v), oracle %q", iter, k, got, err, want)
						case !wantOK && !errors.Is(err, ErrNotFound):
							t.Fatalf("audit iter %d: key %d present (%q,%v), oracle absent", iter, k, got, err)
						}
					}
					if err := atx.Commit(); err != nil {
						t.Fatalf("audit commit: %v", err)
					}
				}
			}
		})
	}
}
