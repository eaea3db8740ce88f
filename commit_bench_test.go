package pandora_test

import (
	"testing"

	pandora "pandora"
)

// BenchmarkCommitE2E measures the full transaction commit path — lock
// acquisition, validation, log write, replicated apply, unlock — for a
// small read-modify-write transaction (1 read + 2 writes, replication 2)
// on a warm address cache. This is the wall-clock hot path the pooled
// OpBatch, the parallel queue-pair engine and the coordinator-owned
// transaction scratch (DESIGN.md §18) target; allocs/op is the headline
// number alongside ns/op. Reference host, -benchtime 100000x: ≈2.9 µs/op,
// 67 B/op, 1 alloc/op — the caller-owned copy Read returns (before the
// scratch: ≈4.2 µs/op, 1 612 B/op, 26 allocs/op).
func BenchmarkCommitE2E(b *testing.B) {
	c, err := pandora.New(pandora.Config{
		ComputeNodes:        1,
		MemoryNodes:         3,
		Replication:         2,
		CoordinatorsPerNode: 1,
		Tables:              []pandora.TableSpec{{Name: "kv", ValueSize: 64, Capacity: 2048}},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if err := c.LoadN("kv", 1024, func(pandora.Key) []byte { return make([]byte, 64) }); err != nil {
		b.Fatal(err)
	}
	s := c.Session(0, 0)
	val := make([]byte, 64)
	// Warm address cache.
	if err := s.Update(5, func(tx *pandora.Tx) error { return tx.Write("kv", 1, val) }); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := pandora.Key(i % 1024)
		err := s.Update(5, func(tx *pandora.Tx) error {
			if _, err := tx.Read("kv", k); err != nil {
				return err
			}
			if err := tx.Write("kv", k, val); err != nil {
				return err
			}
			return tx.Write("kv", (k+7)%1024, val)
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
