package metrics

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// BenchmarkCountCommitRoundParallel: two goroutines count commit rounds
// at once, as the coordinators of two sessions do. "shared" gives both the
// same shard key — one counter on one cache line, what every commit paid
// before the counter was sharded — and "sharded" gives each its own
// coordinator id.
//
//	go test -run '^$' -bench CountCommitRoundParallel ./internal/metrics
func BenchmarkCountCommitRoundParallel(b *testing.B) {
	for _, c := range []struct {
		name   string
		stride uint64
	}{{"shared", 0}, {"sharded", 1}} {
		b.Run(c.name, func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2)) // RunParallel: one goroutine per P
			r := New()
			var next atomic.Uint64
			b.RunParallel(func(pb *testing.PB) {
				id := next.Add(1) * c.stride
				for pb.Next() {
					r.CountCommitRound(id)
				}
			})
			if got := r.Snapshot().Drain.CommitRounds; got != uint64(b.N) {
				b.Fatalf("counted %d rounds, want %d", got, b.N)
			}
		})
	}
}
