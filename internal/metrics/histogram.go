package metrics

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// numBuckets is the fixed bucket count of every histogram: bucket 0
// holds non-positive samples, bucket i (i ≥ 1) holds durations in
// [2^(i-1), 2^i) nanoseconds, and the last bucket absorbs everything
// from ~4.6 years up. Fixed log2 geometry means recording is a shift
// and an add — no search, no resizing, no configuration.
const numBuckets = 64

// histShards spreads concurrent recorders across independent counter
// arrays so coordinators on different cores do not serialize on one
// cache line. Must be a power of two. A shard is 512 B (64 × 8 B), an
// exact cache-line multiple, so shards never share a line.
const histShards = 8

// histShard is one recorder's-worth of bucket counters.
type histShard struct {
	buckets [numBuckets]atomic.Uint64
}

// Histogram is a lock-free fixed-bucket log2 latency histogram. The
// zero value is ready to use. Recording performs exactly one atomic add
// and allocates nothing.
type Histogram struct {
	shards [histShards]histShard
}

// bucketOf maps a duration to its bucket index.
func bucketOf(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	b := bits.Len64(uint64(d)) // 1 + floor(log2 d)
	if b > numBuckets-1 {
		b = numBuckets - 1
	}
	return b
}

// bucketFloor is the inverse bound: the smallest duration (in ns) that
// lands in bucket i. Quantiles report this floor, which is what makes
// them deterministic: the reported value depends only on bucket
// occupancy, never on sample order.
func bucketFloor(i int) int64 {
	if i <= 0 {
		return 0
	}
	return int64(1) << (i - 1)
}

// record adds one sample. shard may be any value.
func (h *Histogram) record(shard uint64, d time.Duration) {
	h.shards[shardOf(shard)].buckets[bucketOf(d)].Add(1)
}

// shardOf adds a shard key's two low octal digits without carry. Keys
// are coordinator ids and node ids: the low digit alone puts coordinator
// i of every 8-coordinator node on one shard, which is exactly the set
// of recorders that run concurrently.
func shardOf(key uint64) uint64 {
	return (key ^ key>>3) & (histShards - 1)
}

// totals sums the shards into one bucket array.
func (h *Histogram) totals() [numBuckets]uint64 {
	var out [numBuckets]uint64
	for s := range h.shards {
		for b := range out {
			out[b] += h.shards[s].buckets[b].Load()
		}
	}
	return out
}

// quantile returns the floor of the bucket containing the q-quantile
// (0 < q ≤ 1) of the bucket distribution, or 0 for an empty histogram.
func quantile(buckets []uint64, total uint64, q float64) int64 {
	if total == 0 {
		return 0
	}
	need := q * float64(total) // nearest-rank: first bucket reaching q of the mass
	var cum uint64
	for i, c := range buckets {
		cum += c
		if c > 0 && float64(cum) >= need {
			return bucketFloor(i)
		}
	}
	return bucketFloor(len(buckets) - 1)
}
