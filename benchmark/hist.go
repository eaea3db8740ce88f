package main

import (
	"math/bits"
	"sort"
)

// hist is a preallocated log-linear histogram of nanosecond samples:
// 128 sub-buckets per power of two, so a bucket is at most 1/128 of its
// lower bound wide (< 1 % error) and record never allocates.
type hist struct {
	n, sum uint64
	counts [histBuckets]uint32
}

// histBuckets covers the full uint64 range: values below 256 get a
// bucket each, every later octave gets 128.
const histBuckets = 57*128 + 128

func histBucket(v uint64) int {
	if v < 256 {
		return int(v)
	}
	shift := bits.Len64(v) - 8
	return shift*128 + int(v>>uint(shift))
}

// histBounds returns bucket i's lower bound and width.
func histBounds(i int) (lo, width float64) {
	if i < 256 {
		return float64(i), 1
	}
	shift := uint(i/128 - 1)
	return float64(uint64(i%128+128) << shift), float64(uint64(1) << shift)
}

func (h *hist) record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[histBucket(uint64(ns))]++
	h.n++
	h.sum += uint64(ns)
}

// mean returns the exact mean of the recorded samples; 0 for none.
func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// quantile returns the q-quantile in nanoseconds, interpolated inside
// the bucket that holds it; 0 for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			lo, width := histBounds(i)
			return lo + width*(target-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, width := histBounds(histBuckets - 1)
	return lo + width
}

// median returns the middle of xs (mean of the two middle values for an
// even count); 0 for none. xs is left untouched.
func median(xs []float64) float64 { return quantileOf(xs, 0.5) }

// quartiles returns the first quartile, median and third quartile of xs
// by linear interpolation between order statistics.
func quartiles(xs []float64) [3]float64 {
	if len(xs) == 0 {
		return [3]float64{}
	}
	return [3]float64{quantileOf(xs, 0.25), quantileOf(xs, 0.5), quantileOf(xs, 0.75)}
}

// quantileOf returns the q-quantile of raw samples by linear
// interpolation between order statistics; 0 for none.
func quantileOf(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (s[i+1]-s[i])*(pos-float64(i))
}
