package main

import (
	"math/bits"
	"strconv"
)

// hist is a log-linear latency histogram in nanoseconds: exact below
// 32 ns, then 32 buckets per power of two (relative width < 3.2%, and
// quantile interpolates inside a bucket). It keeps every sample of a
// run in 9.5 KB, where a raw sample slice for the turn-pairs workload
// would hold tens of millions of entries, and keeps the benchmark's own
// share of the measured heap small.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
}

const (
	subBits     = 5
	subCount    = 1 << subBits
	maxShift    = 35 // values up to 2^40 ns (~18 min) keep their own bucket
	histBuckets = subCount + (maxShift+1)*subCount
)

func bucketOf(v int64) int {
	if v < subCount {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - subBits - 1
	if shift > maxShift {
		return histBuckets - 1
	}
	return subCount + shift*subCount + int(v>>uint(shift)) - subCount
}

// bucketRange returns bucket i's lower bound and width.
func bucketRange(i int) (lo, width int64) {
	if i < subCount {
		return int64(i), 1
	}
	shift := (i - subCount) / subCount
	mant := int64(i-subCount-shift*subCount) + subCount
	return mant << uint(shift), 1 << uint(shift)
}

func (h *hist) add(ns int64) {
	h.counts[bucketOf(ns)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds: the sample of rank
// ceil(q·n), interpolated linearly inside its bucket so that two runs
// landing in the same bucket still read differently.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q * float64(h.n))
	if float64(rank) < q*float64(h.n) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			lo, width := bucketRange(i)
			return float64(lo) + float64(width)*(float64(rank-cum)-0.5)/float64(c)
		}
		cum += c
	}
	lo, width := bucketRange(histBuckets - 1)
	return float64(lo + width)
}

// percentileLadder is the set of tail percentiles a report may name.
var percentileLadder = []float64{0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999}

// minBeyond is how many samples must lie beyond a percentile for it to
// be reported: below that, the "tail" is a handful of outliers.
const minBeyond = 10

// supported reports whether n samples leave at least minBeyond samples
// beyond percentile q.
func supported(q float64, n uint64) bool {
	return float64(n)*(1-q) >= minBeyond-1e-9
}

// highestPercentile returns the highest ladder percentile that n samples
// support, and false when not even the median is supported.
func highestPercentile(n uint64) (float64, bool) {
	best, ok := 0.0, false
	for _, q := range percentileLadder {
		if supported(q, n) {
			best, ok = q, true
		}
	}
	return best, ok
}

// pctName renders 0.999 as "p99.9".
func pctName(q float64) string {
	return "p" + strconv.FormatFloat(q*100, 'g', 6, 64)
}
