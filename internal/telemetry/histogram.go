package telemetry

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// numBuckets is the number of log₂ histogram buckets. Bucket 0 counts
// zero-duration observations; bucket k (k >= 1) counts durations in
// [2^(k-1), 2^k) nanoseconds. Bucket 63 additionally absorbs anything
// larger (durations beyond ~146 years do not occur in practice).
const numBuckets = 64

// histShard is one stripe of a histogram: a full bucket array plus the
// nanosecond sum, padded so adjacent shards never share a line.
type histShard struct {
	buckets [numBuckets]atomic.Uint64
	sum     atomic.Uint64 // total observed nanoseconds
	_       pad
}

// Histogram is a cache-line-sharded log₂-bucketed latency histogram.
// Observe is two uncontended atomic adds (bucket + sum); quantile
// estimation happens on snapshots, off the hot path. Obtain histograms
// from a Registry.
type Histogram struct {
	shards []histShard
}

// newHistogram allocates a histogram with the package-wide shard count.
func newHistogram() *Histogram {
	return &Histogram{shards: make([]histShard, shardCount)}
}

// bucketIndex maps a nanosecond value to its log₂ bucket.
func bucketIndex(ns uint64) int {
	b := bits.Len64(ns)
	if b >= numBuckets {
		b = numBuckets - 1
	}
	return b
}

// Observe records one duration. Negative durations clamp to zero.
func (h *Histogram) Observe(d time.Duration) {
	ns := uint64(0)
	if d > 0 {
		ns = uint64(d)
	}
	s := &h.shards[shardIndex()]
	s.buckets[bucketIndex(ns)].Add(1)
	s.sum.Add(ns)
}

// Snapshot sums the shards into an immutable view.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var out HistogramSnapshot
	for i := range h.shards {
		s := &h.shards[i]
		for b := 0; b < numBuckets; b++ {
			out.Counts[b] += s.buckets[b].Load()
		}
		out.SumNanos += s.sum.Load()
	}
	for _, c := range out.Counts {
		out.Count += c
	}
	return out
}

// HistogramSnapshot is a point-in-time copy of a histogram's buckets.
type HistogramSnapshot struct {
	// Counts[k] is the number of observations in bucket k.
	Counts [numBuckets]uint64
	// Count is the total number of observations.
	Count uint64
	// SumNanos is the sum of all observed durations in nanoseconds.
	SumNanos uint64
}

// bucketBounds returns the inclusive value range [lo, hi] of bucket k
// in nanoseconds.
func bucketBounds(k int) (lo, hi uint64) {
	if k == 0 {
		return 0, 0
	}
	return 1 << (k - 1), 1<<k - 1
}

// Quantile estimates the q-quantile (q in [0, 1]) in duration units by
// locating the bucket containing the rank and interpolating linearly
// within it. The estimate is exact to within the bucket width (a factor
// of two), which is the precision log₂ bucketing trades for wait-free
// recording.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for k := 0; k < numBuckets; k++ {
		c := s.Counts[k]
		if c == 0 {
			continue
		}
		cum += c
		if float64(cum) >= rank {
			lo, hi := bucketBounds(k)
			frac := (rank - float64(cum-c)) / float64(c)
			return time.Duration(float64(lo) + frac*float64(hi-lo))
		}
	}
	// Unreachable: cum reaches Count, and rank <= Count.
	return 0
}

// Mean returns the average observed duration.
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.SumNanos / s.Count)
}

// sub returns the histogram delta s - prev: the observations recorded
// between the two snapshots. Counts that would go negative (prev not
// actually an ancestor) clamp to zero.
func (s HistogramSnapshot) sub(prev HistogramSnapshot) HistogramSnapshot {
	var out HistogramSnapshot
	for k := 0; k < numBuckets; k++ {
		if s.Counts[k] > prev.Counts[k] {
			out.Counts[k] = s.Counts[k] - prev.Counts[k]
			out.Count += out.Counts[k]
		}
	}
	if s.SumNanos > prev.SumNanos {
		out.SumNanos = s.SumNanos - prev.SumNanos
	}
	return out
}
