package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Latency is an HDR-style log-linear histogram of durations, and the
// repo's one histogram type: client-perceived transaction latencies,
// the servers' per-class, certify, stage and lag series, and the
// simulators' response times all record into one. Recording is
// constant-time with a bounded relative error (the top six significant
// bits are kept, so a bucket is at most 1/32 of its values wide and
// its midpoint representative is within 1/64 of each). Durations are
// bucketed in nanoseconds; values below 32 ns are counted exactly.
//
// Record is lock-free — bucket counts, count and sum are atomic adds,
// min and max move by compare-and-swap — so any number of goroutines
// may record into one Latency while others read it. A reader racing
// recorders sees every observation its Count includes in the buckets,
// min and max, because Record bumps the count last.
type Latency struct {
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64
	min    atomic.Int64 // math.MaxInt64 until the first observation
	max    atomic.Int64
}

const (
	// latExact is the number of low values (0..latExact-1 ns) counted
	// in their own buckets.
	latExact = 32
	// latSub is the number of linear sub-buckets per power of two
	// above the exact range.
	latSub = 32
	// latBuckets covers every non-negative int64 nanosecond value: an
	// int64 has at most 63 significant bits, so exponents 6..63 each
	// contribute latSub sub-buckets.
	latBuckets = latExact + (63-5)*latSub
)

// NewLatency returns an empty histogram.
func NewLatency() *Latency {
	l := &Latency{counts: make([]atomic.Int64, latBuckets)}
	l.min.Store(math.MaxInt64)
	return l
}

// latBucket maps a nanosecond value to its bucket index.
func latBucket(ns int64) int {
	if ns < 0 {
		ns = 0
	}
	u := uint64(ns)
	if u < latExact {
		return int(u)
	}
	e := bits.Len64(u) // 6..63 here
	mant := int(u>>(uint(e)-6)) & (latSub - 1)
	return latExact + (e-6)*latSub + mant
}

// latValue returns a representative (mid-bucket) nanosecond value for
// bucket index b, the inverse of latBucket up to the bucket width.
func latValue(b int) int64 {
	if b < latExact {
		return int64(b)
	}
	g := (b - latExact) / latSub
	m := (b - latExact) % latSub
	low := uint64(latSub+m) << uint(g)
	width := uint64(1) << uint(g)
	return int64(low + width/2)
}

// Record adds one observation; negative durations count as zero. It
// is safe for concurrent use and does not allocate.
func (l *Latency) Record(d time.Duration) {
	ns := max(int64(d), 0)
	for cur := l.min.Load(); ns < cur; cur = l.min.Load() {
		if l.min.CompareAndSwap(cur, ns) {
			break
		}
	}
	for cur := l.max.Load(); ns > cur; cur = l.max.Load() {
		if l.max.CompareAndSwap(cur, ns) {
			break
		}
	}
	l.counts[latBucket(ns)].Add(1)
	l.sum.Add(ns)
	l.count.Add(1) // last: see the type comment
}

// Count returns the number of observations.
func (l *Latency) Count() int64 { return l.count.Load() }

// Sum returns the exact sum of all observations in nanoseconds. The
// live profiler differences cumulative (Count, Sum) pairs between
// samples to get windowed means without resetting the histogram.
func (l *Latency) Sum() int64 { return l.sum.Load() }

// Mean returns the arithmetic mean, or 0 with no observations.
func (l *Latency) Mean() time.Duration {
	n := l.Count()
	if n == 0 {
		return 0
	}
	return time.Duration(l.Sum() / n)
}

// Min returns the smallest observation, or 0 with no observations.
func (l *Latency) Min() time.Duration {
	if l.Count() == 0 {
		return 0
	}
	return time.Duration(l.min.Load())
}

// Max returns the largest observation, or 0 with no observations.
func (l *Latency) Max() time.Duration { return time.Duration(l.max.Load()) }

// Quantile estimates the q-quantile (0 <= q <= 1). The estimate is
// clamped into [Min, Max], so Quantile(1) == Max exactly.
func (l *Latency) Quantile(q float64) time.Duration {
	// The rank is taken of the buckets' own sum, read in the same pass
	// as the buckets: a count loaded apart from them trails what
	// recorders add during the scan and pulls the estimate low.
	var counts [latBuckets]int64
	var n int64
	for b := range l.counts {
		counts[b] = l.counts[b].Load()
		n += counts[b]
	}
	if n == 0 {
		return 0
	}
	q = min(max(q, 0), 1)
	lo, hi := l.min.Load(), l.max.Load()
	rank := max(int64(q*float64(n)+0.5), 1)
	if rank >= n {
		return time.Duration(hi)
	}
	var cum int64
	for b, c := range counts {
		cum += c
		if cum >= rank {
			return time.Duration(min(max(latValue(b), lo), hi))
		}
	}
	return time.Duration(hi)
}

// Cumulative buckets the recorded observations under the given upper
// bounds (nanoseconds, ascending): result[i] counts observations whose
// representative bucket value is <= bounds[i], so a last bound of
// math.MaxInt64 counts every observation. Together with Sum this is
// exactly the shape of a Prometheus histogram with explicit buckets,
// which is how every histogram surfaces on /metrics (obs renders it).
// An observation within 1/64 of a bound may be counted on the other
// side of it.
func (l *Latency) Cumulative(bounds []int64) []int64 {
	out := make([]int64, len(bounds))
	i := 0
	var cum int64
	for b := range l.counts {
		c := l.counts[b].Load()
		if c == 0 {
			continue
		}
		v := latValue(b)
		for i < len(bounds) && v > bounds[i] {
			out[i] = cum
			i++
		}
		if i == len(bounds) {
			break
		}
		cum += c
	}
	for ; i < len(bounds); i++ {
		out[i] = cum
	}
	return out
}

// Summary renders the standard percentile line used by the drivers,
// e.g. "p50=1.2ms p95=3.4ms p99=8ms max=12ms (n=500)".
func (l *Latency) Summary() string {
	n := l.Count()
	if n == 0 {
		return "no observations"
	}
	return fmt.Sprintf("p50=%s p95=%s p99=%s max=%s (n=%d)",
		round(l.Quantile(0.50)), round(l.Quantile(0.95)),
		round(l.Quantile(0.99)), round(l.Max()), n)
}

// round trims a duration to a readable precision for summaries.
func round(d time.Duration) time.Duration {
	switch {
	case d >= time.Second:
		return d.Round(10 * time.Millisecond)
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond)
	default:
		return d.Round(100 * time.Nanosecond)
	}
}
