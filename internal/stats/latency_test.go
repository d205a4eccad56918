package stats

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"
)

func TestLatencyEmpty(t *testing.T) {
	l := NewLatency()
	if l.Count() != 0 || l.Quantile(0.5) != 0 || l.Max() != 0 || l.Mean() != 0 {
		t.Fatalf("empty histogram not all-zero: %v", l.Summary())
	}
}

func TestLatencyExactSmallValues(t *testing.T) {
	l := NewLatency()
	for ns := int64(0); ns < 32; ns++ {
		l.Record(time.Duration(ns))
	}
	if got := l.Max(); got != 31 {
		t.Fatalf("max = %v, want 31ns", got)
	}
	if got := l.Min(); got != 0 {
		t.Fatalf("min = %v, want 0", got)
	}
	if got := l.Quantile(1); got != 31 {
		t.Fatalf("p100 = %v, want 31ns", got)
	}
}

// TestLatencyQuantileAccuracy checks the bounded relative error on a
// known uniform distribution.
func TestLatencyQuantileAccuracy(t *testing.T) {
	l := NewLatency()
	const n = 100000
	for i := 1; i <= n; i++ {
		l.Record(time.Duration(i) * time.Microsecond)
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.95, 0.99} {
		want := q * n * float64(time.Microsecond)
		got := float64(l.Quantile(q))
		if rel := abs(got-want) / want; rel > 0.05 {
			t.Errorf("q=%.2f: got %v want %v (rel err %.3f)", q, time.Duration(got), time.Duration(want), rel)
		}
	}
	if l.Quantile(1) != l.Max() {
		t.Errorf("p100 %v != max %v", l.Quantile(1), l.Max())
	}
	if l.Min() != time.Microsecond || l.Max() != n*time.Microsecond {
		t.Errorf("min %v, max %v; want 1µs and %v", l.Min(), l.Max(), n*time.Microsecond)
	}
}

// TestLatencyConcurrentRecord records one fixed set of durations from
// 8 goroutines while a scraper reads the histogram, and checks that the
// result equals a sequential recording of the same set exactly. Run it
// under -race: Record must need no lock.
func TestLatencyConcurrentRecord(t *testing.T) {
	const workers, per = 8, 5000
	rng := rand.New(rand.NewSource(7))
	set := make([]time.Duration, workers*per)
	for i := range set {
		set[i] = time.Duration(rng.Int63n(int64(3 * time.Second)))
	}
	whole := NewLatency()
	for _, d := range set {
		whole.Record(d)
	}

	conc := NewLatency()
	bounds := []int64{int64(time.Millisecond), int64(time.Second), math.MaxInt64}
	stop := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-stop:
				return
			default:
			}
			cum := conc.Cumulative(bounds)
			if cum[0] > cum[1] || cum[1] > cum[2] {
				t.Errorf("cumulative not monotone: %v", cum)
			}
			if q := conc.Quantile(0.99); q < conc.Quantile(0.5) {
				t.Errorf("p99 %v below p50", q)
			}
		}
	}()
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, d := range set[w*per : (w+1)*per] {
				conc.Record(d)
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-scraped

	if conc.Count() != whole.Count() || conc.Sum() != whole.Sum() || conc.Min() != whole.Min() || conc.Max() != whole.Max() {
		t.Fatalf("concurrent %v (sum %d) vs sequential %v (sum %d)", conc.Summary(), conc.Sum(), whole.Summary(), whole.Sum())
	}
	for q := 0.0; q <= 1; q += 0.01 {
		if conc.Quantile(q) != whole.Quantile(q) {
			t.Fatalf("q=%.2f: concurrent %v, sequential %v", q, conc.Quantile(q), whole.Quantile(q))
		}
	}
	if got, want := conc.Cumulative(bounds), whole.Cumulative(bounds); !slices.Equal(got, want) {
		t.Fatalf("cumulative: concurrent %v, sequential %v", got, want)
	}
}

// TestLatencyClampsToRange pins both ends of the bucket range: a
// negative duration counts as zero in the first bucket, and the largest
// int64 lands in the last bucket, with Quantile(1) returning it.
func TestLatencyClampsToRange(t *testing.T) {
	if got := latBucket(math.MaxInt64); got != latBuckets-1 {
		t.Fatalf("MaxInt64 lands in bucket %d, want the last (%d)", got, latBuckets-1)
	}
	l := NewLatency()
	l.Record(-5)
	l.Record(time.Duration(math.MaxInt64))
	if l.counts[0].Load() != 1 || l.counts[latBuckets-1].Load() != 1 {
		t.Fatalf("edge buckets hold %d and %d, want 1 and 1", l.counts[0].Load(), l.counts[latBuckets-1].Load())
	}
	if l.Min() != 0 || l.Quantile(1) != time.Duration(math.MaxInt64) || l.Max() != time.Duration(math.MaxInt64) {
		t.Fatalf("min %v, p100 %v, max %v", l.Min(), l.Quantile(1), l.Max())
	}
}

func TestLatencyBucketRoundTrip(t *testing.T) {
	for _, ns := range []int64{0, 1, 31, 32, 33, 63, 64, 1000, 1 << 20, 1<<40 + 12345, 1<<62 + 99} {
		b := latBucket(ns)
		v := latValue(b)
		// The representative must be within one bucket width (~3%).
		if ns >= 32 {
			if rel := abs(float64(v-ns)) / float64(ns); rel > 1.0/latSub {
				t.Errorf("ns=%d: bucket %d rep %d (rel err %.4f)", ns, b, v, rel)
			}
		} else if v != ns {
			t.Errorf("exact range ns=%d: rep %d", ns, v)
		}
	}
	if latBucket(-5) != 0 {
		t.Error("negative values must clamp to bucket 0")
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestLatencyCumulative(t *testing.T) {
	l := NewLatency()
	for i := 0; i < 10; i++ {
		l.Record(10 * time.Microsecond)
	}
	for i := 0; i < 5; i++ {
		l.Record(10 * time.Millisecond)
	}
	l.Record(10 * time.Second)
	bounds := []int64{int64(time.Millisecond), int64(time.Second), int64(time.Minute)}
	got := l.Cumulative(bounds)
	if got[0] != 10 {
		t.Errorf("<=1ms count = %d, want 10", got[0])
	}
	if got[1] != 15 {
		t.Errorf("<=1s count = %d, want 15", got[1])
	}
	if got[2] != 16 {
		t.Errorf("<=1m count = %d, want 16", got[2])
	}
	if empty := NewLatency().Cumulative(bounds); empty[2] != 0 {
		t.Errorf("empty cumulative = %v, want zeros", empty)
	}
}
