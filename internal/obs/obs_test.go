package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/stats"
)

func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total", "a counter", L("kind", "read"))
	c.Add(3)
	c.Inc()
	g := r.Gauge("y", "a gauge")
	g.Set(2.5)
	r.GaugeFunc("z", "a func gauge", func() float64 { return 7 })

	var b strings.Builder
	r.WriteText(&b)
	out := b.String()
	for _, want := range []string{
		"# HELP x_total a counter",
		"# TYPE x_total counter",
		`x_total{kind="read"} 4`,
		"# TYPE y gauge",
		"y 2.5",
		"z 7",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Families must appear in sorted name order.
	if strings.Index(out, "x_total") > strings.Index(out, "# TYPE y") {
		t.Errorf("families not sorted:\n%s", out)
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	r := NewRegistry()
	l := stats.NewLatency()
	r.LatencyHistogram("lat_seconds", "latency", l, L("stage", "certify"))
	for i := 0; i < 90; i++ {
		l.Record(5 * time.Millisecond) // under le=0.0064
	}
	for i := 0; i < 9; i++ {
		l.Record(50 * time.Millisecond) // under le=0.0512
	}
	l.Record(20 * time.Second) // +Inf

	var b strings.Builder
	r.WriteText(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{stage="certify",le="0.0032"} 0`,
		`lat_seconds_bucket{stage="certify",le="0.0064"} 90`,
		`lat_seconds_bucket{stage="certify",le="0.0256"} 90`,
		`lat_seconds_bucket{stage="certify",le="0.0512"} 99`,
		`lat_seconds_bucket{stage="certify",le="13.1072"} 99`,
		`lat_seconds_bucket{stage="certify",le="+Inf"} 100`,
		`lat_seconds_sum{stage="certify"} 20.9`,
		`lat_seconds_count{stage="certify"} 100`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	// The quantiles come from the histogram itself, within its 1/64
	// relative error; the top one is the exact maximum.
	near := func(got, want time.Duration) bool {
		return math.Abs(float64(got-want)) <= float64(want)/64
	}
	if got := l.Quantile(0.5); !near(got, 5*time.Millisecond) {
		t.Errorf("p50 = %v, want about 5ms", got)
	}
	if got := l.Quantile(0.95); !near(got, 50*time.Millisecond) {
		t.Errorf("p95 = %v, want about 50ms", got)
	}
	if got := l.Quantile(1); got != 20*time.Second {
		t.Errorf("p100 = %v, want 20s", got)
	}
}

// TestHistogramBoundaryLandsInLowerBucket: le is inclusive. Every
// bound is 3125·2^k ns, whose HDR bucket midpoint sits below it, so an
// observation exactly on a bound counts under that bound, not the next.
func TestHistogramBoundaryLandsInLowerBucket(t *testing.T) {
	for i, bound := range bucketNs[:len(bucketNs)-1] {
		l := stats.NewLatency()
		l.Record(time.Duration(bound))
		cum := l.Cumulative(bucketNs)
		if cum[i] != 1 || (i > 0 && cum[i-1] != 0) {
			t.Fatalf("observation at le=%s landed at %v", bucketLE[i], cum)
		}
	}
}

// TestHistogramSnapshotMerge: two nodes' histogram families fold into
// a cluster-wide one through their exposition, bucket for bucket, and
// the fold equals one histogram that recorded both nodes' observations.
func TestHistogramSnapshotMerge(t *testing.T) {
	node := func(ds ...time.Duration) *Registry {
		r := NewRegistry()
		l := stats.NewLatency()
		for _, d := range ds {
			l.Record(d)
		}
		r.LatencyHistogram("m_seconds", "", l, L("stage", "apply"))
		return r
	}
	a := []time.Duration{5 * time.Millisecond, 50 * time.Millisecond}
	b := []time.Duration{50 * time.Millisecond, 7 * time.Second}
	s := node(a...).Snapshot()
	if err := s.Merge(node(b...).Snapshot()); err != nil {
		t.Fatal(err)
	}
	want := node(append(a, b...)...).Snapshot()
	got, wf := s.Family("m_seconds"), want.Family("m_seconds")
	if len(got.Samples) != len(wf.Samples) {
		t.Fatalf("merged %d samples, want %d", len(got.Samples), len(wf.Samples))
	}
	for i, ws := range wf.Samples {
		if gs := got.Samples[i]; gs.Suffix != ws.Suffix || gs.Labels != ws.Labels || math.Abs(gs.Value-ws.Value) > 1e-9 {
			t.Errorf("merged sample %d = %+v, want %+v", i, gs, ws)
		}
	}
	if v, ok := sampleValue(s, "m_seconds", "_count", `{stage="apply"}`); !ok || v != 4 {
		t.Errorf("merged count = %v, %v; want 4", v, ok)
	}
}

// sampleValue returns the value of one suffixed series in a snapshot.
func sampleValue(s RegistrySnapshot, name, suffix, labels string) (float64, bool) {
	if f := s.Family(name); f != nil {
		for _, sm := range f.Samples {
			if sm.Suffix == suffix && sm.Labels == labels {
				return sm.Value, true
			}
		}
	}
	return 0, false
}

func TestCollectFunc(t *testing.T) {
	r := NewRegistry()
	r.CollectFunc("q_seconds", "quantiles", "gauge", func() []Sample {
		return []Sample{
			{Labels: `{q="0.5"}`, Value: 0.001},
			{Labels: `{q="0.99"}`, Value: 0.25},
		}
	})
	var b strings.Builder
	r.WriteText(&b)
	out := b.String()
	if !strings.Contains(out, `q_seconds{q="0.5"} 0.001`) || !strings.Contains(out, `q_seconds{q="0.99"} 0.25`) {
		t.Errorf("collect func samples missing:\n%s", out)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "")
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	r.Counter("dup_total", "")
}

func TestConflictingTypePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("t_total", "", L("a", "1"))
	defer func() {
		if recover() == nil {
			t.Error("conflicting type registration did not panic")
		}
	}()
	r.Gauge("t_total", "", L("a", "2"))
}

// TestConcurrentObserve records into a registered histogram and a
// counter from several goroutines while the registry is scraped: no
// observation is lost and the exposition stays well formed (+Inf equal
// to _count). Run it under -race.
func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	l := stats.NewLatency()
	r.LatencyHistogram("c_seconds", "", l)
	cnt := r.Counter("c_total", "")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				l.Record(50 * time.Microsecond)
				cnt.Inc()
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			s := r.Snapshot()
			inf, okInf := sampleValue(s, "c_seconds", "_bucket", `{le="+Inf"}`)
			n, okN := sampleValue(s, "c_seconds", "_count", "")
			if !okInf || !okN || inf != n {
				t.Errorf("+Inf bucket %v (%v) != count %v (%v)", inf, okInf, n, okN)
			}
		}
	}()
	wg.Wait()
	<-done
	if got := l.Count(); got != 4000 {
		t.Errorf("count = %d, want 4000", got)
	}
	if got := cnt.Value(); got != 4000 {
		t.Errorf("counter = %d, want 4000", got)
	}
	if got := l.Sum(); got != int64(4000*50*time.Microsecond) {
		t.Errorf("sum = %v, want %v", time.Duration(got), 4000*50*time.Microsecond)
	}
}

func TestDefBucketsAscending(t *testing.T) {
	if len(bucketNs) != 21 || len(bucketLE) != len(bucketNs) {
		t.Fatalf("%d bounds, %d labels; want 20 finite bounds and +Inf", len(bucketNs), len(bucketLE))
	}
	for i := 1; i < len(bucketNs); i++ {
		if bucketNs[i] <= bucketNs[i-1] {
			t.Fatalf("bucket bounds not ascending at %d: %v", i, bucketNs)
		}
	}
	if bucketNs[0] != 25_000 || bucketNs[19] < 5e9 || bucketNs[20] != math.MaxInt64 || bucketLE[20] != "+Inf" {
		t.Errorf("bucket range [%d, %d] ns, top %d %q", bucketNs[0], bucketNs[19], bucketNs[20], bucketLE[20])
	}
}
