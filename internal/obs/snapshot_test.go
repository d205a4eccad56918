package obs

import (
	"strings"
	"testing"
	"time"

	"repro/internal/stats"
)

// buildTestRegistry assembles one of every instrument kind, including
// the callback-backed ones, so snapshot and parse tests cover the
// whole surface.
func buildTestRegistry() *Registry {
	r := NewRegistry()
	c := r.Counter("test_commits_total", "Commits.", L("replica", "0"))
	c.Add(7)
	g := r.Gauge("test_queue_depth", "Depth.")
	g.Set(3.5)
	r.GaugeFunc("test_applied_version", "Applied.", func() float64 { return 42 })
	r.CollectFunc("test_custom", "Custom series.", "gauge", func() []Sample {
		return []Sample{
			{Labels: `{kind="a"}`, Value: 1},
			{Labels: `{kind="b"}`, Value: 2},
		}
	})
	l := stats.NewLatency()
	l.Record(50 * time.Millisecond)
	l.Record(500 * time.Millisecond)
	l.Record(5 * time.Second)
	r.LatencyHistogram("test_latency_seconds", "Latency.", l, L("stage", "apply"))
	r.LatencySummary("test_latency_summary_seconds", "Latency quantiles.", l)
	return r
}

func TestRegistrySnapshotIncludesAllCollectors(t *testing.T) {
	s := buildTestRegistry().Snapshot()
	if v, ok := sampleValue(s, "test_commits_total", "", `{replica="0"}`); !ok || v != 7 {
		t.Fatalf("counter = %v, %v", v, ok)
	}
	if v, ok := sampleValue(s, "test_queue_depth", "", ""); !ok || v != 3.5 {
		t.Fatalf("gauge = %v, %v", v, ok)
	}
	if v, ok := sampleValue(s, "test_applied_version", "", ""); !ok || v != 42 {
		t.Fatalf("gaugefunc = %v, %v", v, ok)
	}
	if v, ok := sampleValue(s, "test_custom", "", `{kind="b"}`); !ok || v != 2 {
		t.Fatalf("collectfunc = %v, %v", v, ok)
	}
	f := s.Family("test_latency_seconds")
	if f == nil || f.Type != "histogram" {
		t.Fatalf("histogram family = %+v", f)
	}
	// 20 finite buckets + +Inf + _sum + _count.
	if len(f.Samples) != 23 {
		t.Fatalf("histogram samples = %d, want 23", len(f.Samples))
	}
	if v, ok := sampleValue(s, "test_latency_summary_seconds", "", `{quantile="0.99"}`); !ok || v != 5 {
		t.Fatalf("summary p99 = %v, %v", v, ok)
	}
}

// TestParseTextRoundTrip renders a live registry and parses it back:
// every series must survive with its value, and the re-rendered text
// must match the original byte for byte.
func TestParseTextRoundTrip(t *testing.T) {
	r := buildTestRegistry()
	var text strings.Builder
	r.WriteText(&text)

	snap, err := ParseText(strings.NewReader(text.String()))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	want := r.Snapshot()
	if len(snap.Families) != len(want.Families) {
		t.Fatalf("parsed %d families, want %d", len(snap.Families), len(want.Families))
	}
	for _, wf := range want.Families {
		gf := snap.Family(wf.Name)
		if gf == nil {
			t.Fatalf("family %q lost in parse", wf.Name)
		}
		if gf.Type != wf.Type || gf.Help != wf.Help {
			t.Fatalf("family %q header = (%s, %q), want (%s, %q)",
				wf.Name, gf.Type, gf.Help, wf.Type, wf.Help)
		}
		if len(gf.Samples) != len(wf.Samples) {
			t.Fatalf("family %q: %d samples, want %d", wf.Name, len(gf.Samples), len(wf.Samples))
		}
		for i, ws := range wf.Samples {
			gs := gf.Samples[i]
			if gs.Suffix != ws.Suffix || gs.Labels != ws.Labels || gs.Value != ws.Value {
				t.Fatalf("family %q sample %d = %+v, want %+v", wf.Name, i, gs, ws)
			}
		}
	}
	var again strings.Builder
	snap.WriteText(&again)
	if again.String() != text.String() {
		t.Fatalf("re-render differs:\n%s\nvs\n%s", again.String(), text.String())
	}
}

func TestParseTextRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		text string
	}{
		{"bad value", "x 1.2.3\n"},
		{"no value", "x\n"},
		{"unterminated labels", "x{a=\"b 1\n"},
		{"duplicate series", "x 1\nx 2\n"},
		{"duplicate labeled series", "x{a=\"b\"} 1\nx{a=\"b\"} 2\n"},
		{"bare sample in histogram", "# TYPE h histogram\nh 3\n"},
		{"type after samples", "x 1\n# TYPE x counter\n"},
		{"bad timestamp", "x 1 notatime\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseText(strings.NewReader(tc.text)); err == nil {
				t.Fatalf("accepted %q", tc.text)
			}
		})
	}
}

func TestParseTextAcceptsRealWorldShapes(t *testing.T) {
	text := strings.Join([]string{
		"# a free-form comment",
		"",
		"# HELP up Whether the scrape worked.",
		"# TYPE up gauge",
		"up 1",
		`lag{replica="0",quote="say \"hi\""} 0.25`,
		"rate 1e-3 1700000000000",
		"# TYPE lat histogram",
		`lat_bucket{le="0.1"} 3`,
		`lat_bucket{le="+Inf"} 4`,
		"lat_sum 0.9",
		"lat_count 4",
		"# TYPE lq summary",
		`lq{quantile="0.5"} 0.1`,
		`lq{quantile="0.99"} 0.4`,
		"lq_sum 2",
		"lq_count 9",
	}, "\n") + "\n"
	snap, err := ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if v, ok := sampleValue(snap, "up", "", ""); !ok || v != 1 {
		t.Fatalf("up = %v, %v", v, ok)
	}
	if v, ok := sampleValue(snap, "lag", "", `{replica="0",quote="say \"hi\""}`); !ok || v != 0.25 {
		t.Fatalf("escaped-label series = %v, %v", v, ok)
	}
	f := snap.Family("lat")
	if f == nil || f.Type != "histogram" || len(f.Samples) != 4 {
		t.Fatalf("histogram family = %+v", f)
	}
	// Summary quantile samples live on the base name — not "bare".
	q := snap.Family("lq")
	if q == nil || q.Type != "summary" || len(q.Samples) != 4 {
		t.Fatalf("summary family = %+v", q)
	}
	if v, ok := sampleValue(snap, "lq", "", `{quantile="0.99"}`); !ok || v != 0.4 {
		t.Fatalf("summary quantile = %v, %v", v, ok)
	}
}
