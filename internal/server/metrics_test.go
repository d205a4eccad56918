package server

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// wantLE is the bucket layout every histogram family exposes: 20 upper
// bounds doubling from 25µs to ~13s, then +Inf. Dashboards and merged
// cluster views key on these exact strings.
var wantLE = []string{
	"2.5e-05", "5e-05", "0.0001", "0.0002", "0.0004", "0.0008", "0.0016",
	"0.0032", "0.0064", "0.0128", "0.0256", "0.0512", "0.1024", "0.2048",
	"0.4096", "0.8192", "1.6384", "3.2768", "6.5536", "13.1072", "+Inf",
}

// TestLatencyFamiliesExposition records a known set of durations into
// the commit-path stage histograms and the replication-lag histogram
// and checks their exposition: the fixed le values, cumulative counts,
// +Inf equal to _count, and each count within the histogram's error.
//
// The histograms keep a duration's leading six bits, so a recorded
// value v is counted as a representative within v/64 of it. A value
// may therefore cross a bound b only when it lies within 1/64 of b:
// every v with v·(1+1/64) <= b is counted under b, and no v with
// v·(1-1/64) > b is.
func TestLatencyFamiliesExposition(t *testing.T) {
	var vals []time.Duration
	for b := 25 * time.Microsecond; b < 14*time.Second; b *= 2 {
		// On the bound, inside the 1/64 band on both sides, and
		// outside it on both sides.
		vals = append(vals, b, b*995/1000, b*1005/1000, b*97/100, b*103/100)
	}
	vals = append(vals, 0, 3*time.Microsecond, 30*time.Second)

	m := newMetrics("mm", 0, false, time.Hour)
	journal := m.tracer.CertStages()
	end := time.Now()
	for i, d := range vals {
		v := int64(i + 1)
		m.tracer.NoteCommitMeta(v, 0, end.Add(-d).UnixNano())
		journal("journal", []int64{v}, d)
		m.tracer.ApplyBatch(v-1, v, d, end) // the apply stage, and a lag of d
	}

	var text strings.Builder
	m.reg.WriteText(&text)
	snap, err := obs.ParseText(strings.NewReader(text.String()))
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, text.String())
	}
	for _, series := range []struct{ family, labels string }{
		{"replicadb_stage_latency_seconds", `stage="journal"`},
		{"replicadb_stage_latency_seconds", `stage="apply"`},
		{"replicadb_replication_lag_seconds", `replica="0"`},
	} {
		f := snap.Family(series.family)
		if f == nil || f.Type != "histogram" {
			t.Fatalf("%s: family %+v, want a histogram", series.family, f)
		}
		value := func(suffix, labels string) float64 {
			t.Helper()
			for _, s := range f.Samples {
				if s.Suffix == suffix && s.Labels == labels {
					return s.Value
				}
			}
			t.Fatalf("%s%s%s not exposed", series.family, suffix, labels)
			return 0
		}
		var prev float64
		for _, le := range wantLE {
			got := value("_bucket", "{"+series.labels+`,le="`+le+`"}`)
			if got < prev {
				t.Errorf("%s{%s} le=%s: %v below the previous bucket's %v", series.family, series.labels, le, got, prev)
			}
			prev = got
			if le == "+Inf" {
				break
			}
			b, _ := strconv.ParseFloat(le, 64)
			var lo, hi float64
			for _, d := range vals {
				if d.Seconds()*(1+1.0/64) <= b {
					lo++
				}
				if d.Seconds()*(1-1.0/64) <= b {
					hi++
				}
			}
			if got < lo || got > hi {
				t.Errorf("%s{%s} le=%s = %v, want within [%v, %v]", series.family, series.labels, le, got, lo, hi)
			}
		}
		count := value("_count", "{"+series.labels+"}")
		if count != float64(len(vals)) || prev != count {
			t.Errorf("%s{%s}: +Inf %v, _count %v, want both %d", series.family, series.labels, prev, count, len(vals))
		}
		var sum time.Duration
		for _, d := range vals {
			sum += d
		}
		if got := value("_sum", "{"+series.labels+"}"); math.Abs(got-sum.Seconds()) > 1e-9*sum.Seconds() {
			t.Errorf("%s{%s}_sum = %v, want %v", series.family, series.labels, got, sum.Seconds())
		}
	}
}
