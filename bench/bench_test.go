package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"repro/internal/stats"
	"repro/internal/workload"
)

// TestSmoke runs every workload at 1/100 scale, one untraced and one
// traced trial each, in-process, and checks that every metric is
// reported with its unit and a positive value and that both
// correctness checks pass.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	final := map[string]metricValue{}
	for _, w := range workloads {
		var trials []*trialResult
		for _, traced := range []bool{false, true} {
			res, err := runTrial(trialConfig{Workload: w.name, Seed: 1, Traced: traced, Factor: 100,
				Warmup: 200 * time.Millisecond, Window: 500 * time.Millisecond, Workdir: dir})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.committed() == 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d committed=%d check=%q first error=%q",
					w.name, traced, res.Correct, res.Failed, res.committed(), res.CheckError, res.FirstError)
			}
			trials = append(trials, res)
		}
		for _, traced := range []bool{false, true} {
			wr, err := aggregate(w.name, trials, traced)
			if err != nil {
				t.Fatal(err)
			}
			for k, v := range wr.Metrics {
				final[w.name+"/"+k] = v
			}
		}
	}
	endToEndNames := 0
	for _, w := range workloads {
		all := append(append(append([]metricDef(nil), endToEnd...), informational...), perLayer...)
		for i, d := range all {
			v, ok := final[w.name+"/"+d.name]
			// The tracing overhead is a difference of two throughputs and
			// may come out negative in a half-second window.
			if !ok || v.Unit != d.unit || !(v.Value > 0 || d.name == "trace_overhead_frac") {
				t.Errorf("%s/%s = %+v (reported %v), want unit %s and a positive value", w.name, d.name, v, ok, d.unit)
			} else if i < len(endToEnd)+len(informational) {
				endToEndNames++
			}
		}
	}
	if endToEndNames != 32 {
		t.Errorf("%d <workload>/<metric> end-to-end names reported, want 32", endToEndNames)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the metrics and
// workloads the benchmark reports.
func TestBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit || (m.Bound != nil) != bounded {
				t.Errorf("%s %d: BENCHMARK.json %+v, benchmark %+v", kind, i, m, want[i])
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	// statistics.quantiles([4, 1, 3], n=4) == [1.0, 3.0, 4.0]
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{4, 1, 3}, [3]float64{1, 3, 4}},
	} {
		if got := quartiles(tc.xs); got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	tps := bound{Name: "tps", Better: "higher", Bound: 0.10}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x + d
		}
		return out
	}
	for _, tc := range []struct {
		name string
		new  []float64
		want string
	}{
		{"unchanged", shift(0), "same"},
		{"faster", shift(5), "better"},
		{"slower within bound", shift(-5), "same"},
		{"slower beyond bound", shift(-15), "worse"},
		{"too noisy", []float64{60, 140, 70, 130, 80, 120, 90, 110, 100, 100}, "unresolved"},
	} {
		if got := verdict(base, tc.new, tps); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
	if got := verdict(base, shift(5), bound{Name: "client.read_us"}); got != "info" {
		t.Errorf("per-layer metric: verdict = %s, want info", got)
	}
}

func TestVisibleToken(t *testing.T) {
	cat := workload.TPCWCatalog()
	d := &driver{cat: cat}
	committed, aborted := newClientRun(0, stats.NewRand(1)), newClientRun(1, stats.NewRand(2))
	committed.visible.set(7)
	crs := []*clientRun{committed, aborted}
	for _, tc := range []struct {
		table string
		row   int64
		v     string
		want  bool
	}{
		{"cart_line", 42, token("ShoppingCart", 42, 0, 7), true},
		{"cart_line", 43, token("ShoppingCart", 42, 0, 7), false}, // written to another row
		{"orders", 42, token("ShoppingCart", 42, 0, 7), false},    // template writes cart_line
		{"cart_line", 42, token("ShoppingCart", 42, 1, 7), false}, // aborted write
		{"cart_line", 42, token("ShoppingCart", 42, 2, 7), false}, // no such client
		{"cart_line", 42, "garbage", false},
	} {
		if got := d.visibleToken(tc.table, tc.row, tc.v, crs); got != tc.want {
			t.Errorf("visibleToken(%s, %d, %q) = %v, want %v", tc.table, tc.row, tc.v, got, tc.want)
		}
	}
}
