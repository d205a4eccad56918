package main

import (
	"math"
	"testing"
	"time"

	"repro/internal/elastic"
	"repro/internal/obs"
	"repro/internal/workload"
)

// pairSource replays two cumulative samples one second apart: 100 read
// commits at 1 ms each, then 50 more updates at 4 ms each.
func pairSource() elastic.Source {
	samples := []elastic.Sample{
		{When: time.Unix(0, 0), Cohort: "a", Members: 1},
		{When: time.Unix(1, 0), Cohort: "a", Members: 1,
			ReadCommits: 100, ReadNs: 100 * 1e6, UpdateCommits: 50, UpdateNs: 50 * 4e6},
	}
	i := 0
	return elastic.FuncSource(func() (elastic.Sample, error) {
		s := samples[min(i, len(samples)-1)]
		i++
		return s, nil
	})
}

// TestStatusModelAtThinkZero pins the population status infers: its
// clients are zero-think bench clients, so 150 tps at 2 ms each is 0.3
// clients by Little's law, not the 150 that the mix's 1 s think implies.
func TestStatusModelAtThinkZero(t *testing.T) {
	p := newStatusPoller(pairSource(), "mm", workload.TPCWShopping())
	p.poll()
	rep := p.poll()
	if rep.Model == nil || math.Abs(rep.Model.Clients-0.3) > 1e-9 {
		t.Fatalf("model = %+v, want 0.3 clients", rep.Model)
	}
}

// TestServeAndStatusGradeAlike: one sample pair graded by the residual
// gauges of `serve -modelcheck` at its default think time (0) and by
// `status` yields the same model grade, at the zero-think population.
func TestServeAndStatusGradeAlike(t *testing.T) {
	reg := obs.NewRegistry()
	mon := elastic.NewMonitor(reg)
	win := elastic.NewWindow(pairSource(), workload.TPCWShopping(), 0, false)
	for range 2 {
		tick, err := win.Step()
		if err != nil {
			t.Fatal(err)
		}
		mon.Observe(tick)
	}
	p := newStatusPoller(pairSource(), "mm", workload.TPCWShopping())
	p.poll()
	rep := p.poll()
	if rep.Model == nil || math.Abs(rep.Model.Clients-0.3) > 1e-9 {
		t.Fatalf("status model = %+v, want 0.3 clients", rep.Model)
	}
	snap := reg.Snapshot()
	for name, want := range map[string]float64{
		"replicadb_model_predicted_tps":             rep.Model.PredictedTPS,
		"replicadb_model_observed_tps":              rep.Model.ObservedTPS,
		"replicadb_model_tps_error":                 rep.Model.TPSError,
		"replicadb_model_predicted_latency_seconds": rep.Model.PredictedLatency,
		"replicadb_model_latency_error":             rep.Model.LatencyError,
		"replicadb_model_replicas":                  float64(rep.Model.Replicas),
	} {
		f := snap.Family(name)
		if f == nil || len(f.Samples) != 1 || f.Samples[0].Value != want {
			t.Errorf("%s = %+v, status reads %v", name, f, want)
		}
	}
}
