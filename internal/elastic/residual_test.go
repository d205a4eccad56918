package elastic

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/workload"
)

func TestEvalModel(t *testing.T) {
	p := NewProfiler(workload.TPCWShopping(), 0.1)
	load := Load{
		Interval:   2 * time.Second,
		Throughput: 100, ReadRate: 80, UpdateRate: 20,
		MeanRead: 0.020, MeanUpdate: 0.050,
		AbortRate: 0.02,
		Clients:   100 * (0.026 + 0.1),
	}

	me, ok := EvalModel(p.Params(load), load, 2)
	if !ok {
		t.Fatal("EvalModel returned no evaluation")
	}
	if me.Replicas != 2 || me.ObservedTPS != 100 {
		t.Fatalf("me = %+v", me)
	}
	if me.PredictedTPS <= 0 {
		t.Fatalf("predicted tps = %v, want > 0", me.PredictedTPS)
	}
	// observed mean latency = (0.020·80 + 0.050·20)/100 = 0.026
	if me.ObservedLatency < 0.026-1e-9 || me.ObservedLatency > 0.026+1e-9 {
		t.Fatalf("observed latency = %v, want 0.026", me.ObservedLatency)
	}
	wantErr := (me.PredictedTPS - 100) / 100
	if me.TPSError != wantErr {
		t.Fatalf("tps error = %v, want %v", me.TPSError, wantErr)
	}

	// Degenerate windows evaluate to nothing.
	if _, ok := EvalModel(p.Params(load), Load{}, 2); ok {
		t.Fatal("empty load evaluated")
	}
	if _, ok := EvalModel(p.Params(load), load, 0); ok {
		t.Fatal("zero replicas evaluated")
	}
}

func TestMonitorExportsResiduals(t *testing.T) {
	reg := obs.NewRegistry()
	// Two samples a second apart: 100 reads + 50 updates committed on
	// a 2-member cohort.
	samples := []Sample{
		{When: at(1), Cohort: "a,b", Members: 2},
		{When: at(2), Cohort: "a,b", Members: 2,
			ReadCommits: 100, UpdateCommits: 50,
			ReadNs: 100 * 10e6, UpdateNs: 50 * 30e6,
			StageCounts: [6]int64{150, 0, 50, 50, 150, 150},
			StageNs:     [6]int64{150 * 1e6, 0, 50 * 2e5, 50 * 3e6, 150 * 4e5, 150 * 1e5}},
	}
	i := 0
	src := FuncSource(func() (Sample, error) {
		s := samples[i]
		if i < len(samples)-1 {
			i++
		}
		return s, nil
	})
	win := NewWindow(src, workload.TPCWShopping(), 0.5, false)
	mon := NewMonitor(reg)

	if tick, _ := win.Step(); tick.OK || tick.ModelOK {
		t.Fatal("first sample closed a window")
	}
	tick, err := win.Step()
	if err != nil || !tick.ModelOK {
		t.Fatalf("second sample closed no graded window: %+v, %v", tick, err)
	}
	mon.Observe(tick)
	if me := tick.Model; me.Replicas != 2 || me.ObservedTPS != 150 {
		t.Fatalf("me = %+v", me)
	}

	var b strings.Builder
	reg.WriteText(&b)
	out := b.String()
	for _, name := range []string{
		"replicadb_model_predicted_tps",
		"replicadb_model_observed_tps 150",
		"replicadb_model_tps_error",
		"replicadb_model_observed_latency_seconds",
		"replicadb_model_replicas 2",
	} {
		if !strings.Contains(out, name) {
			t.Errorf("exposition missing %q:\n%s", name, out)
		}
	}
}

func TestProfilerStageMeans(t *testing.T) {
	p := NewProfiler(workload.TPCWShopping(), 0.1)
	p.Observe(Sample{When: at(0), Cohort: "a"})
	l, ok := p.Observe(Sample{When: at(1), Cohort: "a",
		ReadCommits: 10, ReadNs: 10e7,
		Members:     3,
		StageCounts: [6]int64{10, 0, 0, 0, 10, 10},
		StageNs:     [6]int64{10 * 2e6, 0, 0, 0, 10 * 5e5, 10 * 1e5}})
	if !ok {
		t.Fatal("no window")
	}
	if l.Members != 3 {
		t.Fatalf("members = %d, want 3", l.Members)
	}
	if l.StageMeans[0] != 0.002 {
		t.Fatalf("certify mean = %v, want 2ms", l.StageMeans[0])
	}
	if l.StageMeans[1] != 0 {
		t.Fatalf("paxos mean = %v, want 0 (no observations)", l.StageMeans[1])
	}
	if l.StageMeans[4] != 0.0005 {
		t.Fatalf("apply mean = %v, want 0.5ms", l.StageMeans[4])
	}
}

// TestWindowSamplesOncePerTick: with the residual gauges and the
// autoscaler both on, one window feeds both, so each tick takes one
// sample, and the controller's decision and the exported residual come
// from the same window.
func TestWindowSamplesOncePerTick(t *testing.T) {
	var samples atomic.Int64
	src := FuncSource(func() (Sample, error) {
		n := samples.Add(1)
		return Sample{When: at(float64(n)), Cohort: "a", Members: 1,
			UpdateCommits: 200 * n, UpdateNs: 200 * n * 20e6}, nil
	})
	reg := obs.NewRegistry()
	mon := NewMonitor(reg)
	replicas := 1
	ctl, err := NewController(testConfig(), &funcScaler{n: &replicas})
	if err != nil {
		t.Fatal(err)
	}
	// Room for the ticks taken plus any that run before the stop, so
	// the loop never blocks on a full channel.
	ticks := make(chan Tick, 64)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		NewWindow(src, workload.TPCWShopping(), testThink, false).Run(time.Millisecond, stop,
			mon.Observe, ctl.Observe, func(t Tick) { ticks <- t })
	}()
	var last Tick
	for i := 0; i < 5; i++ {
		last = <-ticks
	}
	close(stop)
	<-done
	taken := int64(5) // counting any tick that ran before the stop
	for len(ticks) > 0 {
		last = <-ticks
		taken++
	}
	if got := samples.Load(); got != taken {
		t.Fatalf("%d samples for %d ticks", got, taken)
	}
	if !last.ModelOK {
		t.Fatalf("last tick carries no model grade: %+v", last)
	}
	if st := ctl.Status(); st.Clients != last.Load.Clients || st.Clients != last.Model.Clients {
		t.Fatalf("controller decided at %v clients, the model graded %v", st.Clients, last.Model.Clients)
	}
	var b strings.Builder
	reg.WriteText(&b)
	want := fmt.Sprintf("replicadb_model_observed_tps %g", last.Model.ObservedTPS)
	if !strings.Contains(b.String(), want) {
		t.Fatalf("exposition missing %q:\n%s", want, b.String())
	}
}
