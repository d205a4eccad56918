package elastic

import (
	"errors"
	"testing"
	"time"

	"repro/internal/workload"
)

func TestLiveDemandsDerivation(t *testing.T) {
	l := Load{
		MeanRead: 0.002,
		StageMeans: [6]float64{
			stageCertify: 0.0001,
			stagePaxos:   0.0002,
			stageJournal: 0.0003,
			stageFsync:   0.0010,
			stageApply:   0.0004,
			stageAck:     0.00005,
		},
	}
	d, ok := LiveDemands(l)
	if !ok {
		t.Fatal("usable window rejected")
	}
	if d.RC[workload.CPU] != 0.002 || d.RC[workload.Disk] != 0 {
		t.Fatalf("RC = %v", d.RC)
	}
	if d.WS[workload.CPU] != 0.0004 {
		t.Fatalf("WS cpu = %v", d.WS[workload.CPU])
	}
	if want := 0.0003 + 0.0010; !near(d.WS[workload.Disk], want) {
		t.Fatalf("WS disk = %v, want %v", d.WS[workload.Disk], want)
	}
	if want := 0.0001 + 0.0002 + 0.0004 + 0.00005; !near(d.WC[workload.CPU], want) {
		t.Fatalf("WC cpu = %v, want %v", d.WC[workload.CPU], want)
	}

	// An idle, untraced window has nothing to recalibrate from.
	if _, ok := LiveDemands(Load{}); ok {
		t.Fatal("empty window accepted")
	}
}

func near(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	tol := 1e-9 * (1 + b)
	if b < 0 {
		tol = 1e-9 * (1 - b)
	}
	return d < tol
}

func TestRecalibrateEWMAFold(t *testing.T) {
	base := workload.TPCWShopping()
	p := NewProfiler(base, 0.1)
	live := Demands{}
	live.RC[workload.CPU] = 2 * base.RC[workload.CPU]
	p.Recalibrate(live)
	got := p.base
	want := (1-demandEWMA)*base.RC[workload.CPU] + demandEWMA*2*base.RC[workload.CPU]
	if !near(got.RC[workload.CPU], want) {
		t.Fatalf("RC cpu after fold = %v, want %v", got.RC[workload.CPU], want)
	}
	// Zero-valued live entries leave the calibrated demand untouched.
	if got.RC[workload.Disk] != base.RC[workload.Disk] {
		t.Fatalf("RC disk changed: %v vs %v", got.RC[workload.Disk], base.RC[workload.Disk])
	}
	if got.WC != base.WC || got.WS != base.WS {
		t.Fatal("unmeasured classes changed")
	}
	// Repeated folds converge toward the live measurement.
	for i := 0; i < 50; i++ {
		p.Recalibrate(live)
	}
	got = p.base
	if !near(got.RC[workload.CPU], 2*base.RC[workload.CPU]) {
		t.Fatalf("EWMA did not converge: %v", got.RC[workload.CPU])
	}
	// Params must reflect the recalibrated demands.
	params := p.Params(Load{Throughput: 100, ReadRate: 100})
	if !near(params.Mix.RC[workload.CPU], 2*base.RC[workload.CPU]) {
		t.Fatalf("Params ignored recalibration: %v", params.Mix.RC[workload.CPU])
	}
}

// TestControllerRecalibratesAndReportsDecisions drives the controller
// with stage-bearing samples: the profile must drift toward the live
// demands and every attempted scaling step must surface through the
// decision hook with its MVA inputs.
func TestControllerRecalibratesAndReportsDecisions(t *testing.T) {
	cfg := testConfig()
	cfg.Cooldown = time.Nanosecond
	n := 1
	scaler := &funcScaler{n: &n}
	var sampleAt float64
	var commits int64
	src := FuncSource(func() (Sample, error) {
		sampleAt++
		commits += 200
		s := Sample{When: at(sampleAt), UpdateCommits: commits, UpdateNs: commits * 20e6}
		s.StageCounts = [6]int64{commits, 0, commits, commits, commits, commits}
		s.StageNs = [6]int64{commits * 1e5, 0, commits * 2e5, commits * 1e6, commits * 3e5, commits * 5e4}
		return s, nil
	})
	ctl, err := NewController(cfg, scaler)
	if err != nil {
		t.Fatal(err)
	}
	var decisions []Decision
	ctl.OnDecision(func(d Decision) { decisions = append(decisions, d) })

	win := NewWindow(src, workload.TPCWShopping(), testThink, true)
	before := win.prof.base
	steer(t, win, ctl, 6)
	after := win.prof.base
	if after.WS == before.WS {
		t.Fatal("recalibration left the writeset demand untouched")
	}
	// The EWMA must be pulling the writeset demand toward the live
	// stage-apply measurement (3e5 ns per writeset).
	liveWSCPU := 3e5 / 1e9
	distBefore := before.WS[workload.CPU] - liveWSCPU
	distAfter := after.WS[workload.CPU] - liveWSCPU
	if distBefore < 0 {
		distBefore, distAfter = -distBefore, -distAfter
	}
	if distAfter >= distBefore {
		t.Fatalf("WS cpu moved away from live demand: %v -> %v (live %v)",
			before.WS[workload.CPU], after.WS[workload.CPU], liveWSCPU)
	}
	if len(decisions) == 0 {
		t.Fatal("no decisions reported despite scaling")
	}
	d := decisions[0]
	if d.Direction != "up" || d.Target <= d.Current || d.Err != nil {
		t.Fatalf("decision = %+v", d)
	}
	if d.Clients <= 0 || d.Util <= 0 {
		t.Fatalf("decision missing model inputs: %+v", d)
	}
	st := ctl.Status()
	if st.Ups != len(decisions) {
		t.Fatalf("ups %d != decisions %d", st.Ups, len(decisions))
	}

	// A failing scaler surfaces through the hook's Err.
	n2 := 5
	failing := &failScaler{n: n2}
	ctl2, err := NewController(cfg, failing)
	if err != nil {
		t.Fatal(err)
	}
	var failed []Decision
	ctl2.OnDecision(func(d Decision) { failed = append(failed, d) })
	steer(t, win, ctl2, 6)
	found := false
	for _, d := range failed {
		if d.Err != nil {
			found = true
		}
	}
	if !found {
		t.Fatalf("no failed decision reported: %+v", failed)
	}
}

type failScaler struct{ n int }

func (f *failScaler) Replicas() int    { return f.n }
func (f *failScaler) ScaleUp() error   { return errors.New("spawn failed") }
func (f *failScaler) ScaleDown() error { return errors.New("drain failed") }
