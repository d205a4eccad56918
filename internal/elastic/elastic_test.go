package elastic

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/wire"
	"repro/internal/workload"
)

func at(sec float64) time.Time {
	return time.Unix(0, 0).Add(time.Duration(sec * float64(time.Second)))
}

func TestMembershipJoinLeave(t *testing.T) {
	m := NewMembership()
	m.SeedStatic([]string{"a:1", "b:2"})
	if m.Peers() != 1 {
		t.Fatalf("peers = %d, want 1", m.Peers())
	}
	epoch0, members := m.Snapshot()
	if len(members) != 2 || members[0].ID != 0 || members[1].Addr != "b:2" {
		t.Fatalf("members = %+v", members)
	}
	id, epoch, members := m.Join("c:3", at(0))
	if id != 2 {
		t.Fatalf("joiner id = %d, want 2", id)
	}
	if epoch <= epoch0 {
		t.Fatalf("epoch did not advance: %d -> %d", epoch0, epoch)
	}
	if len(members) != 3 || members[2].Addr != "c:3" {
		t.Fatalf("members after join = %+v", members)
	}
	if m.Peers() != 2 {
		t.Fatalf("peers = %d, want 2", m.Peers())
	}
	if !m.Leave(id) || m.Contains(id) {
		t.Fatal("leave did not remove the member")
	}
	if m.Leave(id) {
		t.Fatal("double leave reported success")
	}
	// A later joiner never reuses a departed id.
	id2, _, _ := m.Join("d:4", at(1))
	if id2 <= id {
		t.Fatalf("id %d reused after leave", id2)
	}
}

func TestMembershipEvictsStaleJoinersOnly(t *testing.T) {
	m := NewMembership()
	m.SeedStatic([]string{"a:1"})
	id, _, _ := m.Join("b:2", at(0))
	live, _, _ := m.Join("c:3", at(0))

	// The live joiner keeps proving liveness; the other goes silent.
	m.Touch(live, at(10))
	evicted := m.EvictStale(at(10), 5*time.Second)
	if len(evicted) != 1 || evicted[0] != id {
		t.Fatalf("evicted = %v, want [%d]", evicted, id)
	}
	if !m.Contains(live) || !m.Contains(0) {
		t.Fatal("eviction removed a live or static member")
	}
	// Static members are never evicted, no matter how silent.
	if ev := m.EvictStale(at(1000), time.Second); len(ev) != 1 || ev[0] != live {
		t.Fatalf("second eviction = %v", ev)
	}
	if !m.Contains(0) {
		t.Fatal("static member evicted")
	}
}

// TestSampleAdd pins the one fold of replicas' Stats counters into a
// cluster sample that both the wire source and the status dashboard use.
func TestSampleAdd(t *testing.T) {
	var s Sample
	s.Add(&wire.StatsOK{ReadCommits: 3, UpdateCommits: 2, Aborts: 1, ReadNs: 30, UpdateNs: 20,
		StageCounts: [6]int64{1, 0, 0, 0, 2, 0}, StageNs: [6]int64{10, 0, 0, 0, 40, 0}})
	s.Add(&wire.StatsOK{ReadCommits: 4, UpdateCommits: 1, ReadNs: 40, UpdateNs: 10, ApplyLag: 9,
		StageCounts: [6]int64{0, 0, 0, 0, 1, 0}, StageNs: [6]int64{0, 0, 0, 0, 5, 0}})
	want := Sample{ReadCommits: 7, UpdateCommits: 3, Aborts: 1, ReadNs: 70, UpdateNs: 30, Members: 2,
		StageCounts: [6]int64{1, 0, 0, 0, 3, 0}, StageNs: [6]int64{10, 0, 0, 0, 45, 0}}
	if s != want {
		t.Fatalf("folded sample = %+v, want %+v", s, want)
	}
}

func TestProfilerObserveWindows(t *testing.T) {
	p := NewProfiler(workload.TPCWShopping(), 0.1)
	if _, ok := p.Observe(Sample{When: at(0)}); ok {
		t.Fatal("first sample produced a window")
	}
	s := Sample{
		When:        at(2),
		ReadCommits: 160, UpdateCommits: 40, Aborts: 10,
		ReadNs: 160 * 20e6, UpdateNs: 40 * 50e6, // 20ms reads, 50ms updates
	}
	l, ok := p.Observe(s)
	if !ok {
		t.Fatal("second sample produced no window")
	}
	if l.ReadRate != 80 || l.UpdateRate != 20 {
		t.Fatalf("rates = %v / %v", l.ReadRate, l.UpdateRate)
	}
	if l.MeanRead != 0.020 || l.MeanUpdate != 0.050 {
		t.Fatalf("means = %v / %v", l.MeanRead, l.MeanUpdate)
	}
	if l.AbortRate != 0.2 {
		t.Fatalf("abort rate = %v", l.AbortRate)
	}
	// N = X·(R+Z) with R = (0.020·80+0.050·20)/100 = 0.026, Z = 0.1.
	if want := 100 * (0.026 + 0.1); l.Clients < want-1e-9 || l.Clients > want+1e-9 {
		t.Fatalf("clients = %v, want %v", l.Clients, want)
	}

	// A regressing counter (membership churn) discards the window and
	// resets the baseline.
	if _, ok := p.Observe(Sample{When: at(3), ReadCommits: 100}); ok {
		t.Fatal("regressed window not discarded")
	}
	if _, ok := p.Observe(Sample{When: at(4), ReadCommits: 150, ReadNs: 50 * 10e6}); !ok {
		t.Fatal("window after reset not produced")
	}

	// A cohort change (member set differs, e.g. one Stats poll was
	// dropped) discards the window even though counters grew — the
	// next same-cohort sample would otherwise credit a member's whole
	// history to one window.
	if _, ok := p.Observe(Sample{When: at(5), ReadCommits: 400, Cohort: "a,b"}); ok {
		t.Fatal("cohort-changed window not discarded")
	}
	if _, ok := p.Observe(Sample{When: at(6), ReadCommits: 450, Cohort: "a,b"}); !ok {
		t.Fatal("same-cohort window after reset not produced")
	}

	params := p.Params(Load{Throughput: 100, ReadRate: 80, UpdateRate: 20,
		MeanUpdate: 0.050, AbortRate: 0.01})
	if d := params.Mix.Pr - 0.8; d > 1e-9 || d < -1e-9 {
		t.Fatalf("live mix fractions = %v/%v", params.Mix.Pr, params.Mix.Pw)
	}
	if d := params.Mix.Pw - 0.2; d > 1e-9 || d < -1e-9 {
		t.Fatalf("live mix fractions = %v/%v", params.Mix.Pr, params.Mix.Pw)
	}
	if params.Mix.A1 != 0.01 || params.L1 != 0.050 {
		t.Fatalf("A1 = %v L1 = %v", params.Mix.A1, params.L1)
	}
}

// testConfig returns a controller config; testThink is the think time
// the tests' windows and profilers run at over the TPC-W shopping
// demands.
func testConfig() Config {
	return Config{
		Min: 1, Max: 5,
		HighUtil: 0.75, LowUtil: 0.45,
	}
}

const testThink = 0.1

func TestDecideScalesWithOfferedLoad(t *testing.T) {
	cfg := testConfig()
	if err := cfg.fill(); err != nil {
		t.Fatal(err)
	}
	prof := NewProfiler(workload.TPCWShopping(), testThink)
	params := prof.Params(Load{Throughput: 100, ReadRate: 80, UpdateRate: 20, MeanUpdate: 0.02})

	targets := make([]int, 0, 4)
	for _, clients := range []float64{1, 8, 20, 60} {
		targets = append(targets, Decide(cfg, params, clients, cfg.Min))
	}
	for i := 1; i < len(targets); i++ {
		if targets[i] < targets[i-1] {
			t.Fatalf("target shrank as load grew: %v", targets)
		}
	}
	if targets[0] != 1 {
		t.Fatalf("one client should need one replica, got %d", targets[0])
	}
	if targets[len(targets)-1] < 3 {
		t.Fatalf("60 clients over ~36ms demands should need >= 3 replicas, got %v", targets)
	}
	// Saturating load pins the target at Max, never beyond.
	if got := Decide(cfg, params, 1e6, 1); got != cfg.Max {
		t.Fatalf("saturating target = %d, want max %d", got, cfg.Max)
	}
}

func TestDecideHysteresisAndIdle(t *testing.T) {
	cfg := testConfig()
	if err := cfg.fill(); err != nil {
		t.Fatal(err)
	}
	prof := NewProfiler(workload.TPCWShopping(), testThink)
	params := prof.Params(Load{Throughput: 100, ReadRate: 80, UpdateRate: 20, MeanUpdate: 0.02})

	// Find a population whose fresh target is n, then verify a cluster
	// already at n+1 holds steady unless utilization drops to LowUtil:
	// the flap guard means up- and down-thresholds differ.
	var clients float64
	var fresh int
	for c := 4.0; c < 200; c += 1 {
		n := Decide(cfg, params, c, cfg.Min)
		if n > 1 && n < cfg.Max {
			u := utilAt(params, c, n)
			if u > cfg.LowUtil && u <= cfg.HighUtil {
				clients, fresh = c, n
				break
			}
		}
	}
	if clients == 0 {
		t.Fatal("no hysteresis operating point found")
	}
	if got := Decide(cfg, params, clients, fresh+1); got != fresh+1 {
		t.Fatalf("cluster at %d shrank to %d although util at %d exceeds LowUtil", fresh+1, got, fresh)
	}
	// Idle windows drift one step toward Min per decision.
	if got := Decide(cfg, params, 0, 4); got != 3 {
		t.Fatalf("idle decision = %d, want 3", got)
	}
	if got := Decide(cfg, params, 0, cfg.Min); got != cfg.Min {
		t.Fatalf("idle at min = %d", got)
	}
}

// fakeReplica counts lifecycle calls.
type fakeReplica struct{ left, closed bool }

func (f *fakeReplica) Addr() string { return "fake" }
func (f *fakeReplica) Leave() error { f.left = true; return nil }
func (f *fakeReplica) Close() error { f.closed = true; return nil }

func TestLocalScaler(t *testing.T) {
	var spawned []*fakeReplica
	fail := false
	s := NewLocalScaler(1, func() (Replica, error) {
		if fail {
			return nil, errors.New("boom")
		}
		r := &fakeReplica{}
		spawned = append(spawned, r)
		return r, nil
	})
	if s.Replicas() != 1 {
		t.Fatalf("baseline = %d", s.Replicas())
	}
	if err := s.ScaleUp(); err != nil || s.Replicas() != 2 {
		t.Fatalf("scale up: %v, n=%d", err, s.Replicas())
	}
	fail = true
	if err := s.ScaleUp(); err == nil {
		t.Fatal("failed spawn not reported")
	}
	if s.Failures() != 1 || s.Replicas() != 2 {
		t.Fatalf("failures = %d n = %d", s.Failures(), s.Replicas())
	}
	if err := s.ScaleDown(); err != nil || s.Replicas() != 1 {
		t.Fatalf("scale down: %v, n=%d", err, s.Replicas())
	}
	if !spawned[0].left || !spawned[0].closed {
		t.Fatal("scale down did not drain and close the replica")
	}
	if err := s.ScaleDown(); err == nil {
		t.Fatal("scaling below baseline allowed")
	}
}

func TestControllerStepsOncePerCooldown(t *testing.T) {
	cfg := testConfig()
	cfg.Cooldown = time.Hour // one op, then frozen
	n := 1
	scaler := &funcScaler{n: &n}
	var sampleAt float64
	var commits int64
	src := FuncSource(func() (Sample, error) {
		sampleAt += 1
		commits += 200 // heavy update traffic: 200 commits/sec
		return Sample{When: at(sampleAt), UpdateCommits: commits, UpdateNs: commits * 20e6}, nil
	})
	ctl, err := NewController(cfg, scaler)
	if err != nil {
		t.Fatal(err)
	}
	steer(t, NewWindow(src, workload.TPCWShopping(), testThink, false), ctl, 5)
	if n != 2 {
		t.Fatalf("cooldown violated: replicas = %d after 5 ticks", n)
	}
	st := ctl.Status()
	if st.Ups != 1 || st.Target < 2 {
		t.Fatalf("status = %+v", st)
	}
}

type funcScaler struct{ n *int }

func (f *funcScaler) Replicas() int { return *f.n }
func (f *funcScaler) ScaleUp() error {
	*f.n++
	return nil
}
func (f *funcScaler) ScaleDown() error {
	if *f.n <= 1 {
		return fmt.Errorf("at baseline")
	}
	*f.n--
	return nil
}

// steer steps w n times and hands each tick to ctl, as Window.Run does.
func steer(t *testing.T, w *Window, ctl *Controller, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		tick, err := w.Step()
		if err != nil {
			t.Fatal(err)
		}
		ctl.Observe(tick)
	}
}
