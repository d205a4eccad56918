package pipeline

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/certifier"
	"repro/internal/obs"
	"repro/internal/writeset"
)

func TestTracerCommitSpanAssembly(t *testing.T) {
	reg := obs.NewRegistry()
	tr := NewTracer(reg, 0)

	start := time.Now()
	// Certifier sub-stages land before the span opens (the version is
	// assigned inside certification).
	obsv := tr.CertStages()
	obsv("paxos", []int64{7}, 2*time.Millisecond)
	obsv("journal", []int64{7}, time.Millisecond)
	obsv("fsync", []int64{7}, 3*time.Millisecond)

	done := start.Add(10 * time.Millisecond)
	tr.CommitSpan(7, 2, start, done)
	tr.ApplyBatch(6, 7, 500*time.Microsecond, done.Add(time.Millisecond))
	tr.Ack(7, done.Add(2*time.Millisecond))

	spans := tr.Recent()
	if len(spans) != 1 {
		t.Fatalf("got %d recent spans, want 1", len(spans))
	}
	sp := spans[0]
	if sp.Version != 7 || sp.Kind != "commit" || sp.Keys != 2 {
		t.Errorf("span = %+v", sp)
	}
	// certify = (done-start) - paxos - journal - fsync = 10 - 6 = 4ms
	if got := sp.Stages[StageCertify]; got != 4*time.Millisecond {
		t.Errorf("certify stage = %v, want 4ms", got)
	}
	if sp.Stages[StagePaxos] != 2*time.Millisecond ||
		sp.Stages[StageJournal] != time.Millisecond ||
		sp.Stages[StageFsync] != 3*time.Millisecond {
		t.Errorf("sub-stages = %v", sp.Stages)
	}
	if sp.Stages[StageApply] != 500*time.Microsecond {
		t.Errorf("apply stage = %v, want 500µs", sp.Stages[StageApply])
	}
	if sp.Stages[StageAck] != 2*time.Millisecond {
		t.Errorf("ack stage = %v, want 2ms", sp.Stages[StageAck])
	}
	if got := sp.Total(); got != 12*time.Millisecond {
		t.Errorf("total = %v, want 12ms", got)
	}

	// Every traversed stage shows up in the per-stage histograms.
	counts, nanos := tr.StageTotals()
	for _, st := range []int{StageCertify, StagePaxos, StageJournal, StageFsync, StageApply, StageAck} {
		if counts[st] != 1 {
			t.Errorf("stage %s count = %d, want 1", StageNames[st], counts[st])
		}
		if nanos[st] <= 0 {
			t.Errorf("stage %s ns = %d, want > 0", StageNames[st], nanos[st])
		}
	}
	var b strings.Builder
	reg.WriteText(&b)
	out := b.String()
	for _, name := range StageNames {
		if !strings.Contains(out, `replicadb_stage_latency_seconds_count{stage="`+name+`"} 1`) {
			t.Errorf("exposition missing stage %q:\n%s", name, out)
		}
	}
}

func TestTracerPropagateSpan(t *testing.T) {
	tr := NewTracer(nil, 0)
	fetched := time.Now()
	tr.PropagateSpan(42, 3, fetched)
	end := fetched.Add(4 * time.Millisecond)
	tr.ApplyBatch(40, 45, time.Millisecond, end)

	spans := tr.Recent()
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	sp := spans[0]
	if sp.Kind != "propagate" || sp.Version != 42 {
		t.Errorf("span = %+v", sp)
	}
	if sp.Stages[StageApply] != time.Millisecond {
		t.Errorf("apply = %v", sp.Stages[StageApply])
	}
	if sp.Total() != 4*time.Millisecond {
		t.Errorf("total = %v, want 4ms", sp.Total())
	}
	// Apply totals count every record in the batch.
	counts, _ := tr.StageTotals()
	if counts[StageApply] != 5 {
		t.Errorf("apply count = %d, want 5", counts[StageApply])
	}
}

func TestTracerSlowLog(t *testing.T) {
	tr := NewTracer(nil, 10*time.Millisecond)
	base := time.Now()
	// One fast, one slow commit span.
	tr.CommitSpan(1, 1, base, base.Add(time.Millisecond))
	tr.Ack(1, base.Add(2*time.Millisecond))
	tr.CommitSpan(2, 1, base, base.Add(20*time.Millisecond))
	tr.Ack(2, base.Add(25*time.Millisecond))

	slow := tr.Slow()
	if len(slow) != 1 {
		t.Fatalf("got %d slow spans, want 1: %+v", len(slow), slow)
	}
	if slow[0].Version != 2 {
		t.Errorf("slow span version = %d, want 2", slow[0].Version)
	}

	// With nothing over the threshold the endpoint falls back to the
	// slowest recent spans.
	tr2 := NewTracer(nil, time.Hour)
	tr2.CommitSpan(1, 1, base, base.Add(time.Millisecond))
	tr2.Ack(1, base.Add(time.Millisecond))
	tr2.CommitSpan(2, 1, base, base.Add(5*time.Millisecond))
	tr2.Ack(2, base.Add(6*time.Millisecond))
	got := tr2.Slow()
	if len(got) != 2 || got[0].Version != 2 {
		t.Errorf("fallback slow = %+v, want slowest (v2) first", got)
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	tr.CommitSpan(1, 1, time.Now(), time.Now())
	tr.PropagateSpan(1, 1, time.Now())
	tr.ApplyBatch(0, 1, time.Millisecond, time.Now())
	tr.Ack(1, time.Now())
	if tr.CertStages() != nil {
		t.Error("nil tracer CertStages should be nil")
	}
	if tr.Recent() != nil || tr.Slow() != nil {
		t.Error("nil tracer rings should be nil")
	}
	c, n := tr.StageTotals()
	if c[0] != 0 || n[0] != 0 {
		t.Error("nil tracer totals should be zero")
	}
}

func TestTracerEvictionBounded(t *testing.T) {
	tr := NewTracer(nil, time.Hour)
	base := time.Now()
	// Open far more spans than capacity without ever acking them.
	for v := int64(1); v <= maxOpen+500; v++ {
		tr.CommitSpan(v, 1, base, base.Add(time.Millisecond))
	}
	tr.mu.Lock()
	open := len(tr.open)
	tr.mu.Unlock()
	if open > maxOpen {
		t.Errorf("open spans = %d, want <= %d", open, maxOpen)
	}
	// Evicted spans were finalized into the recent ring.
	if got := len(tr.Recent()); got != recentCap {
		t.Errorf("recent ring = %d, want %d", got, recentCap)
	}
	// A late ack for an evicted span is harmless.
	tr.Ack(1, base.Add(time.Second))
}

func TestTracerPendingStampsBounded(t *testing.T) {
	tr := NewTracer(nil, time.Hour)
	obsv := tr.CertStages()
	for v := int64(1); v <= maxPending+100; v++ {
		obsv("journal", []int64{v}, time.Microsecond)
	}
	tr.mu.Lock()
	pending := len(tr.pending)
	tr.mu.Unlock()
	if pending > maxPending {
		t.Errorf("pending stamps = %d, want <= %d", pending, maxPending)
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(obs.NewRegistry(), 0)
	obsv := tr.CertStages()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := time.Now()
			for i := 0; i < 200; i++ {
				v := int64(w*1000 + i + 1)
				obsv("journal", []int64{v}, time.Microsecond)
				tr.CommitSpan(v, 1, base, base.Add(time.Millisecond))
				tr.ApplyBatch(v-1, v, time.Microsecond, base.Add(2*time.Millisecond))
				tr.Ack(v, base.Add(3*time.Millisecond))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			tr.Recent()
			tr.Slow()
			tr.StageTotals()
		}
	}()
	wg.Wait()
	<-done
	counts, _ := tr.StageTotals()
	if counts[StageAck] != 800 {
		t.Errorf("ack count = %d, want 800", counts[StageAck])
	}
}

// TestTracerRecycledSpansKeepRings: the rings hold copies, so reusing a
// finalized span's record for later commits leaves what Recent and Slow
// report untouched.
func TestTracerRecycledSpansKeepRings(t *testing.T) {
	tr := NewTracer(nil, 10*time.Millisecond)
	base := time.Now()
	const n = recentCap + 50
	for v := int64(1); v <= n; v++ {
		verdict := base.Add(time.Millisecond)
		if v%10 == 0 {
			verdict = base.Add(20 * time.Millisecond) // slow
		}
		tr.CommitSpan(v, int(v), base, verdict)
		tr.Ack(v, verdict)
	}
	recent := tr.Recent()
	if len(recent) != recentCap {
		t.Fatalf("recent ring = %d, want %d", len(recent), recentCap)
	}
	for i, sp := range recent {
		if want := int64(n - i); sp.Version != want || sp.Keys != int(want) || sp.Kind != "commit" {
			t.Fatalf("recent[%d] = version %d keys %d kind %q, want version %d", i, sp.Version, sp.Keys, sp.Kind, want)
		}
	}
	for _, sp := range tr.Slow() {
		if sp.Version%10 != 0 || sp.Keys != int(sp.Version) || sp.Total() != 20*time.Millisecond {
			t.Fatalf("slow span = version %d keys %d total %v", sp.Version, sp.Keys, sp.Total())
		}
	}
}

// TestHostCertOpensSpansOnlyForItsOwnCommits: the certifier host notes
// the trace metadata of every commit, but opens a commit span, and
// counts a certify stage, only for a commit it serves itself. A peer's
// commit is acknowledged at the peer, so a span opened for it here
// would never close.
func TestHostCertOpensSpansOnlyForItsOwnCommits(t *testing.T) {
	tr := NewTracer(nil, 0)
	h := &HostCert{Base: certifier.New(), Notify: NewNotify(), Tracer: tr}
	const n = 10
	for i := range n {
		trace := uint64(100 + i)
		out, err := h.CertifyPeer(h.Base.Version(), writeset.Rows("item", []int64{int64(i)}, []string{"v"}), trace)
		if err != nil || !out.Committed {
			t.Fatalf("peer commit %d: %+v, %v", i, out, err)
		}
		if got, commitNs := tr.CommitMeta(out.Version); got != trace || commitNs == 0 {
			t.Fatalf("version %d meta = (%d, %d), want trace %d and a commit time", out.Version, got, commitNs, trace)
		}
	}
	counts, _ := tr.StageTotals()
	if len(tr.open) != 0 || counts[StageCertify] != 0 {
		t.Fatalf("after %d peer commits: %d open spans, %d certify stages; want none", n, len(tr.open), counts[StageCertify])
	}

	out, err := h.CertifyTraced(h.Base.Version(), writeset.Rows("item", []int64{0}, []string{"w"}), 7)
	if err != nil || !out.Committed {
		t.Fatalf("own commit: %+v, %v", out, err)
	}
	if sp := tr.open[out.Version]; sp == nil || sp.Trace != 7 {
		t.Fatalf("own commit's span = %+v, want one open with trace 7", sp)
	}
	tr.Ack(out.Version, time.Now())
	counts, _ = tr.StageTotals()
	if len(tr.open) != 0 || counts[StageCertify] != 1 || counts[StageAck] != 1 {
		t.Fatalf("after the ack: %d open spans, counts %v", len(tr.open), counts)
	}
}
