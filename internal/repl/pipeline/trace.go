package pipeline

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/stats"
)

// Commit-path stages, in pipeline order. The indexes are shared with
// the wire Stats extension, so they are append-only.
const (
	// StageCertify is the certification call as seen by the submitting
	// node: queueing (group-commit batching, lock wait), the conflict
	// check, and — off the certifier host — the network round trip,
	// minus the sub-stages measured separately below.
	StageCertify = iota
	// StagePaxos is the Paxos proposal round(s) that replicate the
	// certification log entry (replicated certifier only).
	StagePaxos
	// StageJournal is the writeset append into the certifier's
	// write-ahead journal, staged under the certification lock.
	StageJournal
	// StageFsync is the group-commit fsync wait that makes the
	// journal entry durable.
	StageFsync
	// StageApply is the conflict-aware installation of the writeset
	// into the local database (batch install time).
	StageApply
	// StageAck is the tail from the certification verdict to the
	// client-visible commit acknowledgement (origin apply when apply
	// is synchronous, plus reply encoding).
	StageAck
	// NumStages is the number of commit-path stages.
	NumStages
)

// StageNames maps stage indexes to their metric label values.
var StageNames = [NumStages]string{"certify", "paxos", "journal", "fsync", "apply", "ack"}

// stageIndex maps the certifier's stage-observer names onto indexes.
var stageIndex = map[string]int{"paxos": StagePaxos, "journal": StageJournal, "fsync": StageFsync}

// Span is the trace record one writeset carries through the commit
// path: wall-clock start (enqueue at the submitting node) plus one
// elapsed duration per stage it traversed. A span is either a commit
// span (certify → ack at the node that ran the transaction) or a
// propagation span (FetchSince → apply on a replica consuming the
// update stream).
type Span struct {
	Version int64     `json:"version"`
	Kind    string    `json:"kind"`            // "commit" or "propagate"
	Keys    int       `json:"keys"`            // writeset entries
	Trace   uint64    `json:"trace,omitempty"` // cross-node trace id (0 when unknown)
	Start   time.Time `json:"start"`
	// Stages holds elapsed nanoseconds per stage, indexed by the
	// Stage* constants; zero means the stage was not traversed (or
	// was not separately measurable at this node).
	Stages [NumStages]time.Duration `json:"stages"`
	End    time.Time                `json:"end"`

	ackStart time.Time // certification verdict time, ack measured from here
}

// Total returns the span's end-to-end duration.
func (s *Span) Total() time.Duration {
	if s.End.IsZero() || s.End.Before(s.Start) {
		return 0
	}
	return s.End.Sub(s.Start)
}

// Tracer assembles commit-path spans and feeds the per-stage latency
// histograms. One Tracer serves one node. All methods are nil-safe:
// a nil *Tracer disables tracing with near-zero overhead, which is
// what the instrumentation-off benchmark configuration uses.
//
// Span assembly is version-keyed. The certifier's sub-stage stamps
// (paxos, journal, fsync) can arrive before the submitting side knows
// its version — the version is assigned inside certification — so
// they are stashed in a bounded pending map and folded into the span
// when it opens. Open spans that never finish (e.g. the span of a
// catalog load, which no client acknowledgement closes) are finalized
// by eviction. A finalized span is copied into the rings
// and its record recycled, so a traced commit allocates no span.
type Tracer struct {
	slow time.Duration // slow-transaction threshold

	hist [NumStages]*stats.Latency

	counts [NumStages]atomic.Int64
	nanos  [NumStages]atomic.Int64

	mu        sync.Mutex
	open      map[int64]*Span
	openOrder []int64 // insertion order, for eviction
	pending   map[int64][NumStages]time.Duration
	pendOrder []int64
	free      []*Span // finalized span records, reused by the next open
	recent    spanRing
	slowRing  spanRing

	// meta is the bounded version → cross-node trace metadata map:
	// the trace id the transaction carried on the wire and the
	// certifier leader's commit wall-clock (UnixNano). Written by the
	// certification path (host) or the FetchSince decoder (replicas),
	// read by span assembly and the replication-lag observer.
	meta      map[int64]commitMeta
	metaOrder []int64

	// lagObs, when set, observes commit-to-visible replication lag for
	// every applied version whose commit timestamp is known.
	lagObs func(time.Duration)

	// stallObs, when set, observes any single stage wait at or above
	// the slow threshold — the event journal's fsync-stall feed.
	stallObs func(stage int, d time.Duration)

	// slowObs, when set, observes every finalized span at or above the
	// slow threshold. Called under the tracer lock: the hook must be
	// cheap and must not call back into the Tracer.
	slowObs func(sp Span)

	lagCount atomic.Int64
	lagSumNs atomic.Int64
	lagMaxNs atomic.Int64
}

// commitMeta is a transaction's cross-node identity: its wire trace id
// and the certifier leader's commit wall-clock (UnixNano, 0 unknown).
type commitMeta struct {
	trace    uint64
	commitNs int64
}

const (
	maxOpen    = 4096
	maxPending = 4096
	maxMeta    = 4096
	recentCap  = 256
	slowCap    = 64
	// DefaultSlowTxn is the default slow-transaction threshold.
	DefaultSlowTxn = 50 * time.Millisecond
)

// NewTracer creates a tracer and registers the per-stage latency
// histograms on reg (one histogram per stage, labelled stage=<name>).
// slow <= 0 selects DefaultSlowTxn.
func NewTracer(reg *obs.Registry, slow time.Duration) *Tracer {
	if slow <= 0 {
		slow = DefaultSlowTxn
	}
	t := &Tracer{
		slow:     slow,
		open:     make(map[int64]*Span),
		pending:  make(map[int64][NumStages]time.Duration),
		meta:     make(map[int64]commitMeta),
		recent:   spanRing{buf: make([]Span, recentCap)},
		slowRing: spanRing{buf: make([]Span, slowCap)},
	}
	if reg != nil {
		for i := 0; i < NumStages; i++ {
			t.hist[i] = stats.NewLatency()
			reg.LatencyHistogram("replicadb_stage_latency_seconds",
				"Commit-path latency by pipeline stage.",
				t.hist[i], obs.L("stage", StageNames[i]))
		}
	}
	return t
}

// observe feeds one stage observation into the histogram and the
// cumulative totals. n is the number of writesets the duration covers
// (group commit and batch apply amortize one wait over many records;
// the totals count every record so windowed means stay per-writeset).
func (t *Tracer) observe(stage int, d time.Duration, n int) {
	if d < 0 {
		d = 0
	}
	if h := t.hist[stage]; h != nil {
		h.Record(d)
	}
	t.counts[stage].Add(int64(n))
	t.nanos[stage].Add(int64(d))
	if t.stallObs != nil && d >= t.slow {
		t.stallObs(stage, d)
	}
}

// SetStallObserver installs the per-stage stall hook, fired whenever a
// single stage wait reaches the slow threshold. Install before
// traffic; the Tracer does not synchronize replacement.
func (t *Tracer) SetStallObserver(fn func(stage int, d time.Duration)) {
	if t == nil {
		return
	}
	t.stallObs = fn
}

// SetSlowObserver installs the slow-span hook, fired once per
// finalized span at or above the slow threshold. The hook runs under
// the tracer lock: keep it cheap and do not call back into the Tracer.
func (t *Tracer) SetSlowObserver(fn func(sp Span)) {
	if t == nil {
		return
	}
	t.slowObs = fn
}

// StageTotals returns the cumulative per-stage observation counts and
// summed nanoseconds — the wire Stats extension's payload.
func (t *Tracer) StageTotals() (counts, nanos [NumStages]int64) {
	if t == nil {
		return
	}
	for i := 0; i < NumStages; i++ {
		counts[i] = t.counts[i].Load()
		nanos[i] = t.nanos[i].Load()
	}
	return
}

// CertStages returns the certifier stage-observer callback feeding
// this tracer, or nil on a nil tracer (tracing disabled).
func (t *Tracer) CertStages() func(stage string, versions []int64, d time.Duration) {
	if t == nil {
		return nil
	}
	return func(stage string, versions []int64, d time.Duration) {
		idx, ok := stageIndex[stage]
		if !ok || len(versions) == 0 {
			return
		}
		t.observe(idx, d, len(versions))
		t.mu.Lock()
		for _, v := range versions {
			if sp := t.open[v]; sp != nil {
				sp.Stages[idx] += d
				continue
			}
			st, ok := t.pending[v]
			if !ok {
				if len(t.pendOrder) >= maxPending {
					delete(t.pending, t.pendOrder[0])
					t.pendOrder = t.pendOrder[1:]
				}
				t.pendOrder = append(t.pendOrder, v)
			}
			st[idx] += d
			t.pending[v] = st
		}
		t.mu.Unlock()
	}
}

// NoteCommitMeta records a version's cross-node trace metadata: the
// trace id the transaction carried and the certifier leader's commit
// wall-clock (UnixNano). Nonzero fields win over zero on merge, so
// the certification path (trace known, timestamp stamped at the
// leader) and the FetchSince decoder (both relayed) compose. The map
// is bounded; span assembly and the lag observer read it.
func (t *Tracer) NoteCommitMeta(version int64, trace uint64, commitNs int64) {
	if t == nil || version <= 0 || (trace == 0 && commitNs == 0) {
		return
	}
	t.mu.Lock()
	m, ok := t.meta[version]
	if !ok {
		if len(t.metaOrder) >= maxMeta {
			delete(t.meta, t.metaOrder[0])
			t.metaOrder = t.metaOrder[1:]
		}
		t.metaOrder = append(t.metaOrder, version)
	}
	if trace != 0 {
		m.trace = trace
	}
	if commitNs != 0 {
		m.commitNs = commitNs
	}
	t.meta[version] = m
	// A span already open for this version (apply racing ahead of the
	// meta arriving is the common order on the host) picks the id up.
	if sp := t.open[version]; sp != nil && sp.Trace == 0 {
		sp.Trace = m.trace
	}
	t.mu.Unlock()
}

// CommitMeta returns a version's recorded trace id and leader commit
// timestamp (zero values when unknown) — the FetchSince reply fill.
func (t *Tracer) CommitMeta(version int64) (trace uint64, commitNs int64) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	m := t.meta[version]
	t.mu.Unlock()
	return m.trace, m.commitNs
}

// SetLagObserver installs the commit-to-visible replication-lag hook,
// fired once per applied version whose leader commit timestamp is
// known. Install before traffic; the Tracer does not synchronize
// replacement.
func (t *Tracer) SetLagObserver(fn func(time.Duration)) {
	if t == nil {
		return
	}
	t.lagObs = fn
}

// LagTotals returns the cumulative replication-lag observations:
// count, summed nanoseconds, and the worst single observation — the
// wire Stats reply's lag block.
func (t *Tracer) LagTotals() (count, sumNs, maxNs int64) {
	if t == nil {
		return
	}
	return t.lagCount.Load(), t.lagSumNs.Load(), t.lagMaxNs.Load()
}

// observeLag records one commit-to-visible lag observation. Lag is
// measured across machines (leader commit clock vs local apply clock),
// so clock skew can drive it negative; clamp at zero rather than
// poisoning the histogram.
func (t *Tracer) observeLag(d time.Duration) {
	if d < 0 {
		d = 0
	}
	t.lagCount.Add(1)
	t.lagSumNs.Add(int64(d))
	for {
		cur := t.lagMaxNs.Load()
		if int64(d) <= cur || t.lagMaxNs.CompareAndSwap(cur, int64(d)) {
			break
		}
	}
	if t.lagObs != nil {
		t.lagObs(d)
	}
}

// CommitSpan opens the commit span for a freshly certified writeset:
// start is when the submitting node enqueued the certification
// request, done is when the verdict returned. The measured sub-stages
// stashed by the certifier observer are folded in; the remainder is
// the certify stage. The span stays open for the ack (and, when apply
// runs before the ack, the apply) stamp.
func (t *Tracer) CommitSpan(version int64, keys int, start, done time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	sp := t.newSpanLocked()
	*sp = Span{Version: version, Kind: "commit", Keys: keys, Trace: t.meta[version].trace, Start: start, ackStart: done}
	if st, ok := t.pending[version]; ok {
		sp.Stages = st
		delete(t.pending, version)
		// pendOrder entry is left behind; eviction skips deleted keys.
	}
	sub := sp.Stages[StagePaxos] + sp.Stages[StageJournal] + sp.Stages[StageFsync]
	certify := done.Sub(start) - sub
	if certify < 0 {
		certify = 0
	}
	sp.Stages[StageCertify] = certify
	t.insertOpenLocked(version, sp)
	t.mu.Unlock()
	t.observe(StageCertify, certify, 1)
}

// PropagateSpan opens a propagation span for one representative
// version of a fetched batch (sampling one span per fetch keeps the
// cost bounded while the apply histogram still sees every batch).
func (t *Tracer) PropagateSpan(version int64, keys int, fetched time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if _, exists := t.open[version]; !exists {
		sp := t.newSpanLocked()
		*sp = Span{Version: version, Kind: "propagate", Keys: keys, Trace: t.meta[version].trace, Start: fetched}
		t.insertOpenLocked(version, sp)
	}
	t.mu.Unlock()
}

// newSpanLocked returns a recycled span record, or a new one when none
// is free. The caller overwrites it whole.
func (t *Tracer) newSpanLocked() *Span {
	n := len(t.free)
	if n == 0 {
		return new(Span)
	}
	sp := t.free[n-1]
	t.free[n-1] = nil
	t.free = t.free[:n-1]
	return sp
}

// insertOpenLocked records an open span, evicting (finalizing) the
// oldest one past capacity.
func (t *Tracer) insertOpenLocked(version int64, sp *Span) {
	if len(t.openOrder) >= maxOpen {
		old := t.openOrder[0]
		t.openOrder = t.openOrder[1:]
		if osp := t.open[old]; osp != nil {
			delete(t.open, old)
			t.finalizeLocked(osp)
		}
	}
	t.open[version] = sp
	t.openOrder = append(t.openOrder, version)
}

// ApplyBatch stamps the apply stage: one batch install of versions
// (from..to] took d. The histogram sees the batch duration once; the
// totals count every record; every open span in the range is stamped
// with the batch duration (the wait any transaction in the batch
// experienced), and propagation spans complete here.
func (t *Tracer) ApplyBatch(from, to int64, d time.Duration, end time.Time) {
	if t == nil || to <= from {
		return
	}
	t.observe(StageApply, d, int(to-from))
	// The lags are observed once the lock is released, because the lag
	// hook is the caller's code. A batch of up to len(buf) versions, the
	// steady state, gathers them on the stack.
	var buf [16]time.Duration
	lags := buf[:0]
	t.mu.Lock()
	for v := from + 1; v <= to; v++ {
		if m := t.meta[v]; m.commitNs > 0 {
			// Commit-to-visible replication lag: leader commit clock to
			// local apply completion (cross-machine, clamped in
			// observeLag against clock skew).
			lags = append(lags, end.Sub(time.Unix(0, m.commitNs)))
		}
		sp := t.open[v]
		if sp == nil {
			continue
		}
		if sp.Trace == 0 {
			sp.Trace = t.meta[v].trace
		}
		sp.Stages[StageApply] = d
		if sp.Kind == "propagate" {
			sp.End = end
			t.removeOpenLocked(v)
			t.finalizeLocked(sp)
		}
	}
	t.mu.Unlock()
	for _, lag := range lags {
		t.observeLag(lag)
	}
}

// Ack completes a commit span: the client-visible acknowledgement for
// version was written at end.
func (t *Tracer) Ack(version int64, end time.Time) {
	if t == nil || version <= 0 {
		return
	}
	t.mu.Lock()
	sp := t.open[version]
	if sp == nil || sp.Kind != "commit" {
		t.mu.Unlock()
		return
	}
	ack := end.Sub(sp.ackStart)
	if ack < 0 {
		ack = 0
	}
	sp.Stages[StageAck] = ack
	sp.End = end
	t.removeOpenLocked(version)
	t.finalizeLocked(sp)
	t.mu.Unlock()
	t.observe(StageAck, ack, 1)
}

func (t *Tracer) removeOpenLocked(version int64) {
	delete(t.open, version)
	for i, v := range t.openOrder {
		if v == version {
			t.openOrder = append(t.openOrder[:i], t.openOrder[i+1:]...)
			break
		}
	}
}

// finalizeLocked copies a span into the recent ring (and the slow ring
// past the threshold) and frees its record for reuse; the caller has
// already removed it from the open map. Spans evicted without an End
// get one synthesized from their stamps so Total stays meaningful.
func (t *Tracer) finalizeLocked(sp *Span) {
	if sp.End.IsZero() {
		var sum time.Duration
		for _, d := range sp.Stages {
			sum += d
		}
		sp.End = sp.Start.Add(sum)
	}
	t.recent.push(sp)
	if sp.Total() >= t.slow {
		t.slowRing.push(sp)
		if t.slowObs != nil {
			t.slowObs(*sp)
		}
	}
	t.free = append(t.free, sp)
}

// Recent returns the most recently completed spans, newest first.
func (t *Tracer) Recent() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.recent.snapshot()
}

// Slow returns recent spans at or above the slow threshold, slowest
// first — the /debug/slowtxns payload. When nothing crossed the
// threshold yet, the slowest recent spans are returned instead so the
// endpoint is useful from the first request.
func (t *Tracer) Slow() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := t.slowRing.snapshot()
	if len(out) == 0 {
		out = t.recent.snapshot()
	}
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Total() > out[j].Total() })
	if len(out) > slowCap {
		out = out[:slowCap]
	}
	return out
}

// SlowThreshold returns the slow-transaction threshold.
func (t *Tracer) SlowThreshold() time.Duration {
	if t == nil {
		return 0
	}
	return t.slow
}

// spanRing is a fixed-capacity overwrite ring of completed spans,
// held by value.
type spanRing struct {
	buf  []Span
	next int
	full bool
}

func (r *spanRing) push(sp *Span) {
	r.buf[r.next] = *sp
	r.next++
	if r.next == len(r.buf) {
		r.next, r.full = 0, true
	}
}

// snapshot returns the ring's spans newest first, copied out.
func (r *spanRing) snapshot() []Span {
	n := r.next
	if r.full {
		n = len(r.buf)
	}
	out := make([]Span, 0, n)
	for i := 0; i < n; i++ {
		idx := (r.next - 1 - i + len(r.buf)) % len(r.buf)
		out = append(out, r.buf[idx])
	}
	return out
}
