package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/events"
	"repro/internal/repl/pipeline"
	"repro/internal/stats"
	"repro/internal/wire"
)

// metrics holds the replica server's operational instruments: every
// counter, gauge and histogram registers on one obs.Registry, which
// renders the /metrics exposition; the commit-path stage tracer hangs
// off the same struct so the pipeline, the certifier and the dispatch
// loop all stamp the same spans. The cumulative counters also feed
// the wire Stats reply, which is what the elastic controller's live
// profiler consumes.
type metrics struct {
	design string
	id     int

	reg    *obs.Registry
	tracer *pipeline.Tracer // nil when tracing is disabled
	events *events.Journal  // cluster event journal (always on)

	commits            *obs.Counter
	aborts             *obs.Counter
	notLeaderRedirects *obs.Counter
	unknownOutcomes    *obs.Counter

	activeConns atomic.Int64
	activeTxns  atomic.Int64

	certLat *stats.Latency

	// Per-class client-visible transaction latency (Begin to commit
	// acknowledgement), the live counterpart of the histograms
	// repl.Drive keeps client-side. Counts double as per-class commit
	// counters.
	readLat   *stats.Latency
	updateLat *stats.Latency
}

func newMetrics(design string, id int, disableTrace bool, slowTxn time.Duration) *metrics {
	reg := obs.NewRegistry()
	m := &metrics{
		design:    design,
		id:        id,
		reg:       reg,
		events:    events.NewJournal(id, 0),
		certLat:   stats.NewLatency(),
		readLat:   stats.NewLatency(),
		updateLat: stats.NewLatency(),
	}
	// Every journal emit also bumps a per-type counter, so dashboards
	// see event rates while /debug/events serves the last-N detail.
	eventCounters := make(map[events.Type]*obs.Counter, len(events.Types))
	for _, t := range events.Types {
		eventCounters[t] = reg.Counter("replicadb_events",
			"Cluster events recorded in the journal, by type.", obs.L("type", string(t)))
	}
	m.events.SetObserver(func(t events.Type) {
		if c := eventCounters[t]; c != nil {
			c.Inc()
		}
	})
	if !disableTrace {
		m.tracer = pipeline.NewTracer(reg, slowTxn)
		// Commit-to-visible replication lag, observed at this replica
		// for every applied version whose leader commit timestamp is
		// known (the certifier host observes its own apply lag the same
		// way). The max gauge is the node's staleness
		// bound: no committed-elsewhere write has taken longer than this
		// to become visible here.
		replica := obs.L("replica", strconv.Itoa(id))
		lag := stats.NewLatency()
		reg.LatencyHistogram("replicadb_replication_lag_seconds",
			"Commit-to-visible replication lag observed at this replica.", lag, replica)
		m.tracer.SetLagObserver(lag.Record)
		reg.GaugeFunc("replicadb_replication_lag_max_seconds",
			"Largest commit-to-visible replication lag observed (staleness bound).",
			func() float64 {
				_, _, maxNs := m.tracer.LagTotals()
				return float64(maxNs) / 1e9
			}, replica)
		// Tracer-sourced journal entries: group-fsync waits past the
		// slow threshold, and every slow commit-path span.
		m.tracer.SetStallObserver(func(stage int, d time.Duration) {
			if stage != pipeline.StageFsync {
				return
			}
			m.events.Emit(events.FsyncStall, "group fsync wait "+d.String(),
				map[string]string{"wait_us": strconv.FormatInt(d.Microseconds(), 10)})
		})
		m.tracer.SetSlowObserver(func(sp pipeline.Span) {
			m.events.Emit(events.SlowTxn,
				fmt.Sprintf("%s span for version %d took %s", sp.Kind, sp.Version, sp.Total()),
				map[string]string{
					"version":  strconv.FormatInt(sp.Version, 10),
					"kind":     sp.Kind,
					"trace":    traceHex(sp.Trace),
					"total_us": strconv.FormatInt(sp.Total().Microseconds(), 10),
				})
		})
	}
	reg.GaugeFunc("replicadb_info", "Static build/identity info.",
		func() float64 { return 1 },
		obs.L("design", design), obs.L("replica", strconv.Itoa(id)))
	m.commits = reg.Counter("replicadb_commits", "Committed transactions (all classes).")
	m.aborts = reg.Counter("replicadb_aborts", "Certification aborts observed by this node.")
	m.notLeaderRedirects = reg.Counter("replicadb_not_leader_redirects",
		"Requests answered with a NotLeader redirect.")
	m.unknownOutcomes = reg.Counter("replicadb_commit_unknown_outcomes",
		"Commits that failed without a definite verdict (outcome unknown to the client).")
	reg.GaugeFunc("replicadb_active_connections", "Open client connections.",
		func() float64 { return float64(m.activeConns.Load()) })
	reg.GaugeFunc("replicadb_active_transactions", "Transactions in progress.",
		func() float64 { return float64(m.activeTxns.Load()) })

	// Each latency series renders twice from one histogram: as a
	// summary under its pre-registry name and as a bucketed histogram.
	for _, ls := range []struct {
		name, what string
		l          *stats.Latency
	}{
		{"cert", "Certification round-trip latency", m.certLat},
		{"read", "Read-only transaction serving latency", m.readLat},
		{"update", "Update transaction serving latency", m.updateLat},
	} {
		reg.LatencySummary("replicadb_"+ls.name+"_latency_seconds", ls.what+" (summary quantiles).", ls.l)
		reg.LatencyHistogram("replicadb_"+ls.name+"_latency_histogram_seconds", ls.what+" (bucketed).", ls.l)
	}
	reg.GaugeFunc("replicadb_read_commits", "Committed read-only transactions.",
		func() float64 { return float64(m.readLat.Count()) })
	reg.GaugeFunc("replicadb_update_commits", "Committed update transactions.",
		func() float64 { return float64(m.updateLat.Count()) })
	reg.GaugeFunc("replicadb_cert_latency_count", "Certification round trips recorded.",
		func() float64 { return float64(m.certLat.Count()) })
	reg.GaugeFunc("replicadb_cert_latency_max_seconds", "Largest certification round trip.",
		func() float64 { return m.certLat.Max().Seconds() })
	return m
}

// bindEngine registers the engine-backed gauges; called once the
// engine exists (the engine itself is built with the metrics struct
// in hand, so this is a second wiring phase).
func (m *metrics) bindEngine(eng *engine) {
	reg := m.reg
	reg.GaugeFunc("replicadb_applied_version", "This node's applied version.",
		func() float64 { return float64(eng.applied()) })
	reg.GaugeFunc("replicadb_writeset_queue_depth", "Certified writesets not yet applied locally.",
		func() float64 { return float64(eng.applyStats().Lag) })
	reg.GaugeFunc("replicadb_retained_writesets", "Writesets retained for propagation.",
		func() float64 { return float64(eng.logLen()) })
	reg.GaugeFunc("replicadb_sidb_row_versions", "Row versions held by the local database, live rows and pinned older versions.",
		func() float64 { return float64(eng.rowVersions()) })
	reg.GaugeFunc("replicadb_applied_versions_total", "Versions applied since start.",
		func() float64 { return float64(eng.applyStats().Total) })
	reg.GaugeFunc("replicadb_apply_queue_depth", "Records admitted to the in-flight apply batch.",
		func() float64 { return float64(eng.applyStats().Pending) })
	reg.GaugeFunc("replicadb_apply_lag", "Newest observed version minus the applied cursor.",
		func() float64 { return float64(eng.applyStats().Lag) })
	reg.GaugeFunc("replicadb_applied_versions_per_sec", "Apply throughput over the recent window.",
		func() float64 { return eng.applyStats().Rate })
	reg.GaugeFunc("replicadb_twopc_in_doubt", "Prepared cross-shard fragments awaiting a decision at this node's certifier.",
		func() float64 { n, _ := eng.twoPC(); return float64(n) })
	reg.GaugeFunc("replicadb_twopc_in_doubt_oldest_seconds", "Age of the oldest prepared cross-shard fragment awaiting a decision at this node's certifier; 0 with none.",
		func() float64 { return eng.inDoubtAge().Seconds() })
	reg.GaugeFunc("replicadb_twopc_decisions", "Cross-shard decisions this node's certifier holds, not yet retired.",
		func() float64 { _, n := eng.twoPC(); return float64(n) })
	reg.GaugeFunc("replicadb_certifier_epoch", "Certifier election epoch (Paxos ballot round).",
		func() float64 { e, _ := eng.epochInfo(); return float64(e) })
	reg.GaugeFunc("replicadb_certifier_leading", "1 when this node hosts the certifier.",
		func() float64 {
			if _, leading := eng.epochInfo(); leading {
				return 1
			}
			return 0
		})
	reg.CollectFunc("replicadb_membership_epoch", "Elastic membership epoch.", "gauge",
		func() []obs.Sample {
			epoch, _, err := eng.members()
			if err != nil {
				return nil
			}
			return []obs.Sample{{Value: float64(epoch)}}
		})
	reg.CollectFunc("replicadb_members", "Cluster members known to this node.", "gauge",
		func() []obs.Sample {
			_, members, err := eng.members()
			if err != nil {
				return nil
			}
			return []obs.Sample{{Value: float64(len(members))}}
		})
}

// compactEvent journals one WAL compaction attempt — the Durability
// OnCompact hook.
func (m *metrics) compactEvent(sizeBefore, sizeAfter int64) {
	m.events.Emit(events.WALCompacted,
		fmt.Sprintf("segment rewritten: %d -> %d bytes", sizeBefore, sizeAfter),
		map[string]string{
			"bytes_before": strconv.FormatInt(sizeBefore, 10),
			"bytes_after":  strconv.FormatInt(sizeAfter, 10),
		})
}

// observeCert records one certification round trip.
func (m *metrics) observeCert(d time.Duration) { m.certLat.Record(d) }

// observeTxn records one committed transaction's serving latency.
func (m *metrics) observeTxn(readOnly bool, d time.Duration) {
	if readOnly {
		m.readLat.Record(d)
	} else {
		m.updateLat.Record(d)
	}
}

// statsOK snapshots the cumulative counters for a wire Stats reply,
// including the per-stage commit-path breakdown when tracing is on.
func (m *metrics) statsOK(eng *engine) *wire.StatsOK {
	ap := eng.applyStats()
	ok := &wire.StatsOK{
		ReadCommits:   m.readLat.Count(),
		UpdateCommits: m.updateLat.Count(),
		Aborts:        m.aborts.Value(),
		ReadNs:        m.readLat.Sum(),
		UpdateNs:      m.updateLat.Sum(),
		Applied:       eng.applied(),
		ActiveTxns:    m.activeTxns.Load(),
		AppliedTotal:  ap.Total,
		ApplyLag:      ap.Lag,
	}
	counts, nanos := m.tracer.StageTotals()
	ok.StageCounts, ok.StageNs = counts, nanos
	ok.ReplicaID = int64(m.id)
	ok.Epoch, ok.Leading = eng.epochInfo()
	ok.LagCount, ok.LagSumNs, ok.LagMaxNs = m.tracer.LagTotals()
	return ok
}

// maxEventsServe caps how many journal entries one /debug/events
// response carries; together with the bounded slow-span ring this
// keeps every debug endpoint's response size bounded.
const maxEventsServe = events.DefaultCapacity

// handler serves the metrics listener: the Prometheus exposition on
// /metrics (and /), the slow-transaction log on /debug/slowtxns, the
// cluster event journal on /debug/events.
func (m *metrics) handler() http.Handler {
	exposition := m.reg.Handler()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/metrics", "/":
			exposition.ServeHTTP(w, r)
		case "/debug/slowtxns":
			m.serveSlowTxns(w)
		case "/debug/events":
			m.serveEvents(w, r)
		default:
			serveJSONError(w, http.StatusNotFound, "unknown path (try /metrics, /debug/slowtxns, /debug/events)")
		}
	})
}

// serveJSONError writes a structured JSON error body, keeping the
// debug endpoints machine-parseable even on failure.
func serveJSONError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(struct {
		Error string `json:"error"`
	}{msg})
}

// traceHex renders a nonzero trace id as fixed-width hex, "" for the
// zero (unknown) id.
func traceHex(id uint64) string {
	if id == 0 {
		return ""
	}
	return fmt.Sprintf("%016x", id)
}

// serveEvents renders the event journal, newest first. ?limit=N bounds
// the count (capped at maxEventsServe either way).
func (m *metrics) serveEvents(w http.ResponseWriter, r *http.Request) {
	limit := maxEventsServe
	if q := r.URL.Query().Get("limit"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n <= 0 {
			serveJSONError(w, http.StatusBadRequest, "limit must be a positive integer")
			return
		}
		if n < limit {
			limit = n
		}
	}
	out := struct {
		Node    int            `json:"node"`
		Emitted int64          `json:"emitted"`
		Events  []events.Event `json:"events"`
	}{
		Node:    m.id,
		Emitted: m.events.Emitted(),
		Events:  m.events.Recent(limit),
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(out)
}

// slowTxnEntry is the JSON shape of one slow-transaction span. The
// trace id renders as a fixed-width hex string: a JSON number would
// lose bits past 2^53 in standard decoders.
type slowTxnEntry struct {
	Version int64            `json:"version"`
	Kind    string           `json:"kind"`
	Keys    int              `json:"keys"`
	Trace   string           `json:"trace,omitempty"`
	Start   time.Time        `json:"start"`
	TotalUs int64            `json:"total_us"`
	Stages  map[string]int64 `json:"stages_us"`
}

// serveSlowTxns renders the slowest recent commit-path spans, slowest
// first, with per-stage microsecond breakdowns.
func (m *metrics) serveSlowTxns(w http.ResponseWriter) {
	if m.tracer == nil {
		serveJSONError(w, http.StatusNotFound, "tracing disabled (node started with -notrace)")
		return
	}
	spans := m.tracer.Slow()
	out := struct {
		ThresholdUs int64          `json:"threshold_us"`
		Spans       []slowTxnEntry `json:"spans"`
	}{
		ThresholdUs: m.tracer.SlowThreshold().Microseconds(),
		Spans:       make([]slowTxnEntry, 0, len(spans)),
	}
	for _, sp := range spans {
		e := slowTxnEntry{
			Version: sp.Version,
			Kind:    sp.Kind,
			Keys:    sp.Keys,
			Trace:   traceHex(sp.Trace),
			Start:   sp.Start,
			TotalUs: sp.Total().Microseconds(),
			Stages:  make(map[string]int64, pipeline.NumStages),
		}
		for i, d := range sp.Stages {
			if d > 0 {
				e.Stages[pipeline.StageNames[i]] = d.Microseconds()
			}
		}
		out.Spans = append(out.Spans, e)
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(out)
}
