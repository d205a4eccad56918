package server_test

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/internal/workload"
)

// metricValue parses one series value out of a /metrics exposition
// body. series is the full series name including any label set, e.g.
// `replicadb_stage_latency_seconds_count{stage="certify"}`.
func metricValue(t *testing.T, body, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("series %q not found in exposition:\n%s", series, body)
	return 0
}

func stageCount(t *testing.T, body, stage string) float64 {
	t.Helper()
	return metricValue(t, body, `replicadb_stage_latency_seconds_count{stage="`+stage+`"}`)
}

// slowTxnsDoc mirrors the /debug/slowtxns JSON shape.
type slowTxnsDoc struct {
	ThresholdUs int64 `json:"threshold_us"`
	Spans       []struct {
		Version int64            `json:"version"`
		Kind    string           `json:"kind"`
		Keys    int              `json:"keys"`
		TotalUs int64            `json:"total_us"`
		Stages  map[string]int64 `json:"stages_us"`
	} `json:"spans"`
}

// TestCommitPathTracing drives a two-node cluster with durable
// commits and checks the full tracing surface: per-stage histograms
// on /metrics for every stage the node traverses, complete spans on
// /debug/slowtxns, and the stage breakdown in the wire Stats reply.
func TestCommitPathTracing(t *testing.T) {
	servers, cl := startCluster(t, "mm", 2, func(o *server.Options) {
		o.MetricsAddr = "127.0.0.1:0"
		o.WALDir = t.TempDir()
		o.Fsync = true
	})
	driveAndCheck(t, cl, 2, 10)

	// The certifier host measures every commit-path stage except paxos
	// (no replicated certifier here).
	host := httpGet(t, "http://"+servers[0].MetricsAddr()+"/metrics")
	for _, stage := range []string{"certify", "journal", "fsync", "apply", "ack"} {
		if n := stageCount(t, host, stage); n <= 0 {
			t.Errorf("host stage %q count = %v, want > 0", stage, n)
		}
	}
	if n := stageCount(t, host, "paxos"); n != 0 {
		t.Errorf("host stage paxos count = %v, want 0 without -paxos", n)
	}

	// The remote replica times its certification round trips, its
	// propagation applies, and its own acks.
	replica := httpGet(t, "http://"+servers[1].MetricsAddr()+"/metrics")
	for _, stage := range []string{"certify", "apply", "ack"} {
		if n := stageCount(t, replica, stage); n <= 0 {
			t.Errorf("replica stage %q count = %v, want > 0", stage, n)
		}
	}

	// /debug/slowtxns returns complete spans (falling back to the
	// slowest recent ones when nothing crossed the threshold).
	var doc slowTxnsDoc
	if err := json.Unmarshal([]byte(httpGet(t, "http://"+servers[0].MetricsAddr()+"/debug/slowtxns")), &doc); err != nil {
		t.Fatalf("slowtxns json: %v", err)
	}
	if doc.ThresholdUs != 50_000 {
		t.Errorf("threshold_us = %d, want the 50ms default", doc.ThresholdUs)
	}
	if len(doc.Spans) == 0 {
		t.Fatal("no spans on /debug/slowtxns")
	}
	var sawCommit bool
	for _, sp := range doc.Spans {
		if sp.Version <= 0 || sp.TotalUs < 0 {
			t.Errorf("malformed span: %+v", sp)
		}
		if sp.Kind == "commit" {
			sawCommit = true
			if len(sp.Stages) == 0 {
				t.Errorf("commit span %d has no stage breakdown", sp.Version)
			}
		}
	}
	if !sawCommit {
		t.Error("no commit-kind span recorded")
	}

	// The wire Stats reply carries the same breakdown, so cluster-wide
	// pollers can sum it.
	link := client.NewLink(servers[0].Addr(), "mm", -1, time.Second)
	defer link.Close()
	st, err := link.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.StageCounts[0] <= 0 { // certify
		t.Errorf("StatsOK certify count = %d, want > 0", st.StageCounts[0])
	}
	if st.StageNs[0] <= 0 {
		t.Errorf("StatsOK certify ns = %d, want > 0", st.StageNs[0])
	}
}

// TestPeerCommitsTracedOnce: commits served by the non-host replica
// of a traced two-node cluster are certified at the host but traced
// only at the replica, which opens their spans, times their certify
// round trips and acknowledges them. The two nodes' certify stage
// counts grow by one per commit between them, not two.
func TestPeerCommitsTracedOnce(t *testing.T) {
	servers, cl := startCluster(t, "mm", 2, nil)
	if err := cl.CreateTable("item"); err != nil {
		t.Fatal(err)
	}
	certifyCounts := func() (host, replica int64) {
		var counts [2]int64
		for i, srv := range servers {
			link := client.NewLink(srv.Addr(), "mm", -1, time.Second)
			st, err := link.Stats()
			link.Close()
			if err != nil {
				t.Fatalf("stats %d: %v", i, err)
			}
			counts[i] = st.StageCounts[0] // certify
		}
		return counts[0], counts[1]
	}
	host0, replica0 := certifyCounts()
	wc := dialWire(t, servers[1].Addr())
	const n = 20
	for i := range n {
		for _, msg := range []wire.Message{&wire.Begin{}, &wire.Write{Table: "item", Row: int64(i), Value: "v"}, &wire.Commit{}} {
			reply, err := call(wc, msg)
			if err != nil {
				t.Fatalf("%T: %v", msg, err)
			}
			if e, ok := reply.(*wire.Err); ok {
				t.Fatalf("%T: %s", msg, e.Msg)
			}
		}
	}
	host, replica := certifyCounts()
	if dh, dr := host-host0, replica-replica0; dh != 0 || dr != n {
		t.Fatalf("%d commits served at the replica: host counted %d certify stages, replica %d; want 0 and %d", n, dh, dr, n)
	}
}

// TestCatalogLoadOpensNoCommitSpans: CreateTable and Load chunks are
// certified as records of the group's log but are no client's commit,
// so neither node opens a commit span for them. After a catalog load
// and a short drive on a traced two-node cluster, each node has
// counted one certify stage per acknowledged commit.
func TestCatalogLoadOpensNoCommitSpans(t *testing.T) {
	c := launchCluster(t, 1, 2, server.Options{Design: "mm"}, nil)
	driveAndCheck(t, c.Clients[0], 2, 10)
	stats, err := c.Stats(0)
	if err != nil {
		t.Fatal(err)
	}
	var acks int64
	for i, st := range stats {
		certify, ack := st.StageCounts[0], st.StageCounts[5]
		if certify != ack {
			t.Errorf("node %d counted %d certify stages for %d acknowledged commits", i, certify, ack)
		}
		acks += ack
	}
	if acks == 0 {
		t.Fatal("no commit was acknowledged")
	}
}

// TestTracingDisabled: -notrace servers must not register stage
// histograms, answer 404 on /debug/slowtxns, and report a zero stage
// breakdown over the wire — the instrumentation-off configuration the
// overhead benchmark compares against.
func TestTracingDisabled(t *testing.T) {
	servers, cl := startCluster(t, "mm", 1, func(o *server.Options) {
		o.MetricsAddr = "127.0.0.1:0"
		o.DisableTrace = true
	})
	driveAndCheck(t, cl, 1, 5)

	body := httpGet(t, "http://"+servers[0].MetricsAddr()+"/metrics")
	if strings.Contains(body, "replicadb_stage_latency_seconds") {
		t.Error("stage histograms registered with tracing disabled")
	}
	// The untraced path still serves the operational counters.
	if n := metricValue(t, body, "replicadb_commits"); n <= 0 {
		t.Errorf("replicadb_commits = %v, want > 0", n)
	}

	resp, err := http.Get("http://" + servers[0].MetricsAddr() + "/debug/slowtxns")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("slowtxns status = %d, want 404", resp.StatusCode)
	}

	link := client.NewLink(servers[0].Addr(), "mm", -1, time.Second)
	defer link.Close()
	st, err := link.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	for i, c := range st.StageCounts {
		if c != 0 || st.StageNs[i] != 0 {
			t.Errorf("stage %d breakdown nonzero with tracing disabled: %d/%d", i, c, st.StageNs[i])
		}
	}
}

// TestFailoverMetrics covers the observability of a leader failover:
// the epoch gauge advances past the old leader's epoch, the election
// gap produces counted NotLeader redirects, and the new leader's
// stage histograms keep recording (including the paxos stage only a
// replicated certifier has).
func TestFailoverMetrics(t *testing.T) {
	servers, addrs, _ := startPaxosCluster(t, 3, func(o *server.Options) {
		o.MetricsAddr = "127.0.0.1:0"
		o.ElectTimeout = 500 * time.Millisecond
	})
	lead := waitOneLeader(t, servers, -1)

	leadBody := httpGet(t, "http://"+servers[lead].MetricsAddr()+"/metrics")
	epoch0 := metricValue(t, leadBody, "replicadb_certifier_epoch")
	if v := metricValue(t, leadBody, "replicadb_certifier_leading"); v != 1 {
		t.Fatalf("leader's leading gauge = %v, want 1", v)
	}
	for i, srv := range servers {
		if i == lead {
			continue
		}
		if v := metricValue(t, httpGet(t, "http://"+srv.MetricsAddr()+"/metrics"), "replicadb_certifier_leading"); v != 0 {
			t.Fatalf("follower %d leading gauge = %v, want 0", i, v)
		}
	}

	mix := workload.TPCWShopping()
	cat, err := workload.CatalogFor(mix)
	if err != nil {
		t.Fatal(err)
	}
	const factor = 200
	cl, err := client.New(client.Options{Servers: addrs, Design: "mm"})
	if err != nil {
		t.Fatal(err)
	}
	if err := repl.LoadCatalog(cl, cat, factor); err != nil {
		cl.Close()
		t.Fatalf("load: %v", err)
	}
	res := repl.Drive(cl, cat, mix, 4, 10, factor, 1)
	cl.Close()
	if res.Errors != 0 {
		t.Fatalf("pre-failover drive errors: %+v", res)
	}

	// The replicated certifier host measures the paxos stage. Schema and
	// load certify through the group like commits, so an election during
	// set-up may have moved leadership: check whoever leads now.
	lead = waitOneLeader(t, servers, -1)
	leadBody = httpGet(t, "http://"+servers[lead].MetricsAddr()+"/metrics")
	if n := stageCount(t, leadBody, "paxos"); n <= 0 {
		t.Errorf("leader paxos stage count = %v, want > 0", n)
	}

	// Kill the leader and drive into the election gap: commits caught
	// before the new epoch settles are answered with NotLeader
	// redirects, which the survivors count.
	servers[lead].Close()
	survivors := make([]string, 0, len(addrs)-1)
	for i, a := range addrs {
		if i != lead {
			survivors = append(survivors, a)
		}
	}
	cl2, err := client.New(client.Options{Servers: survivors, Design: "mm"})
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	repl.Drive(cl2, cat, mix, 2, 5, factor, 2) // outcome checked below; the gap makes unknowns legitimate

	newLead := waitOneLeader(t, servers, lead)
	newBody := httpGet(t, "http://"+servers[newLead].MetricsAddr()+"/metrics")
	epoch1 := metricValue(t, newBody, "replicadb_certifier_epoch")
	if epoch1 <= epoch0 {
		t.Errorf("epoch gauge did not advance: %v -> %v", epoch0, epoch1)
	}
	if v := metricValue(t, newBody, "replicadb_certifier_leading"); v != 1 {
		t.Errorf("new leader's leading gauge = %v, want 1", v)
	}

	var redirects float64
	for i, srv := range servers {
		if i == lead {
			continue
		}
		body := httpGet(t, "http://"+srv.MetricsAddr()+"/metrics")
		redirects += metricValue(t, body, "replicadb_not_leader_redirects")
		// The unknown-outcome counter is always exposed (and only ever
		// counts commits that failed without a verdict).
		if v := metricValue(t, body, "replicadb_commit_unknown_outcomes"); v < 0 {
			t.Errorf("server %d unknown outcomes = %v", i, v)
		}
	}
	if redirects <= 0 {
		t.Errorf("no NotLeader redirects counted across the election gap")
	}

	// Post-election the new leader's histograms keep recording: a
	// fresh drive must grow its certify stage count.
	before := stageCount(t, newBody, "certify")
	res3 := repl.Drive(cl2, cat, mix, 2, 10, factor, 3)
	if res3.Errors != 0 {
		t.Fatalf("post-failover drive errors: %+v", res3)
	}
	after := stageCount(t, httpGet(t, "http://"+servers[newLead].MetricsAddr()+"/metrics"), "certify")
	if after <= before {
		t.Errorf("new leader certify stage count did not grow: %v -> %v", before, after)
	}
	if n := stageCount(t, httpGet(t, "http://"+servers[newLead].MetricsAddr()+"/metrics"), "paxos"); n <= 0 {
		t.Errorf("new leader paxos stage count = %v, want > 0 after re-election", n)
	}
}
