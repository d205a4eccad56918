package server_test

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/launch"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/internal/workload"
)

// startCluster brings up n replica servers of the given design on
// loopback ports and returns them with a pooled client over all of
// them. tweak edits the launch template once, before launch.Start
// derives every replica from it, so it cannot single out one replica.
// Cleanup tears everything down.
func startCluster(t *testing.T, design string, n int, tweak func(*server.Options)) ([]*server.Server, *client.Client) {
	t.Helper()
	c := launchCluster(t, 1, n, server.Options{Design: design}, tweak)
	return c.Servers[0], c.Clients[0]
}

// launchCluster applies tweak to the template tmpl, starts groups x n
// servers derived from it and registers their teardown.
func launchCluster(t *testing.T, groups, n int, tmpl server.Options, tweak func(*server.Options)) *launch.Cluster {
	t.Helper()
	if tweak != nil {
		tweak(&tmpl)
	}
	c, err := launch.Start(groups, n, tmpl)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// driveAndCheck loads the catalog, drives a workload through the
// pooled client, and verifies convergence across all replicas.
func driveAndCheck(t *testing.T, cl *client.Client, clients, txns int) repl.DriveResult {
	t.Helper()
	mix := workload.TPCWShopping()
	cat, err := workload.CatalogFor(mix)
	if err != nil {
		t.Fatal(err)
	}
	const factor = 1000
	if err := repl.LoadCatalog(cl, cat, factor); err != nil {
		t.Fatalf("load: %v", err)
	}
	res := repl.Drive(cl, cat, mix, clients, txns, factor, 1)
	if res.Errors != 0 {
		t.Fatalf("drive errors: %+v", res)
	}
	if res.Commits != int64(clients*txns) {
		t.Fatalf("commits = %d, want %d", res.Commits, clients*txns)
	}
	tables := make([]string, 0, len(cat.Tables))
	for name := range cat.Tables {
		tables = append(tables, name)
	}
	if err := repl.CheckConvergence(cl, tables); err != nil {
		t.Fatalf("convergence: %v", err)
	}
	return res
}

// TestLoopbackMM is the acceptance-path integration test: three
// multi-master replica servers over real TCP in one process, a pooled
// client driving a TPC-W mix, and all replicas converging.
func TestLoopbackMM(t *testing.T) {
	_, cl := startCluster(t, "mm", 3, nil)
	res := driveAndCheck(t, cl, 4, 25)
	if res.UpdateCommits == 0 || res.ReadCommits == 0 {
		t.Fatalf("expected both classes to commit: %+v", res)
	}
	if res.ReadLatency.Count() != res.ReadCommits {
		t.Fatalf("read latency count %d != read commits %d", res.ReadLatency.Count(), res.ReadCommits)
	}
	if res.UpdateLatency.Count() != res.UpdateCommits {
		t.Fatalf("update latency count %d != update commits %d", res.UpdateLatency.Count(), res.UpdateCommits)
	}
	if res.UpdateLatency.Quantile(0.99) <= 0 {
		t.Fatal("latency histogram empty")
	}
}

// TestLoopbackMMGroupCommit runs the same cluster with group commit
// batching on the certifier host, and the single-master cluster with
// group commit on its master.
func TestLoopbackMMGroupCommit(t *testing.T) {
	for _, design := range []string{"mm", "sm"} {
		t.Run(design, func(t *testing.T) {
			_, cl := startCluster(t, design, 3, func(o *server.Options) { o.GroupCommit = true })
			driveAndCheck(t, cl, 6, 20)
		})
	}
}

// TestLoopbackMMEagerCert runs the cluster with eager certification:
// a Write can come back aborted before Commit, and the driver's retry
// loop must still converge every replica. Under sm the master probes
// its own certifier.
func TestLoopbackMMEagerCert(t *testing.T) {
	for _, design := range []string{"mm", "sm"} {
		t.Run(design, func(t *testing.T) {
			_, cl := startCluster(t, design, 3, func(o *server.Options) { o.EagerCert = true })
			driveAndCheck(t, cl, 4, 25)
		})
	}
}

// TestConflictAbortsTyped pins the abort semantics over the wire: a
// write-write conflict with a commit newer than the transaction's
// snapshot, caught at commit certification, comes back as a typed,
// retryable *repl.AbortedError carrying the conflicting version.
func TestConflictAbortsTyped(t *testing.T) {
	_, cl := startCluster(t, "mm", 2, nil)
	if err := cl.CreateTable("item"); err != nil {
		t.Fatal(err)
	}
	tx1, err := cl.BeginUpdate()
	if err != nil {
		t.Fatal(err)
	}
	tx2, err := cl.BeginUpdate()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx1.Write("item", 1, "first"); err != nil {
		t.Fatal(err)
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	// tx2 snapshotted before tx1 committed, so writing the same row
	// must lose certification.
	if err := tx2.Write("item", 1, "second"); err != nil {
		t.Fatalf("write without eager certification failed: %v", err)
	}
	err = tx2.Commit()
	var ab *repl.AbortedError
	if !errors.As(err, &ab) || !errors.Is(err, repl.ErrAborted) {
		t.Fatalf("conflicting commit = %T %v, want *repl.AbortedError", err, err)
	}
	if ab.ConflictWith <= 0 {
		t.Fatalf("abort carries no conflicting version: %+v", ab)
	}
}

// TestLoopbackSM runs the single-master design: updates pinned to the
// master over TCP, slaves fed through the propagation link.
func TestLoopbackSM(t *testing.T) {
	_, cl := startCluster(t, "sm", 3, nil)
	driveAndCheck(t, cl, 4, 25)
}

// TestClientReconnect kills one replica under a live pooled client and
// requires traffic to continue through the survivors, then checks the
// pool re-dials rather than reusing dead connections.
func TestClientReconnect(t *testing.T) {
	servers, cl := startCluster(t, "mm", 3, nil)
	mix := workload.TPCWShopping()
	cat, err := workload.CatalogFor(mix)
	if err != nil {
		t.Fatal(err)
	}
	const factor = 1000
	if err := repl.LoadCatalog(cl, cat, factor); err != nil {
		t.Fatal(err)
	}
	// Phase 1: all three replicas alive.
	res := repl.Drive(cl, cat, mix, 4, 10, factor, 1)
	if res.Errors != 0 {
		t.Fatalf("phase 1 errors: %+v", res)
	}
	// Kill replica 2 (not the certifier host). Pooled connections to
	// it are now stale; the client must discover that and route
	// around.
	if err := servers[2].Close(); err != nil {
		t.Fatalf("close replica 2: %v", err)
	}
	res = repl.Drive(cl, cat, mix, 4, 10, factor, 2)
	if res.Errors != 0 {
		t.Fatalf("phase 2 errors after killing replica 2: %+v", res)
	}
	if res.Commits != 40 {
		t.Fatalf("phase 2 commits = %d, want 40", res.Commits)
	}
	// Convergence across the survivors.
	cl.Sync()
	for _, table := range []string{"item", "customer"} {
		ref, err := cl.TableDump(0, table)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cl.TableDump(1, table)
		if err != nil {
			t.Fatal(err)
		}
		if len(ref) != len(got) {
			t.Fatalf("table %q: replica 0 has %d rows, replica 1 has %d", table, len(ref), len(got))
		}
		for k, v := range ref {
			if got[k] != v {
				t.Fatalf("table %q row %d diverged: %q vs %q", table, k, got[k], v)
			}
		}
	}
	// The dead replica must fail loudly when addressed directly.
	if _, err := cl.TableDump(2, "item"); err == nil {
		t.Fatal("dump from killed replica unexpectedly succeeded")
	}
}

// TestSlaveRejectsUpdates pins the sm proxy rule: a slave refuses
// update transactions at begin rather than failing later. The client
// is (mis)configured with only the slave's address, so its "master"
// routing lands on the slave.
func TestSlaveRejectsUpdates(t *testing.T) {
	servers, _ := startCluster(t, "sm", 2, nil)
	slave, err := client.New(client.Options{
		Servers: []string{servers[1].Addr()},
		Design:  "sm",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer slave.Close()
	if _, err := slave.BeginUpdate(); err == nil || !strings.Contains(err.Error(), "master") {
		t.Fatalf("slave accepted an update transaction (err=%v)", err)
	}
}

// TestDesignMismatchRejected pins the handshake check: a client
// configured for one design fails loudly at connect time when pointed
// at a cluster of the other design.
func TestDesignMismatchRejected(t *testing.T) {
	servers, _ := startCluster(t, "sm", 1, nil)
	wrong, err := client.New(client.Options{
		Servers: []string{servers[0].Addr()},
		Design:  "mm",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer wrong.Close()
	if _, err := wrong.BeginRead(); err == nil || !strings.Contains(err.Error(), "design") {
		t.Fatalf("design mismatch not reported at connect time (err=%v)", err)
	}
}

// TestMetricsEndpoint checks the /metrics listener carries the
// operational counters.
func TestMetricsEndpoint(t *testing.T) {
	servers, cl := startCluster(t, "mm", 2, func(o *server.Options) {
		o.MetricsAddr = "127.0.0.1:0"
	})
	driveAndCheck(t, cl, 2, 10)

	for i, srv := range servers {
		addr := srv.MetricsAddr()
		if addr == "" {
			t.Fatalf("server %d has no metrics listener", i)
		}
		body := httpGet(t, "http://"+addr+"/metrics")
		for _, want := range []string{
			"replicadb_commits", "replicadb_aborts", "replicadb_active_connections",
			"replicadb_writeset_queue_depth", "replicadb_cert_latency_seconds",
			"replicadb_applied_versions_total",
			"replicadb_apply_queue_depth", "replicadb_apply_lag",
			"replicadb_applied_versions_per_sec", "replicadb_sidb_row_versions",
		} {
			if !strings.Contains(body, want) {
				t.Fatalf("server %d metrics missing %q:\n%s", i, want, body)
			}
		}
	}
}

// TestStatsExposeApplyPipeline: the wire Stats reply carries the apply
// stage's cumulative applied counter (and current lag) so pollers —
// the elastic profiler, bench -watch — can difference successive
// samples into applied-versions/sec the same way they difference
// commit counts.
func TestStatsExposeApplyPipeline(t *testing.T) {
	servers, cl := startCluster(t, "mm", 2, nil)
	driveAndCheck(t, cl, 2, 10)

	// The convergence check synced every replica, so the non-primary's
	// apply stage has installed every update through the pipeline.
	link := client.NewLink(servers[1].Addr(), "mm", -1, time.Second)
	defer link.Close()
	st, err := link.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.AppliedTotal <= 0 {
		t.Fatalf("replica 1 AppliedTotal = %d, want > 0 (updates were propagated): %+v", st.AppliedTotal, st)
	}
	if st.AppliedTotal != st.Applied {
		// A fresh node with no loads: the cumulative counter equals the
		// cursor exactly (every applied version went through the stage).
		t.Fatalf("AppliedTotal %d != Applied %d", st.AppliedTotal, st.Applied)
	}
	if st.ApplyLag < 0 {
		t.Fatalf("negative apply lag %d", st.ApplyLag)
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestGracefulShutdown closes a server with open client connections
// and an in-flight transaction; Close must not hang and the client
// must see clean errors.
func TestGracefulShutdown(t *testing.T) {
	servers, cl := startCluster(t, "mm", 1, nil)
	mix := workload.TPCWShopping()
	cat, err := workload.CatalogFor(mix)
	if err != nil {
		t.Fatal(err)
	}
	if err := repl.LoadCatalog(cl, cat, 1000); err != nil {
		t.Fatal(err)
	}
	tx, err := cl.BeginUpdate()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Write("item", 1, "dangling"); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- servers[0].Close() }()
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, net.ErrClosed) {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung with an open transaction")
	}
	if err := tx.Commit(); err == nil {
		t.Fatal("commit against a closed server succeeded")
	}
}

// TestBoundedAccept verifies the accept loop enforces MaxConns: the
// N+1th concurrent connection waits instead of being served.
func TestBoundedAccept(t *testing.T) {
	servers, _ := startCluster(t, "mm", 1, func(o *server.Options) {
		o.MaxConns = 2
	})
	addr := servers[0].Addr()
	open := func() (*client.Client, repl.Txn) {
		c, err := client.New(client.Options{Servers: []string{addr}, Design: "mm", PoolSize: 1})
		if err != nil {
			t.Fatal(err)
		}
		tx, err := c.BeginRead()
		if err != nil {
			t.Fatal(err)
		}
		return c, tx
	}
	c1, tx1 := open()
	defer c1.Close()
	c2, tx2 := open()
	defer c2.Close()

	// Third connection: the dial succeeds (kernel backlog) but the
	// handshake cannot complete until a slot frees.
	c3 := make(chan error, 1)
	go func() {
		c, err := client.New(client.Options{
			Servers: []string{addr}, Design: "mm", DialTimeout: 2 * time.Second,
		})
		if err != nil {
			c3 <- err
			return
		}
		defer c.Close()
		tx, err := c.BeginRead()
		if err == nil {
			tx.Abort()
		}
		c3 <- err
	}()
	select {
	case err := <-c3:
		t.Fatalf("third connection served beyond MaxConns (err=%v)", err)
	case <-time.After(300 * time.Millisecond):
		// Expected: still blocked.
	}
	tx1.Abort()
	tx2.Abort()
	c1.Close()
	c2.Close()
	select {
	case err := <-c3:
		if err != nil {
			t.Fatalf("third connection failed after slots freed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("third connection never served after slots freed")
	}
}

// TestWireLevelValidation drives the server with raw protocol misuse.
func TestWireLevelValidation(t *testing.T) {
	servers, _ := startCluster(t, "mm", 1, nil)
	nc, err := net.Dial("tcp", servers[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	// Skipping the handshake: first frame must be Hello.
	// Build a Begin frame by hand: length 3, type TBegin, readonly=1,
	// trace=0.
	if _, err := nc.Write([]byte{0, 0, 0, 3, 4 /*TBegin*/, 1, 0}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, err := nc.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n < 5 || buf[4] != 1 /*TErr*/ {
		t.Fatalf("expected Err frame, got % x", buf[:n])
	}
}

// TestHelloRejectsOtherProtocolVersion pins the handshake rule: a
// Hello announcing any version but wire.ProtoVersion gets a structured
// Err{CodeBadRequest}, then the server closes the connection.
func TestHelloRejectsOtherProtocolVersion(t *testing.T) {
	servers, _ := startCluster(t, "mm", 1, nil)
	for _, proto := range []uint32{wire.ProtoVersion - 1, wire.ProtoVersion + 1} {
		nc, err := net.Dial("tcp", servers[0].Addr())
		if err != nil {
			t.Fatal(err)
		}
		_ = nc.SetDeadline(time.Now().Add(2 * time.Second)) // a hang fails the test, not the suite
		wc := wire.NewConn(nc)
		if err := wc.Send(&wire.Hello{Proto: proto, PeerID: -1}); err != nil {
			t.Fatal(err)
		}
		reply, err := wc.Recv()
		if err != nil {
			t.Fatalf("proto %d: connection dropped instead of structured error: %v", proto, err)
		}
		if e, ok := reply.(*wire.Err); !ok || e.Code != wire.CodeBadRequest {
			t.Fatalf("proto %d: reply = %+v, want Err{CodeBadRequest}", proto, reply)
		}
		if _, err := wc.Recv(); !errors.Is(err, io.EOF) {
			t.Fatalf("proto %d: after the refusal: err = %v, want EOF", proto, err)
		}
		nc.Close()
	}
}

// TestNonHostAnswersAlikeInBothDesigns pins that the design shapes
// nothing but the update site: an sm slave and an mm replica that does
// not host the certifier answer each host-only verb (certification,
// 2PC, elastic membership, snapshots, the Paxos acceptor) with the
// same reply — Err{CodeUnsupported}, as neither runs Paxos — and both
// connections stay usable.
func TestNonHostAnswersAlikeInBothDesigns(t *testing.T) {
	smNodes, _ := startCluster(t, "sm", 2, nil)
	mmNodes, _ := startCluster(t, "mm", 2, nil)
	slave, nonHost := dialWire(t, smNodes[1].Addr()), dialWire(t, mmNodes[1].Addr())
	verbs := []wire.Message{
		&wire.Certify{Snapshot: 1},
		&wire.Check{Snapshot: 1},
		&wire.PrepareTxn{TxnID: "x", Snapshot: 1},
		&wire.DecideTxn{TxnID: "x", Commit: true},
		&wire.ResolveTxn{TxnID: "x"},
		&wire.ForgetTxn{TxnID: "x"},
		&wire.Join{Addr: "127.0.0.1:1"},
		&wire.Leave{ID: 1},
		&wire.Members{},
		&wire.SnapshotReq{},
		&wire.PaxosPrepare{Round: 1},
		&wire.PaxosAccept{Round: 1, Value: "v"},
		&wire.PaxosLearn{},
	}
	for _, verb := range append(verbs, &wire.Sync{}) {
		sm, err := call(slave, verb)
		if err != nil {
			t.Fatalf("sm slave: %T: %v", verb, err)
		}
		mm, err := call(nonHost, verb)
		if err != nil {
			t.Fatalf("mm non-host: %T: %v", verb, err)
		}
		if _, isSync := verb.(*wire.Sync); isSync {
			if _, ok := sm.(*wire.SyncOK); !ok {
				t.Fatalf("sm slave connection unusable after the verbs: Sync answered %+v", sm)
			}
			if _, ok := mm.(*wire.SyncOK); !ok {
				t.Fatalf("mm non-host connection unusable after the verbs: Sync answered %+v", mm)
			}
			continue
		}
		if !reflect.DeepEqual(sm, mm) {
			t.Errorf("%T: sm slave answered %+v, mm non-host %+v", verb, sm, mm)
		}
		if e, ok := sm.(*wire.Err); !ok || e.Code != wire.CodeUnsupported {
			t.Errorf("%T answered %+v, want Err{CodeUnsupported}", verb, sm)
		}
	}
}

// TestSMSlaveRefusesUpdateFrames pins the single-master update site on
// the wire: an update Begin, a CreateTable and a Load sent straight to
// a slave each answer Err{CodeUnsupported} there, none reaches the
// master, and the master's version does not move.
func TestSMSlaveRefusesUpdateFrames(t *testing.T) {
	servers, cl := startCluster(t, "sm", 2, nil)
	if err := cl.CreateTable("item"); err != nil {
		t.Fatal(err)
	}
	master := dialWire(t, servers[0].Addr())
	applied := func() int64 {
		t.Helper()
		reply, err := call(master, &wire.Sync{})
		if err != nil {
			t.Fatal(err)
		}
		ok, isOK := reply.(*wire.SyncOK)
		if !isOK {
			t.Fatalf("master Sync answered %+v", reply)
		}
		return ok.Applied
	}
	before := applied()
	slave := dialWire(t, servers[1].Addr())
	for _, req := range []wire.Message{
		&wire.Begin{ReadOnly: false},
		&wire.CreateTable{Name: "other"},
		&wire.Load{Table: "item", Rows: []int64{0}, Values: []string{"x"}},
	} {
		reply, err := call(slave, req)
		if err != nil {
			t.Fatalf("%T: %v", req, err)
		}
		if e, ok := reply.(*wire.Err); !ok || e.Code != wire.CodeUnsupported {
			t.Fatalf("slave answered %T with %+v, want Err{CodeUnsupported}", req, reply)
		}
	}
	if after := applied(); after != before {
		t.Fatalf("master version moved from %d to %d on refused slave updates", before, after)
	}
}

// TestCertLogGC verifies the certifier host — the single-master
// master included — prunes its retained writeset log once every peer's
// propagation cursor has moved past them (minus the safety lag), so a
// long-running serve process does not grow without bound.
func TestCertLogGC(t *testing.T) {
	for _, design := range []string{"mm", "sm"} {
		t.Run(design, func(t *testing.T) { certLogGC(t, design) })
	}
}

func certLogGC(t *testing.T, design string) {
	servers, cl := startCluster(t, design, 3, func(o *server.Options) {
		o.GCLag = 4
		o.MetricsAddr = "127.0.0.1:0"
	})
	mix := workload.TPCWShopping()
	cat, err := workload.CatalogFor(mix)
	if err != nil {
		t.Fatal(err)
	}
	if err := repl.LoadCatalog(cl, cat, 1000); err != nil {
		t.Fatal(err)
	}
	res := repl.Drive(cl, cat, mix, 4, 40, 1000, 1)
	if res.Errors != 0 {
		t.Fatalf("drive errors: %+v", res)
	}
	if res.UpdateCommits < 10 {
		t.Fatalf("too few update commits (%d) to exercise GC", res.UpdateCommits)
	}
	// The pullers poll every <=250ms, carrying their applied cursors;
	// within a few rounds the host must have pruned down to ~GCLag.
	deadline := time.Now().Add(10 * time.Second)
	for {
		body := httpGet(t, "http://"+servers[0].MetricsAddr()+"/metrics")
		retained := int64(-1)
		for _, line := range strings.Split(body, "\n") {
			if n, err := fmt.Sscanf(line, "replicadb_retained_writesets %d", &retained); n == 1 && err == nil {
				break
			}
		}
		if retained >= 0 && retained <= 8 {
			return // pruned to within the lag
		}
		if time.Now().After(deadline) {
			t.Fatalf("certification log never pruned: retained=%d of %d commits", retained, res.UpdateCommits)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// TestCatchUpLongPolls is the busy-poll regression test: a caught-up
// consumer running SinceInto in a tight loop, as commit-path catch-up
// does, must park on the server's long-poll window, not spin wait=0
// round trips. Counted through the leader link's RPC counter at steady
// state.
func TestCatchUpLongPolls(t *testing.T) {
	servers, cl := startCluster(t, "mm", 2, nil)
	mix := workload.TPCWShopping()
	cat, err := workload.CatalogFor(mix)
	if err != nil {
		t.Fatal(err)
	}
	if err := repl.LoadCatalog(cl, cat, 1000); err != nil {
		t.Fatal(err)
	}
	if res := repl.Drive(cl, cat, mix, 2, 5, 1000, 1); res.Errors != 0 {
		t.Fatalf("drive errors: %+v", res)
	}

	r := client.NewLeaderRing([]string{servers[0].Addr()}, "mm", -1, 2*time.Second)
	defer r.Close()
	const wait = 100 * time.Millisecond
	r.SetSinceWait(wait)
	l, err := r.Leader()
	if err != nil {
		t.Fatal(err)
	}
	st, err := l.Stats()
	if err != nil {
		t.Fatal(err)
	}
	base := l.RoundTrips() // handshake-time RPCs plus the Stats call
	deadline := time.Now().Add(5 * wait)
	for time.Now().Before(deadline) {
		if recs := r.SinceInto(nil, st.Applied); len(recs) != 0 {
			t.Fatalf("unexpected new records at steady state: %d", len(recs))
		}
	}
	rpcs := l.RoundTrips() - base
	// Each steady-state fetch parks ~wait on the server, so ~5 fit in
	// the window; a busy-polling regression would issue hundreds.
	if rpcs > 20 {
		t.Fatalf("steady-state catch-up issued %d round trips in %v; long poll is not engaging", rpcs, 5*wait)
	}
	if rpcs == 0 {
		t.Fatal("no fetches counted; the regression test is not exercising the loop")
	}
}
