// Package mm_test checks the multi-master design of §5.1 (Tashkent
// style) end to end: every replica executes read-only and update
// transactions against its local snapshot-isolated database, the
// certifier detects system-wide write-write conflicts and assigns
// global versions, and committed writesets are applied at every replica
// in commit order. The design is implemented by the replica server's
// engine (internal/server); these tests run it the way it
// is deployed — real replica servers on loopback (internal/launch)
// driven through the pooled client.
package mm_test

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/launch"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/workload"
)

// newCluster boots n mm replica servers with tweak applied to the
// template and returns the cluster and its pooled client.
func newCluster(t *testing.T, n int, tweak ...func(*server.Options)) (*launch.Cluster, *client.Client) {
	t.Helper()
	tmpl := server.Options{Design: "mm"}
	for _, f := range tweak {
		f(&tmpl)
	}
	c, err := launch.Start(1, n, tmpl)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, c.Clients[0]
}

func seedTable(t *testing.T, cl *client.Client, table string, rows int) {
	t.Helper()
	if err := cl.CreateTable(table); err != nil {
		t.Fatal(err)
	}
	if err := cl.Load(table, rows, func(i int64) string { return fmt.Sprintf("init-%d", i) }); err != nil {
		t.Fatal(err)
	}
}

// begin opens an update transaction or fails the test.
func begin(t *testing.T, sys repl.System) repl.Txn {
	t.Helper()
	tx, err := sys.BeginUpdate()
	if err != nil {
		t.Fatal(err)
	}
	return tx
}

// hostVersion is the certifier's version once every replica applied
// everything: the host's applied version after a cluster-wide sync.
func hostVersion(t *testing.T, c *launch.Cluster) int64 {
	t.Helper()
	c.Clients[0].Sync()
	stats, err := c.Stats(0)
	if err != nil {
		t.Fatal(err)
	}
	return stats[0].Applied
}

// aborts sums the certification aborts every replica reported.
func aborts(t *testing.T, c *launch.Cluster) int64 {
	t.Helper()
	stats, err := c.Stats(0)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, st := range stats {
		n += st.Aborts
	}
	return n
}

func TestReadSeesLoadedData(t *testing.T) {
	_, cl := newCluster(t, 3)
	seedTable(t, cl, "item", 100)
	for i := 0; i < 6; i++ { // rotate across replicas
		tx, err := cl.BeginRead()
		if err != nil {
			t.Fatal(err)
		}
		v, ok, err := tx.Read("item", 42)
		if err != nil || !ok || v != "init-42" {
			t.Fatalf("read = %q %v %v", v, ok, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestUpdatePropagatesToAllReplicas(t *testing.T) {
	_, cl := newCluster(t, 4)
	seedTable(t, cl, "item", 10)
	tx := begin(t, cl)
	if err := tx.Write("item", 5, "updated"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	cl.Sync()
	for r := 0; r < 4; r++ {
		dump, err := cl.TableDump(r, "item")
		if err != nil {
			t.Fatal(err)
		}
		if dump[5] != "updated" {
			t.Fatalf("replica %d: row 5 = %q", r, dump[5])
		}
	}
}

func TestConflictingUpdatesOneWins(t *testing.T) {
	c, cl := newCluster(t, 2)
	seedTable(t, cl, "item", 10)
	seeded := hostVersion(t, c) // schema and load records
	a, b := begin(t, cl), begin(t, cl)
	a.Write("item", 1, "from-a")
	b.Write("item", 1, "from-b")
	errA := a.Commit()
	errB := b.Commit()
	if (errA == nil) == (errB == nil) {
		t.Fatalf("exactly one should win: a=%v b=%v", errA, errB)
	}
	loser := errA
	if errA == nil {
		loser = errB
	}
	if !errors.Is(loser, repl.ErrAborted) {
		t.Fatalf("loser error = %v", loser)
	}
	if v := hostVersion(t, c); v-seeded != 1 {
		t.Fatalf("certifier advanced %d versions, want 1", v-seeded)
	}
	if n := aborts(t, c); n != 1 {
		t.Fatalf("replicas report %d aborts, want 1", n)
	}
}

func TestDisjointUpdatesBothCommit(t *testing.T) {
	_, cl := newCluster(t, 2)
	seedTable(t, cl, "item", 10)
	a, b := begin(t, cl), begin(t, cl)
	a.Write("item", 1, "a")
	b.Write("item", 2, "b")
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestReadOnlyNeverAborts(t *testing.T) {
	_, cl := newCluster(t, 2)
	seedTable(t, cl, "item", 10)
	ro, err := cl.BeginRead()
	if err != nil {
		t.Fatal(err)
	}
	ro.Read("item", 1)
	// Concurrent update commits.
	up := begin(t, cl)
	up.Write("item", 1, "x")
	if err := up.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := ro.Commit(); err != nil {
		t.Fatalf("read-only aborted: %v", err)
	}
}

func TestGSISnapshotIsReplicaLocal(t *testing.T) {
	// A transaction started before a commit reads the old value even
	// after the writeset lands on its replica.
	_, cl := newCluster(t, 2)
	seedTable(t, cl, "item", 10)
	ro, err := cl.BeginRead()
	if err != nil {
		t.Fatal(err)
	}

	up := begin(t, cl)
	up.Write("item", 3, "new")
	if err := up.Commit(); err != nil {
		t.Fatal(err)
	}
	cl.Sync()

	v, ok, err := ro.Read("item", 3)
	if err != nil || !ok || v != "init-3" {
		t.Fatalf("snapshot leaked: %q %v %v", v, ok, err)
	}
	ro.Commit()
}

func TestWriteOnReadOnlyTxnRejected(t *testing.T) {
	_, cl := newCluster(t, 2)
	seedTable(t, cl, "item", 10)
	ro, err := cl.BeginRead()
	if err != nil {
		t.Fatal(err)
	}
	if err := ro.Write("item", 1, "x"); !errors.Is(err, repl.ErrReadOnlyTxn) {
		t.Fatalf("write on read txn: %v", err)
	}
	ro.Abort()
}

func TestStaleReplicaConflictDetected(t *testing.T) {
	// Two transactions share a snapshot; one commits a row, and the
	// other — wherever it runs, its snapshot predates the commit —
	// writes the same row and must be aborted by the certifier.
	_, cl := newCluster(t, 2)
	seedTable(t, cl, "item", 10)
	txA, txB := begin(t, cl), begin(t, cl) // least-loaded: one per replica
	txA.Write("item", 7, "a")
	if err := txA.Commit(); err != nil {
		t.Fatal(err)
	}
	txB.Write("item", 7, "b")
	if err := txB.Commit(); !errors.Is(err, repl.ErrAborted) {
		t.Fatalf("stale conflicting write committed: %v", err)
	}
}

func TestEagerCertificationAbortsEarly(t *testing.T) {
	_, cl := newCluster(t, 2, func(o *server.Options) { o.EagerCert = true })
	seedTable(t, cl, "item", 10)
	txA, txB := begin(t, cl), begin(t, cl)
	txA.Write("item", 1, "a")
	if err := txA.Commit(); err != nil {
		t.Fatal(err)
	}
	// txB began before txA committed, so its snapshot is stale and the
	// partial writeset conflicts immediately at Write time.
	err := txB.Write("item", 1, "b")
	if !errors.Is(err, repl.ErrAborted) {
		t.Fatalf("eager certification missed conflict: %v", err)
	}
	txB.Abort()
}

func TestAbortDiscardsEverything(t *testing.T) {
	c, cl := newCluster(t, 2)
	seedTable(t, cl, "item", 10)
	seeded := hostVersion(t, c)
	tx := begin(t, cl)
	tx.Write("item", 1, "phantom")
	tx.Abort()
	cl.Sync()
	for r := 0; r < 2; r++ {
		dump, _ := cl.TableDump(r, "item")
		if dump[1] != "init-1" {
			t.Fatalf("aborted write visible on replica %d: %q", r, dump[1])
		}
	}
	if v := hostVersion(t, c); v != seeded {
		t.Fatalf("certifier advanced to %d", v)
	}
}

// catalogTables lists a catalog's tables for convergence checks.
func catalogTables(cat workload.Catalog) []string {
	tables := make([]string, 0, len(cat.Tables))
	for name := range cat.Tables {
		tables = append(tables, name)
	}
	return tables
}

func TestWorkloadConvergence(t *testing.T) {
	_, cl := newCluster(t, 3)
	cat := workload.TPCWCatalog()
	if err := repl.LoadCatalog(cl, cat, 1000); err != nil {
		t.Fatal(err)
	}
	mix := workload.TPCWShopping()
	res := repl.Drive(cl, cat, mix, 8, 40, 1000, 42)
	if res.Errors != 0 {
		t.Fatalf("driver errors: %+v", res)
	}
	if res.Commits != 8*40 {
		t.Fatalf("commits = %d", res.Commits)
	}
	if res.UpdateCommits == 0 {
		t.Fatal("no updates committed")
	}
	if err := repl.CheckConvergence(cl, catalogTables(cat)); err != nil {
		t.Fatal(err)
	}
}

func TestWorkloadWithReplicatedCertifier(t *testing.T) {
	c, cl := newCluster(t, 3, func(o *server.Options) { o.Paxos = true })
	cat := workload.RUBiSCatalog()
	if err := repl.LoadCatalog(cl, cat, 1000); err != nil {
		t.Fatal(err)
	}
	mix := workload.RUBiSBidding()
	res := repl.Drive(cl, cat, mix, 4, 25, 1000, 7)
	if res.Errors != 0 {
		t.Fatalf("driver errors: %+v", res)
	}
	if err := repl.CheckConvergence(cl, catalogTables(cat)); err != nil {
		t.Fatal(err)
	}
	// A backup failure mid-flight must not block commits: the other two
	// members still form a majority.
	for _, srv := range c.Servers[0] {
		if leading, _, _, _ := srv.Leader(); !leading {
			srv.Close()
			break
		}
	}
	tx := begin(t, cl)
	tx.Write("items", 1, "after-failure")
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit with one backup down: %v", err)
	}
}

func TestConcurrentMixedWorkloadNoLostUpdates(t *testing.T) {
	// All clients increment disjoint-ish counters with retry; total
	// committed increments must equal the final sum across rows.
	_, cl := newCluster(t, 3)
	seedTable(t, cl, "counter", 4)
	// Overwrite values to "0".
	for i := int64(0); i < 4; i++ {
		tx := begin(t, cl)
		tx.Write("counter", i, "0")
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	const workers = 6
	const perWorker = 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				row := int64((w + i) % 4)
				for {
					tx, err := cl.BeginUpdate()
					if err != nil {
						t.Error(err)
						return
					}
					v, _, err := tx.Read("counter", row)
					if err != nil {
						t.Error(err)
						return
					}
					var n int
					fmt.Sscanf(v, "%d", &n)
					if err := tx.Write("counter", row, fmt.Sprintf("%d", n+1)); err != nil {
						tx.Abort()
						continue
					}
					if err := tx.Commit(); err == nil {
						break
					} else if !errors.Is(err, repl.ErrAborted) {
						t.Errorf("unexpected: %v", err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	cl.Sync()
	total := 0
	dump, err := cl.TableDump(1, "counter")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range dump {
		var n int
		fmt.Sscanf(v, "%d", &n)
		total += n
	}
	if total != workers*perWorker {
		t.Fatalf("lost updates: sum=%d want %d", total, workers*perWorker)
	}
	if err := repl.CheckConvergence(cl, []string{"counter"}); err != nil {
		t.Fatal(err)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := launch.Start(1, 0, server.Options{Design: "mm"}); err == nil {
		t.Fatal("zero replicas accepted")
	}
}

func TestTableDumpBounds(t *testing.T) {
	_, cl := newCluster(t, 1)
	if _, err := cl.TableDump(5, "x"); err == nil {
		t.Fatal("out-of-range replica accepted")
	}
	if _, err := cl.TableDump(0, "missing"); err == nil {
		t.Fatal("missing table accepted")
	}
}

// retained reads the certifier host's retained-writeset gauge.
func retained(t *testing.T, srv *server.Server) int64 {
	t.Helper()
	resp, err := http.Get("http://" + srv.MetricsAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		var n int64
		if _, err := fmt.Sscanf(line, "replicadb_retained_writesets %d", &n); err == nil {
			return n
		}
	}
	t.Fatal("retained-writeset gauge missing")
	return 0
}

// waitPruned polls until the host retains at most max writesets.
func waitPruned(t *testing.T, srv *server.Server, max int64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(50 * time.Millisecond) {
		n := retained(t, srv)
		if n <= max {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("certification log never pruned: %d writesets retained", n)
		}
	}
}

// gcOptions prunes the certification log down to one version below the
// cluster-wide applied horizon and exposes the retained-log gauge.
func gcOptions(o *server.Options) {
	o.GCLag = 1
	o.MetricsAddr = "127.0.0.1:0"
}

func TestClusterGCPrunesAppliedLog(t *testing.T) {
	c, cl := newCluster(t, 3, gcOptions)
	seedTable(t, cl, "item", 20)
	for i := 0; i < 15; i++ {
		// Begin on a caught-up replica: once the host prunes, a snapshot
		// below the horizon aborts, and a lagging replica would hand out
		// one.
		cl.Sync()
		tx := begin(t, cl)
		tx.Write("item", int64(i), "v")
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	cl.Sync()
	// The replicas' propagation polls carry their applied cursors; once
	// everyone applied all 17 records the host prunes down to the lag.
	waitPruned(t, c.Servers[0][0], 1)
	// The system keeps working after pruning: new snapshots are at the
	// horizon, not below it.
	tx := begin(t, cl)
	tx.Write("item", 1, "post-gc")
	if err := tx.Commit(); err != nil {
		t.Fatalf("post-GC commit: %v", err)
	}
}

func TestClusterGCSafeWithLaggingReplica(t *testing.T) {
	// A stale transaction begun before GC must still certify correctly
	// even though the log below the horizon is gone.
	c, cl := newCluster(t, 2, gcOptions)
	seedTable(t, cl, "item", 10)
	stale := begin(t, cl)
	for i := 0; i < 5; i++ {
		up := begin(t, cl)
		up.Write("item", 3, fmt.Sprintf("x%d", i))
		if err := up.Commit(); err != nil {
			t.Fatal(err)
		}
		cl.Sync()
	}
	waitPruned(t, c.Servers[0][0], 1)
	stale.Write("item", 3, "conflict")
	if err := stale.Commit(); err == nil {
		t.Fatal("stale conflicting transaction committed after GC")
	}
}

func TestWorkloadWithGroupCommit(t *testing.T) {
	// The full driver workload through the batching certifier, on top
	// of a replicated Paxos group: decisions and convergence must be
	// indistinguishable from the sequential path.
	c, cl := newCluster(t, 3, func(o *server.Options) {
		o.Paxos = true
		o.GroupCommit = true
	})
	cat := workload.TPCWCatalog()
	if err := repl.LoadCatalog(cl, cat, 1000); err != nil {
		t.Fatal(err)
	}
	seeded := hostVersion(t, c)    // schema and load records
	mix := workload.TPCWOrdering() // update-heavy: maximizes batching
	res := repl.Drive(cl, cat, mix, 8, 30, 1000, 11)
	if res.Errors != 0 {
		t.Fatalf("driver errors: %+v", res)
	}
	if res.Commits+res.Unknown != 8*30 {
		t.Fatalf("commits+unknown = %d+%d", res.Commits, res.Unknown)
	}
	if res.UpdateCommits == 0 {
		t.Fatal("no updates committed")
	}
	if err := repl.CheckConvergence(cl, catalogTables(cat)); err != nil {
		t.Fatal(err)
	}
	// Every acknowledged update took exactly one version (an unknown
	// outcome may or may not have).
	if v := hostVersion(t, c) - seeded; v < res.UpdateCommits || v > res.UpdateCommits+res.Unknown {
		t.Fatalf("certifier advanced %d versions for %d update commits (%d unknown)", v, res.UpdateCommits, res.Unknown)
	}
}

func TestGroupCommitConflictsStillAbort(t *testing.T) {
	_, cl := newCluster(t, 2, func(o *server.Options) { o.GroupCommit = true })
	seedTable(t, cl, "item", 10)
	t1, t2 := begin(t, cl), begin(t, cl)
	if err := t1.Write("item", 3, "one"); err != nil {
		t.Fatal(err)
	}
	if err := t2.Write("item", 3, "two"); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); !errors.Is(err, repl.ErrAborted) {
		t.Fatalf("conflicting commit through group commit: %v", err)
	}
}

func TestAddReplicaClonesStateAndServes(t *testing.T) {
	c, cl := newCluster(t, 1)
	seedTable(t, cl, "item", 50)
	// Commit past the load so the snapshot carries certified state.
	tx := begin(t, cl)
	tx.Write("item", 7, "pre-join")
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// An elastic join: the primary admits the node and transfers a
	// consistent snapshot before the node serves.
	prim := c.Servers[0][0].Addr()
	joiner, err := server.New(server.Options{Design: "mm", Listen: "127.0.0.1:0", Join: true, Primary: prim})
	if err != nil {
		t.Fatal(err)
	}
	joiner.Start()
	t.Cleanup(func() { joiner.Close() })
	both, err := client.New(client.Options{Servers: []string{prim, joiner.Addr()}, Design: "mm"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(both.Close)
	dump, err := both.TableDump(1, "item")
	if err != nil {
		t.Fatal(err)
	}
	if dump[7] != "pre-join" || dump[3] != "init-3" {
		t.Fatalf("snapshot not cloned: %q %q", dump[7], dump[3])
	}

	// Commits after the join propagate to the new replica too.
	tx = begin(t, both)
	tx.Write("item", 8, "post-join")
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	both.Sync()
	if err := repl.CheckConvergence(both, []string{"item"}); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveReplicaStopsRoutingKeepsInFlight(t *testing.T) {
	c, cl := newCluster(t, 3)
	seedTable(t, cl, "item", 20)
	addrs := c.Addrs(0)
	// Hold a transaction on replica 1, then make it leave.
	on1, err := client.New(client.Options{Servers: addrs[1:2], Design: "mm"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(on1.Close)
	inFlight := begin(t, on1)
	left := make(chan error, 1)
	go func() { left <- c.Servers[0][1].Leave() }()
	// Wait until replica 1 refuses new transactions: it is draining, and
	// the drain now waits on inFlight.
	probe, err := client.New(client.Options{Servers: addrs[1:2], Design: "mm"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(probe.Close)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		tx, err := probe.BeginRead()
		if err != nil {
			break
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("departing replica never started draining")
		}
	}
	if err := c.Servers[0][0].Leave(); err == nil {
		t.Fatal("primary removal allowed")
	}
	// The in-flight transaction on the departing replica finishes.
	if err := inFlight.Write("item", 3, "from-removed"); err != nil {
		t.Fatal(err)
	}
	if err := inFlight.Commit(); err != nil {
		t.Fatalf("in-flight commit on removed replica: %v", err)
	}
	if err := <-left; err != nil {
		t.Fatalf("leave: %v", err)
	}
	// New transactions never run on the departed replica: it refuses
	// them and the client routes around it. Its read count is taken once
	// it has left, because the probe loop's own reads committed there
	// before the drain began.
	before, err := c.Stats(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		tx, err := cl.BeginRead()
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := c.Stats(0)
	if err != nil {
		t.Fatal(err)
	}
	if n := stats[1].ReadCommits - before[1].ReadCommits; n != 0 {
		t.Fatalf("departed replica served %d reads", n)
	}
	// Survivors converge, including the commit from the removed node.
	survivors, err := client.New(client.Options{Servers: []string{addrs[0], addrs[2]}, Design: "mm"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(survivors.Close)
	survivors.Sync()
	if err := repl.CheckConvergence(survivors, []string{"item"}); err != nil {
		t.Fatal(err)
	}
	if dump, _ := survivors.TableDump(0, "item"); dump[3] != "from-removed" {
		t.Fatalf("in-flight commit lost: %q", dump[3])
	}
}
