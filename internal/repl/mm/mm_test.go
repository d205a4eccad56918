package mm

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/repl"
	"repro/internal/workload"
)

func newCluster(t *testing.T, n int, opts ...func(*Options)) *Cluster {
	t.Helper()
	o := Options{Replicas: n, EagerCertification: false}
	for _, f := range opts {
		f(&o)
	}
	c, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func seedTable(t *testing.T, c *Cluster, table string, rows int) {
	t.Helper()
	if err := c.CreateTable(table); err != nil {
		t.Fatal(err)
	}
	if err := c.Load(table, rows, func(i int64) string { return fmt.Sprintf("init-%d", i) }); err != nil {
		t.Fatal(err)
	}
}

func TestReadSeesLoadedData(t *testing.T) {
	c := newCluster(t, 3)
	seedTable(t, c, "item", 100)
	for i := 0; i < 6; i++ { // rotate across replicas
		tx, err := c.BeginRead()
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
	c := newCluster(t, 4)
	seedTable(t, c, "item", 10)
	tx, _ := c.BeginUpdate()
	if err := tx.Write("item", 5, "updated"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	c.Sync()
	for r := 0; r < 4; r++ {
		dump, err := c.TableDump(r, "item")
		if err != nil {
			t.Fatal(err)
		}
		if dump[5] != "updated" {
			t.Fatalf("replica %d: row 5 = %q", r, dump[5])
		}
	}
}

func TestConflictingUpdatesOneWins(t *testing.T) {
	c := newCluster(t, 2)
	seedTable(t, c, "item", 10)
	seeded, _ := c.Certifier().Stats() // schema and load records
	a, _ := c.BeginUpdate()
	b, _ := c.BeginUpdate()
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
	commits, aborts := c.Certifier().Stats()
	if commits-seeded != 1 || aborts != 1 {
		t.Fatalf("certifier stats %d/%d", commits, aborts)
	}
}

func TestDisjointUpdatesBothCommit(t *testing.T) {
	c := newCluster(t, 2)
	seedTable(t, c, "item", 10)
	a, _ := c.BeginUpdate()
	b, _ := c.BeginUpdate()
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
	c := newCluster(t, 2)
	seedTable(t, c, "item", 10)
	ro, _ := c.BeginRead()
	ro.Read("item", 1)
	// Concurrent update commits.
	up, _ := c.BeginUpdate()
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
	// after the writeset lands.
	c := newCluster(t, 2)
	seedTable(t, c, "item", 10)
	ro, _ := c.BeginRead()

	up, _ := c.BeginUpdate()
	up.Write("item", 3, "new")
	if err := up.Commit(); err != nil {
		t.Fatal(err)
	}
	c.Sync()

	v, ok, err := ro.Read("item", 3)
	if err != nil || !ok || v != "init-3" {
		t.Fatalf("snapshot leaked: %q %v %v", v, ok, err)
	}
	ro.Commit()
}

func TestWriteOnReadOnlyTxnRejected(t *testing.T) {
	c := newCluster(t, 2)
	seedTable(t, c, "item", 10)
	ro, _ := c.BeginRead()
	if err := ro.Write("item", 1, "x"); !errors.Is(err, repl.ErrReadOnlyTxn) {
		t.Fatalf("write on read txn: %v", err)
	}
	ro.Abort()
}

func TestStaleReplicaConflictDetected(t *testing.T) {
	// Update committed via replica A; replica B hasn't applied it yet
	// when a transaction on B writes the same row -> certifier abort.
	c := newCluster(t, 2)
	seedTable(t, c, "item", 10)

	// Pin a transaction on replica 1 (least-loaded routing: first txn
	// goes to 0, second to 1).
	txA, _ := c.BeginUpdate() // replica 0
	txB, _ := c.BeginUpdate() // replica 1
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
	c := newCluster(t, 2, func(o *Options) { o.EagerCertification = true })
	seedTable(t, c, "item", 10)
	txA, _ := c.BeginUpdate()
	txB, _ := c.BeginUpdate()
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
	c := newCluster(t, 2)
	seedTable(t, c, "item", 10)
	seeded := c.Certifier().Version()
	tx, _ := c.BeginUpdate()
	tx.Write("item", 1, "phantom")
	tx.Abort()
	c.Sync()
	for r := 0; r < 2; r++ {
		dump, _ := c.TableDump(r, "item")
		if dump[1] != "init-1" {
			t.Fatalf("aborted write visible on replica %d: %q", r, dump[1])
		}
	}
	if v := c.Certifier().Version(); v != seeded {
		t.Fatalf("certifier advanced to %d", v)
	}
}

func TestWorkloadConvergence(t *testing.T) {
	c := newCluster(t, 3)
	cat := workload.TPCWCatalog()
	if err := repl.LoadCatalog(c, cat, 1000); err != nil {
		t.Fatal(err)
	}
	mix := workload.TPCWShopping()
	res := repl.Drive(c, cat, mix, 8, 40, 1000, 42)
	if res.Errors != 0 {
		t.Fatalf("driver errors: %+v", res)
	}
	if res.Commits != 8*40 {
		t.Fatalf("commits = %d", res.Commits)
	}
	if res.UpdateCommits == 0 {
		t.Fatal("no updates committed")
	}
	if err := repl.CheckConvergence(c, c.db0Tables()); err != nil {
		t.Fatal(err)
	}
}

// db0Tables lists replica 0's tables for convergence checks.
func (c *Cluster) db0Tables() []string {
	return c.slot(0).db.Tables()
}

func TestWorkloadWithReplicatedCertifier(t *testing.T) {
	c := newCluster(t, 2, func(o *Options) { o.ReplicatedCertifier = true })
	cat := workload.RUBiSCatalog()
	if err := repl.LoadCatalog(c, cat, 1000); err != nil {
		t.Fatal(err)
	}
	mix := workload.RUBiSBidding()
	res := repl.Drive(c, cat, mix, 4, 25, 1000, 7)
	if res.Errors != 0 {
		t.Fatalf("driver errors: %+v", res)
	}
	if err := repl.CheckConvergence(c, c.db0Tables()); err != nil {
		t.Fatal(err)
	}
	// A backup failure mid-flight must not block commits.
	c.Transport().SetDown(2, true)
	tx, _ := c.BeginUpdate()
	tx.Write("items", 1, "after-failure")
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit with one backup down: %v", err)
	}
}

func TestConcurrentMixedWorkloadNoLostUpdates(t *testing.T) {
	// All clients increment disjoint-ish counters with retry; total
	// committed increments must equal the final sum across rows.
	c := newCluster(t, 3)
	seedTable(t, c, "counter", 4)
	// Overwrite values to "0".
	for i := int64(0); i < 4; i++ {
		tx, _ := c.BeginUpdate()
		tx.Write("counter", i, "0")
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	const workers = 6
	const perWorker = 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				row := int64((w + i) % 4)
				for {
					tx, _ := c.BeginUpdate()
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
	c.Sync()
	total := 0
	dump, err := c.TableDump(1, "counter")
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
	if err := repl.CheckConvergence(c, []string{"counter"}); err != nil {
		t.Fatal(err)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{Replicas: 0}); err == nil {
		t.Fatal("zero replicas accepted")
	}
}

func TestTableDumpBounds(t *testing.T) {
	c := newCluster(t, 1)
	if _, err := c.TableDump(5, "x"); err == nil {
		t.Fatal("out-of-range replica accepted")
	}
	if _, err := c.TableDump(0, "missing"); err == nil {
		t.Fatal("missing table accepted")
	}
}

func TestClusterGCPrunesAppliedLog(t *testing.T) {
	c := newCluster(t, 3)
	seedTable(t, c, "item", 20)
	c.GC() // prune the schema and load records first
	for i := 0; i < 15; i++ {
		tx, _ := c.BeginUpdate()
		tx.Write("item", int64(i), "v")
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	c.Sync()
	removed := c.GC()
	if removed != 15 {
		t.Fatalf("GC removed %d records, want 15", removed)
	}
	if c.Certifier().LogLen() != 0 {
		t.Fatalf("log length %d after full GC", c.Certifier().LogLen())
	}
	// The system keeps working after pruning: new snapshots are at the
	// horizon, not below it.
	tx, _ := c.BeginUpdate()
	tx.Write("item", 1, "post-gc")
	if err := tx.Commit(); err != nil {
		t.Fatalf("post-GC commit: %v", err)
	}
}

func TestClusterGCSafeWithLaggingReplica(t *testing.T) {
	// Nothing may be pruned past the slowest replica, and a stale
	// transaction begun before GC must still certify correctly.
	c := newCluster(t, 2)
	seedTable(t, c, "item", 10)
	stale, _ := c.BeginUpdate() // snapshot 0 on replica 0
	up, _ := c.BeginUpdate()    // replica 1
	up.Write("item", 3, "x")
	if err := up.Commit(); err != nil {
		t.Fatal(err)
	}
	// All replicas applied version 1, but the stale transaction's
	// snapshot predates it; GC must keep certification sound for it.
	c.Sync()
	c.GC()
	stale.Write("item", 3, "conflict")
	err := stale.Commit()
	if err == nil {
		t.Fatal("stale conflicting transaction committed after GC")
	}
}

func TestWorkloadWithGroupCommit(t *testing.T) {
	// The full driver workload through the batching certifier, on top
	// of a replicated Paxos group: decisions and convergence must be
	// indistinguishable from the sequential path.
	c := newCluster(t, 3, func(o *Options) {
		o.ReplicatedCertifier = true
		o.GroupCommit = true
	})
	cat := workload.TPCWCatalog()
	if err := repl.LoadCatalog(c, cat, 1000); err != nil {
		t.Fatal(err)
	}
	seeded, _ := c.Certifier().Stats() // schema and load records
	mix := workload.TPCWOrdering()     // update-heavy: maximizes batching
	res := repl.Drive(c, cat, mix, 8, 30, 1000, 11)
	if res.Errors != 0 {
		t.Fatalf("driver errors: %+v", res)
	}
	if res.Commits != 8*30 {
		t.Fatalf("commits = %d", res.Commits)
	}
	if res.UpdateCommits == 0 {
		t.Fatal("no updates committed")
	}
	if err := repl.CheckConvergence(c, c.db0Tables()); err != nil {
		t.Fatal(err)
	}
	commits, _ := c.Certifier().Stats()
	if commits-seeded != res.UpdateCommits {
		t.Fatalf("certifier commits %d != driver update commits %d", commits-seeded, res.UpdateCommits)
	}
	// Group commit must never use more Paxos slots than commits.
	if slots := c.Certifier().ReplicationSlots(); int64(slots) > commits {
		t.Fatalf("%d slots for %d commits", slots, commits)
	}
}

func TestGroupCommitConflictsStillAbort(t *testing.T) {
	c := newCluster(t, 2, func(o *Options) { o.GroupCommit = true })
	seedTable(t, c, "item", 10)
	t1, _ := c.BeginUpdate()
	t2, _ := c.BeginUpdate()
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
	c := newCluster(t, 1)
	seedTable(t, c, "item", 50)
	// Commit past the load so the snapshot carries certified state.
	tx, _ := c.BeginUpdate()
	tx.Write("item", 7, "pre-join")
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	idx, err := c.AddReplica()
	if err != nil {
		t.Fatal(err)
	}
	if idx != 1 || c.Replicas() != 2 {
		t.Fatalf("idx = %d replicas = %d", idx, c.Replicas())
	}
	dump, err := c.TableDump(1, "item")
	if err != nil {
		t.Fatal(err)
	}
	if dump[7] != "pre-join" || dump[3] != "init-3" {
		t.Fatalf("snapshot not cloned: %q %q", dump[7], dump[3])
	}

	// Commits after the join propagate to the new replica too.
	tx, _ = c.BeginUpdate()
	tx.Write("item", 8, "post-join")
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	c.Sync()
	if err := repl.CheckConvergence(c, []string{"item"}); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveReplicaStopsRoutingKeepsInFlight(t *testing.T) {
	c := newCluster(t, 3)
	seedTable(t, c, "item", 20)
	// Hold a transaction on replica 1, then remove it.
	var onOne repl.Txn
	var held []repl.Txn
	for i := 0; i < 6 && onOne == nil; i++ {
		tx, _ := c.BeginUpdate()
		if tx.(*Txn).replica.id == 1 {
			onOne = tx
		} else {
			held = append(held, tx)
		}
	}
	if onOne == nil {
		t.Fatal("no transaction landed on replica 1")
	}
	for _, tx := range held {
		tx.Abort()
	}
	if err := c.RemoveReplica(1); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveReplica(0); err == nil {
		t.Fatal("primary removal allowed")
	}
	if err := c.RemoveReplica(1); err == nil {
		t.Fatal("double removal allowed")
	}
	if c.Replicas() != 2 {
		t.Fatalf("replicas = %d, want 2", c.Replicas())
	}
	// The in-flight transaction on the removed replica finishes.
	if err := onOne.Write("item", 3, "from-removed"); err != nil {
		t.Fatal(err)
	}
	if err := onOne.Commit(); err != nil {
		t.Fatalf("in-flight commit on removed replica: %v", err)
	}
	// New transactions never route to the removed slot.
	for i := 0; i < 12; i++ {
		tx, _ := c.BeginRead()
		if tx.(*Txn).replica.id == 1 {
			t.Fatal("routed to removed replica")
		}
		tx.Abort()
	}
	// Survivors converge, including the commit from the removed node,
	// and GC is not blocked by the departed replica.
	c.Sync()
	if err := repl.CheckConvergence(c, []string{"item"}); err != nil {
		t.Fatal(err)
	}
	if dump, _ := c.TableDump(0, "item"); dump[3] != "from-removed" {
		t.Fatalf("in-flight commit lost: %q", dump[3])
	}
	c.GC()
}
