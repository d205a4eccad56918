// The single-master design of §5.2 end to end: the master executes all
// updates, slaves are read-only caches that apply the master's
// writesets in commit order, and reads balance over every node. The
// design runs in the replica server's one engine as a policy: the
// master hosts the certifier and is the only node that accepts
// updates. These tests drive real replica servers on loopback
// (internal/launch) through the pooled client, which pins updates to
// the master.
package sm_test

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/client"
	"repro/internal/launch"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/workload"
)

// newCluster boots n sm replica servers (node 0 the master) with tweak
// applied to the template.
func newCluster(t *testing.T, n int, tweak ...func(*server.Options)) (*launch.Cluster, *client.Client) {
	t.Helper()
	tmpl := server.Options{Design: "sm"}
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

// commitWrite commits one row write or fails the test.
func commitWrite(t *testing.T, sys repl.System, table string, row int64, value string) {
	t.Helper()
	tx, err := sys.BeginUpdate()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(table, row, value); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// onNode returns a client that reaches only node i of the cluster.
func onNode(t *testing.T, c *launch.Cluster, i int) *client.Client {
	t.Helper()
	cl, err := client.New(client.Options{Servers: c.Addrs(0)[i : i+1], Design: "sm"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

func TestUpdatesRouteToMaster(t *testing.T) {
	c, cl := newCluster(t, 3)
	seedTable(t, cl, "item", 10)
	for i := 0; i < 5; i++ {
		commitWrite(t, cl, "item", int64(i), "u")
	}
	// Slaves refuse updates, so every commit above ran on the master.
	stats, err := c.Stats(0)
	if err != nil {
		t.Fatal(err)
	}
	if stats[0].UpdateCommits != 5 || stats[1].UpdateCommits+stats[2].UpdateCommits != 0 {
		t.Fatalf("update commits per node: %d %d %d", stats[0].UpdateCommits, stats[1].UpdateCommits, stats[2].UpdateCommits)
	}
}

func TestUpdatePropagatesToSlaves(t *testing.T) {
	_, cl := newCluster(t, 3)
	seedTable(t, cl, "item", 10)
	commitWrite(t, cl, "item", 4, "changed")
	cl.Sync()
	for node := 0; node < 3; node++ {
		dump, err := cl.TableDump(node, "item")
		if err != nil {
			t.Fatal(err)
		}
		if dump[4] != "changed" {
			t.Fatalf("node %d: row 4 = %q", node, dump[4])
		}
	}
}

func TestWritesetsApplyInCommitOrder(t *testing.T) {
	_, cl := newCluster(t, 2)
	seedTable(t, cl, "item", 10)
	for i := 0; i < 20; i++ {
		commitWrite(t, cl, "item", 1, fmt.Sprintf("v%d", i))
	}
	cl.Sync()
	dump, _ := cl.TableDump(1, "item")
	if dump[1] != "v19" {
		t.Fatalf("slave has %q, want v19 (ordering violated)", dump[1])
	}
}

func TestConflictAtMasterAborts(t *testing.T) {
	_, cl := newCluster(t, 2)
	seedTable(t, cl, "item", 10)
	a, err := cl.BeginUpdate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := cl.BeginUpdate()
	if err != nil {
		t.Fatal(err)
	}
	a.Write("item", 1, "a")
	b.Write("item", 1, "b")
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(); !errors.Is(err, repl.ErrAborted) {
		t.Fatalf("second writer: %v", err)
	}
}

func TestSlaveWritesRejected(t *testing.T) {
	c, cl := newCluster(t, 3)
	seedTable(t, cl, "item", 10)
	slave := onNode(t, c, 1)
	ro, err := slave.BeginRead()
	if err != nil {
		t.Fatal(err)
	}
	if err := ro.Write("item", 1, "x"); !errors.Is(err, repl.ErrReadOnlyTxn) {
		t.Fatalf("slave write: %v", err)
	}
	ro.Abort()
	// The slave proxy is the only source of updates to its database:
	// an update transaction cannot even begin there.
	if _, err := slave.BeginUpdate(); err == nil {
		t.Fatal("update began on a slave")
	}
}

func TestReadsBalanceAcrossMasterAndSlaves(t *testing.T) {
	c, cl := newCluster(t, 3)
	seedTable(t, cl, "item", 10)
	var open []repl.Txn
	for i := 0; i < 3; i++ {
		tx, err := cl.BeginRead()
		if err != nil {
			t.Fatal(err)
		}
		open = append(open, tx)
	}
	stats, err := c.Stats(0)
	if err != nil {
		t.Fatal(err)
	}
	for node, st := range stats {
		if st.ActiveTxns != 1 {
			t.Fatalf("node %d holds %d of the 3 open reads", node, st.ActiveTxns)
		}
	}
	for _, tx := range open {
		tx.Abort()
	}
}

func TestSlaveReadSeesAppliedState(t *testing.T) {
	c, cl := newCluster(t, 2)
	seedTable(t, cl, "item", 10)
	commitWrite(t, cl, "item", 2, "new")
	cl.Sync()
	ro, err := onNode(t, c, 1).BeginRead()
	if err != nil {
		t.Fatal(err)
	}
	v, ok, err := ro.Read("item", 2)
	if err != nil || !ok || v != "new" {
		t.Fatalf("slave read = %q %v %v", v, ok, err)
	}
	ro.Commit()
}

func TestSingleNodeCluster(t *testing.T) {
	_, cl := newCluster(t, 1)
	seedTable(t, cl, "item", 10)
	commitWrite(t, cl, "item", 1, "x")
	cl.Sync() // no slaves: the master is always current
	dump, _ := cl.TableDump(0, "item")
	if dump[1] != "x" {
		t.Fatalf("row = %q", dump[1])
	}
}

func TestWorkloadConvergence(t *testing.T) {
	_, cl := newCluster(t, 3)
	cat := workload.TPCWCatalog()
	if err := repl.LoadCatalog(cl, cat, 1000); err != nil {
		t.Fatal(err)
	}
	mix := workload.TPCWOrdering()
	res := repl.Drive(cl, cat, mix, 8, 40, 1000, 99)
	if res.Errors != 0 {
		t.Fatalf("driver errors: %+v", res)
	}
	if res.Commits != 8*40 {
		t.Fatalf("commits = %d", res.Commits)
	}
	tables := make([]string, 0, len(cat.Tables))
	for name := range cat.Tables {
		tables = append(tables, name)
	}
	if err := repl.CheckConvergence(cl, tables); err != nil {
		t.Fatal(err)
	}
	// Update fraction should approximate the mix.
	frac := float64(res.UpdateCommits) / float64(res.Commits)
	if frac < 0.35 || frac > 0.65 {
		t.Fatalf("update fraction %.2f, want about 0.5", frac)
	}
}

func TestConcurrentCountersNoLostUpdates(t *testing.T) {
	_, cl := newCluster(t, 3)
	seedTable(t, cl, "counter", 2)
	for i := int64(0); i < 2; i++ {
		commitWrite(t, cl, "counter", i, "0")
	}
	const workers = 6
	const perWorker = 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				row := int64(w % 2)
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
					tx.Write("counter", row, fmt.Sprintf("%d", n+1))
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
	for node := 0; node < 3; node++ {
		dump, _ := cl.TableDump(node, "counter")
		sum := 0
		for _, v := range dump {
			var n int
			fmt.Sscanf(v, "%d", &n)
			sum += n
		}
		if node == 0 {
			total = sum
		} else if sum != total {
			t.Fatalf("node %d sum %d != master %d", node, sum, total)
		}
	}
	if total != workers*perWorker {
		t.Fatalf("lost updates: %d != %d", total, workers*perWorker)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := launch.Start(1, 0, server.Options{Design: "sm"}); err == nil {
		t.Fatal("zero replicas accepted")
	}
}

func TestTableDumpBounds(t *testing.T) {
	_, cl := newCluster(t, 2)
	if _, err := cl.TableDump(9, "x"); err == nil {
		t.Fatal("bad node accepted")
	}
	if _, err := cl.TableDump(-1, "x"); err == nil {
		t.Fatal("negative node accepted")
	}
}

// TestDurableRequiresJournal pins the option validation: fsync needs a
// WAL directory.
func TestDurableRequiresJournal(t *testing.T) {
	_, err := launch.Start(1, 1, server.Options{Design: "sm", Fsync: true})
	if err == nil || !strings.Contains(err.Error(), "fsync requires a WAL directory") {
		t.Fatalf("fsync without a WAL accepted: %v", err)
	}
}
