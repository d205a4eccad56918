package sm

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/repl"
	"repro/internal/workload"
)

func newCluster(t *testing.T, n int) *Cluster {
	t.Helper()
	c, err := New(Options{Replicas: n})
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

func TestUpdatesRouteToMaster(t *testing.T) {
	c := newCluster(t, 3)
	seedTable(t, c, "item", 10)
	for i := 0; i < 5; i++ {
		tx, err := c.BeginUpdate()
		if err != nil {
			t.Fatal(err)
		}
		if tx.(*Txn).node != 0 {
			t.Fatalf("update routed to node %d", tx.(*Txn).node)
		}
		tx.Abort()
	}
}

func TestUpdatePropagatesToSlaves(t *testing.T) {
	c := newCluster(t, 3)
	seedTable(t, c, "item", 10)
	tx, _ := c.BeginUpdate()
	tx.Write("item", 4, "changed")
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	c.Sync()
	for node := 0; node < 3; node++ {
		dump, err := c.TableDump(node, "item")
		if err != nil {
			t.Fatal(err)
		}
		if dump[4] != "changed" {
			t.Fatalf("node %d: row 4 = %q", node, dump[4])
		}
	}
}

func TestWritesetsApplyInCommitOrder(t *testing.T) {
	c := newCluster(t, 2)
	seedTable(t, c, "item", 10)
	for i := 0; i < 20; i++ {
		tx, _ := c.BeginUpdate()
		tx.Write("item", 1, fmt.Sprintf("v%d", i))
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	c.Sync()
	dump, _ := c.TableDump(1, "item")
	if dump[1] != "v19" {
		t.Fatalf("slave has %q, want v19 (ordering violated)", dump[1])
	}
}

func TestConflictAtMasterAborts(t *testing.T) {
	c := newCluster(t, 2)
	seedTable(t, c, "item", 10)
	a, _ := c.BeginUpdate()
	b, _ := c.BeginUpdate()
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
	c := newCluster(t, 3)
	seedTable(t, c, "item", 10)
	// Hold reads until one lands on a slave.
	var held []repl.Txn
	var ro repl.Txn
	for ro == nil {
		tx, _ := c.BeginRead()
		if tx.(*Txn).node == 0 {
			held = append(held, tx)
		} else {
			ro = tx
		}
	}
	if err := ro.Write("item", 1, "x"); !errors.Is(err, repl.ErrReadOnlyTxn) {
		t.Fatalf("slave write: %v", err)
	}
	ro.Abort()
	for _, tx := range held {
		tx.Abort()
	}
}

func TestReadsBalanceAcrossMasterAndSlaves(t *testing.T) {
	c := newCluster(t, 3)
	seedTable(t, c, "item", 10)
	seen := map[int]bool{}
	var open []repl.Txn
	for i := 0; i < 3; i++ {
		tx, _ := c.BeginRead()
		seen[tx.(*Txn).node] = true
		open = append(open, tx)
	}
	for _, tx := range open {
		tx.Abort()
	}
	if len(seen) != 3 {
		t.Fatalf("reads did not spread: %v", seen)
	}
}

func TestSlaveReadSeesAppliedState(t *testing.T) {
	c := newCluster(t, 2)
	seedTable(t, c, "item", 10)
	tx, _ := c.BeginUpdate()
	tx.Write("item", 2, "new")
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	c.Sync()
	// Open reads until one lands on the slave (the rotating tie-break
	// spreads them over both nodes within two begins).
	var ro repl.Txn
	var held []repl.Txn
	for i := 0; i < 4 && ro == nil; i++ {
		tx, _ := c.BeginRead()
		if tx.(*Txn).node == 1 {
			ro = tx
		} else {
			held = append(held, tx)
		}
	}
	if ro == nil {
		t.Fatal("read never landed on slave")
	}
	v, ok, err := ro.Read("item", 2)
	if err != nil || !ok || v != "new" {
		t.Fatalf("slave read = %q %v %v", v, ok, err)
	}
	ro.Commit()
	for _, tx := range held {
		tx.Abort()
	}
}

func TestSingleNodeCluster(t *testing.T) {
	c := newCluster(t, 1)
	seedTable(t, c, "item", 10)
	tx, _ := c.BeginUpdate()
	tx.Write("item", 1, "x")
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	c.Sync() // no slaves: no-op
	dump, _ := c.TableDump(0, "item")
	if dump[1] != "x" {
		t.Fatalf("row = %q", dump[1])
	}
}

func TestGCLog(t *testing.T) {
	c := newCluster(t, 3)
	seedTable(t, c, "item", 10)
	c.GCLog() // prune the schema and load commits first
	for i := 0; i < 10; i++ {
		tx, _ := c.BeginUpdate()
		tx.Write("item", int64(i), "v")
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	c.Sync()
	if removed := c.GCLog(); removed != 10 {
		t.Fatalf("GC removed %d, want 10", removed)
	}
	if removed := c.GCLog(); removed != 0 {
		t.Fatalf("second GC removed %d", removed)
	}
}

func TestWorkloadConvergence(t *testing.T) {
	c := newCluster(t, 3)
	cat := workload.TPCWCatalog()
	if err := repl.LoadCatalog(c, cat, 1000); err != nil {
		t.Fatal(err)
	}
	mix := workload.TPCWOrdering()
	res := repl.Drive(c, cat, mix, 8, 40, 1000, 99)
	if res.Errors != 0 {
		t.Fatalf("driver errors: %+v", res)
	}
	if res.Commits != 8*40 {
		t.Fatalf("commits = %d", res.Commits)
	}
	if err := repl.CheckConvergence(c, c.master.Tables()); err != nil {
		t.Fatal(err)
	}
	// Update fraction should approximate the mix.
	frac := float64(res.UpdateCommits) / float64(res.Commits)
	if frac < 0.35 || frac > 0.65 {
		t.Fatalf("update fraction %.2f, want about 0.5", frac)
	}
}

func TestConcurrentCountersNoLostUpdates(t *testing.T) {
	c := newCluster(t, 3)
	seedTable(t, c, "counter", 2)
	for i := int64(0); i < 2; i++ {
		tx, _ := c.BeginUpdate()
		tx.Write("counter", i, "0")
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	const workers = 6
	const perWorker = 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				row := int64(w % 2)
				for {
					tx, _ := c.BeginUpdate()
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
	c.Sync()
	total := 0
	for node := 0; node < 3; node++ {
		dump, _ := c.TableDump(node, "counter")
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
	if _, err := New(Options{Replicas: 0}); err == nil {
		t.Fatal("zero replicas accepted")
	}
}

func TestTableDumpBounds(t *testing.T) {
	c := newCluster(t, 2)
	if _, err := c.TableDump(9, "x"); err == nil {
		t.Fatal("bad node accepted")
	}
	if _, err := c.TableDump(-1, "x"); err == nil {
		t.Fatal("negative node accepted")
	}
}
