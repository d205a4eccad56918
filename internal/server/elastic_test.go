package server_test

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/elastic"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/workload"
)

// startPrimary boots a single-replica mm primary (tweak may change the
// design).
func startPrimary(t *testing.T, tweak func(*server.Options)) *server.Server {
	t.Helper()
	opts := server.Options{
		Design:   "mm",
		ID:       0,
		Listen:   "127.0.0.1:0",
		Replicas: 1,
	}
	if tweak != nil {
		tweak(&opts)
	}
	srv, err := server.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	t.Cleanup(func() { srv.Close() })
	return srv
}

// joinReplica runs the join protocol against the primary and starts
// the new replica.
func joinReplica(t *testing.T, design, primary string) *server.Server {
	t.Helper()
	srv, err := server.New(server.Options{
		Design:  design,
		Listen:  "127.0.0.1:0",
		Join:    true,
		Primary: primary,
	})
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	srv.Start()
	t.Cleanup(func() { srv.Close() })
	return srv
}

// watchingClient returns a pooled client with fast membership polling.
func watchingClient(t *testing.T, design, primary string) *client.Client {
	t.Helper()
	cl, err := client.New(client.Options{
		Servers:       []string{primary},
		Design:        design,
		Watch:         true,
		WatchInterval: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestElasticJoinServesAndConverges is the basic online-join path:
// data loaded on a 1-replica cluster, two replicas join live (full
// snapshot transfer + catch-up), the watching client discovers them,
// and a driven workload converges across all three. Under sm the
// joiners add read capacity to the master.
func TestElasticJoinServesAndConverges(t *testing.T) {
	for _, design := range []string{"mm", "sm"} {
		t.Run(design, func(t *testing.T) { elasticJoinServesAndConverges(t, design) })
	}
}

func elasticJoinServesAndConverges(t *testing.T, design string) {
	prim := startPrimary(t, func(o *server.Options) { o.Design = design })
	cl := watchingClient(t, design, prim.Addr())

	mix := workload.TPCWShopping()
	cat, err := workload.CatalogFor(mix)
	if err != nil {
		t.Fatal(err)
	}
	const factor = 1000
	if err := repl.LoadCatalog(cl, cat, factor); err != nil {
		t.Fatalf("load: %v", err)
	}
	// Commit some traffic before anyone joins, so the snapshot carries
	// post-load writesets too.
	res := repl.Drive(cl, cat, mix, 4, 10, factor, 1)
	if res.Errors != 0 {
		t.Fatalf("pre-join drive: %+v", res)
	}

	joinReplica(t, design, prim.Addr())
	joinReplica(t, design, prim.Addr())
	waitFor(t, 5*time.Second, "client to discover 3 replicas", func() bool {
		return cl.Replicas() == 3
	})

	res = repl.Drive(cl, cat, mix, 6, 20, factor, 2)
	if res.Errors != 0 {
		t.Fatalf("post-join drive: %+v", res)
	}
	tables := make([]string, 0, len(cat.Tables))
	for name := range cat.Tables {
		tables = append(tables, name)
	}
	if err := repl.CheckConvergence(cl, tables); err != nil {
		t.Fatalf("convergence over joined replicas: %v", err)
	}
}

// TestElasticJoinMultiChunkSnapshot joins a replica whose state
// transfer exceeds one snapshot chunk, proving the stream reassembles
// into the exact primary state.
func TestElasticJoinMultiChunkSnapshot(t *testing.T) {
	prim := startPrimary(t, nil)
	cl := watchingClient(t, "mm", prim.Addr())
	if err := cl.CreateTable("blob"); err != nil {
		t.Fatal(err)
	}
	// ~6MB of state: the 4MB chunk budget forces at least two chunks.
	value := strings.Repeat("x", 2048)
	if err := cl.Load("blob", 3000, func(r int64) string { return value }); err != nil {
		t.Fatal(err)
	}

	joinReplica(t, "mm", prim.Addr())
	waitFor(t, 10*time.Second, "client to discover the joiner", func() bool {
		return cl.Replicas() == 2
	})
	if err := repl.CheckConvergence(cl, []string{"blob"}); err != nil {
		t.Fatalf("multi-chunk snapshot diverged: %v", err)
	}
}

// TestLeaveMidTransactionDrains covers the graceful departure path:
// transactions in flight on the leaving replica run to completion
// (drain), and no transaction begun after Leave is served there. Under
// sm the transactions are reads: updates run on the master alone, and
// the slave's reads are what its departure drains.
func TestLeaveMidTransactionDrains(t *testing.T) {
	for _, design := range []string{"mm", "sm"} {
		t.Run(design, func(t *testing.T) { leaveMidTransactionDrains(t, design) })
	}
}

func leaveMidTransactionDrains(t *testing.T, design string) {
	prim := startPrimary(t, func(o *server.Options) { o.Design = design })
	joiner := joinReplica(t, design, prim.Addr())
	cl := watchingClient(t, design, prim.Addr())
	begin, use := cl.BeginUpdate, func(tx repl.Txn, row int64, value string) error {
		return tx.Write("t", row, value)
	}
	if design == "sm" {
		begin, use = cl.BeginRead, func(tx repl.Txn, row int64, _ string) error {
			_, _, err := tx.Read("t", row)
			return err
		}
	}

	if err := cl.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Load("t", 20, func(r int64) string { return fmt.Sprintf("v%d", r) }); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "client to discover 2 replicas", func() bool {
		return cl.Replicas() == 2
	})

	// Two held transactions spread over both replicas (least-loaded
	// routing), so one is in flight on the joiner when it leaves.
	tx1, err := begin()
	if err != nil {
		t.Fatal(err)
	}
	tx2, err := begin()
	if err != nil {
		t.Fatal(err)
	}
	leaveDone := make(chan error, 1)
	go func() { leaveDone <- joiner.Leave() }()
	time.Sleep(30 * time.Millisecond) // the drain is now waiting on us

	for i, tx := range []repl.Txn{tx1, tx2} {
		if err := use(tx, int64(i), "drained"); err != nil {
			t.Fatalf("operation on held txn %d during drain: %v", i, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("commit on held txn %d during drain: %v", i, err)
		}
	}
	if err := <-leaveDone; err != nil {
		t.Fatalf("leave: %v", err)
	}

	// From this point nothing new may be served by the departed
	// replica: its counters must not move while fresh transactions
	// succeed elsewhere.
	link := client.NewLink(joiner.Addr(), design, -1, time.Second)
	defer link.Close()
	before, err := link.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	for i := 0; i < 6; i++ {
		tx, err := begin()
		if err != nil {
			t.Fatalf("begin after leave: %v", err)
		}
		if err := use(tx, int64(i), fmt.Sprintf("after-%d", i)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	after, err := link.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if after.ReadCommits != before.ReadCommits || after.UpdateCommits != before.UpdateCommits || after.ActiveTxns != 0 {
		t.Fatalf("departed replica still serving: before %+v after %+v", before, after)
	}
	waitFor(t, 5*time.Second, "client to drop the departed replica", func() bool {
		return cl.Replicas() == 1
	})
}

// TestLeaveRefusedWithoutDraining: a node that cannot leave — the
// primary, whichever the design — refuses Leave every time and keeps
// admitting transactions instead of draining forever.
func TestLeaveRefusedWithoutDraining(t *testing.T) {
	mmNodes, _ := startCluster(t, "mm", 1, nil)
	smNodes, _ := startCluster(t, "sm", 2, nil)
	for _, tc := range []struct {
		name   string
		srv    *server.Server
		design string
	}{
		{"mm primary", mmNodes[0], "mm"},
		{"sm master", smNodes[0], "sm"},
	} {
		for i := 0; i < 2; i++ {
			if err := tc.srv.Leave(); err == nil {
				t.Fatalf("%s: Leave #%d = nil, want a refusal", tc.name, i+1)
			}
		}
		cl, err := client.New(client.Options{Servers: []string{tc.srv.Addr()}, Design: tc.design})
		if err != nil {
			t.Fatal(err)
		}
		tx, err := cl.BeginRead()
		if err != nil {
			t.Fatalf("%s: begin after a refused Leave: %v", tc.name, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("%s: commit after a refused Leave: %v", tc.name, err)
		}
		cl.Close()
	}
}

// TestReplicaCrashMidTransactionAborts covers the ungraceful path: a
// replica dying under an open transaction surfaces repl.ErrAborted on
// the next operation (so closed-loop drivers retry elsewhere), and
// the primary eventually evicts the ghost member.
func TestReplicaCrashMidTransactionAborts(t *testing.T) {
	prim := startPrimary(t, func(o *server.Options) { o.StaleAfter = 300 * time.Millisecond })
	joiner := joinReplica(t, "mm", prim.Addr())
	cl := watchingClient(t, "mm", prim.Addr())

	if err := cl.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "client to discover 2 replicas", func() bool {
		return cl.Replicas() == 2
	})

	tx1, err := cl.BeginUpdate()
	if err != nil {
		t.Fatal(err)
	}
	tx2, err := cl.BeginUpdate()
	if err != nil {
		t.Fatal(err)
	}
	joiner.Close() // crash: no Leave, no drain

	aborted := 0
	for _, tx := range []repl.Txn{tx1, tx2} {
		err := tx.Write("t", 1, "x")
		if err == nil {
			err = tx.Commit()
		}
		switch {
		case err == nil:
		case errors.Is(err, repl.ErrAborted):
			aborted++
		default:
			t.Fatalf("crash surfaced as %v, want repl.ErrAborted", err)
		}
	}
	if aborted != 1 {
		t.Fatalf("aborted = %d, want exactly the transaction on the crashed replica", aborted)
	}

	// The driver-level retry loop must complete against the survivor.
	for i := 0; i < 4; i++ {
		tx, err := cl.BeginUpdate()
		if err != nil {
			t.Fatalf("begin after crash: %v", err)
		}
		if err := tx.Write("t", int64(i), "survivor"); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	// The primary evicts the silent member, clients drop it.
	waitFor(t, 5*time.Second, "stale member eviction", func() bool {
		return cl.Replicas() == 1
	})
}

// TestJoinerCrashMidStateTransfer admits a joiner that never finishes
// its state transfer: the primary must keep serving, block log GC
// only temporarily, and evict the ghost after the liveness grace.
func TestJoinerCrashMidStateTransfer(t *testing.T) {
	prim := startPrimary(t, func(o *server.Options) { o.StaleAfter = 250 * time.Millisecond })

	link := client.NewLink(prim.Addr(), "mm", -1, time.Second)
	defer link.Close()
	jo, err := link.Join("127.0.0.1:1") // admitted, then silence: no snapshot, no pulls
	if err != nil {
		t.Fatal(err)
	}
	epoch, members, err := link.Members()
	if err != nil || len(members) != 2 {
		t.Fatalf("membership after join: %v %+v", err, members)
	}

	// The cluster keeps serving while the ghost is pending.
	cl := watchingClient(t, "mm", prim.Addr())
	if err := cl.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	tx, err := cl.BeginUpdate()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Write("t", 1, "x"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	waitFor(t, 5*time.Second, "ghost joiner eviction", func() bool {
		e, ms, err := link.Members()
		return err == nil && e > epoch && len(ms) == 1
	})
	_, members, _ = link.Members()
	if len(members) != 1 || members[0].ID == jo.ID {
		t.Fatalf("members after eviction: %+v", members)
	}
}

// TestElasticAutoscaleLoopback is the acceptance test: one replica
// under a rising TPC-W-profile update load; the controller — fed only
// by live Stats samples through the MVA predictor — grows the cluster
// to three replicas with zero failed state transfers, every committed
// transaction survives on every replica, and the cluster shrinks back
// once the load stops.
func TestElasticAutoscaleLoopback(t *testing.T) {
	prim := startPrimary(t, nil)
	cl := watchingClient(t, "mm", prim.Addr())
	if err := cl.CreateTable("acct"); err != nil {
		t.Fatal(err)
	}

	scaler := elastic.NewLocalScaler(1, func() (elastic.Replica, error) {
		srv, err := server.New(server.Options{
			Design:  "mm",
			Listen:  "127.0.0.1:0",
			Join:    true,
			Primary: prim.Addr(),
		})
		if err != nil {
			return nil, err
		}
		srv.Start()
		return srv, nil
	})
	defer scaler.Close()
	src := elastic.NewWireSource([]string{prim.Addr()}, time.Second)
	defer src.Close()

	const think = 20 * time.Millisecond
	ctl, err := elastic.NewController(elastic.Config{
		Min: 1, Max: 3,
		Cooldown: 60 * time.Millisecond,
	}, scaler)
	if err != nil {
		t.Fatal(err)
	}
	win := elastic.NewWindow(src, workload.TPCWShopping(), think.Seconds(), false)
	stopCtl := make(chan struct{})
	ctlDone := make(chan struct{})
	go func() { defer close(ctlDone); win.Run(40*time.Millisecond, stopCtl, ctl.Observe) }()

	// Rising closed-loop update load: every commit writes one unique
	// row, recorded client-side for the no-loss check.
	var mu sync.Mutex
	committed := make(map[int64]string)
	stopLoad := make(chan struct{})
	var wg sync.WaitGroup
	var driveErrs atomic.Int64
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for seq := int64(0); ; seq++ {
				select {
				case <-stopLoad:
					return
				default:
				}
				row := int64(w)*1_000_000 + seq
				val := fmt.Sprintf("w%d-%d", w, seq)
				for {
					tx, err := cl.BeginUpdate()
					if err != nil {
						driveErrs.Add(1)
						return
					}
					err = tx.Write("acct", row, val)
					if err == nil {
						err = tx.Commit()
					}
					if err == nil {
						mu.Lock()
						committed[row] = val
						mu.Unlock()
						break
					}
					if errors.Is(err, repl.ErrAborted) {
						continue // retry on a surviving replica
					}
					driveErrs.Add(1)
					return
				}
				time.Sleep(think)
			}
		}(w)
	}

	waitFor(t, 20*time.Second, "controller to grow the cluster to 3 replicas", func() bool {
		return scaler.Replicas() >= 3
	})
	waitFor(t, 10*time.Second, "client to discover 3 replicas", func() bool {
		return cl.Replicas() == 3
	})

	close(stopLoad)
	wg.Wait()
	close(stopCtl)
	<-ctlDone
	if n := driveErrs.Load(); n != 0 {
		t.Fatalf("%d drive errors during scale-up", n)
	}
	if f := scaler.Failures(); f != 0 {
		t.Fatalf("%d failed state transfers", f)
	}

	// No committed-transaction loss: every acknowledged commit is
	// present with its value on every replica, joiners included.
	cl.Sync()
	mu.Lock()
	want := len(committed)
	mu.Unlock()
	if want == 0 {
		t.Fatal("no transactions committed")
	}
	for r := 0; r < cl.Replicas(); r++ {
		dump, err := cl.TableDump(r, "acct")
		if err != nil {
			t.Fatalf("dump replica %d: %v", r, err)
		}
		mu.Lock()
		for row, val := range committed {
			if dump[row] != val {
				mu.Unlock()
				t.Fatalf("replica %d lost committed row %d (%q != %q)", r, row, dump[row], val)
			}
		}
		mu.Unlock()
	}

	// With the load gone, idle control windows shrink the cluster
	// back to one replica.
	stopCtl2 := make(chan struct{})
	ctlDone2 := make(chan struct{})
	go func() { defer close(ctlDone2); win.Run(40*time.Millisecond, stopCtl2, ctl.Observe) }()
	waitFor(t, 20*time.Second, "controller to shrink back to 1 replica", func() bool {
		return scaler.Replicas() == 1
	})
	close(stopCtl2)
	<-ctlDone2
	st := ctl.Status()
	if st.Ups < 2 || st.Downs < 2 {
		t.Fatalf("controller status = %+v, want >=2 ups and downs", st)
	}
}

// TestWireSourceCountsEachReplicaOnce: the source polls its seeds and
// the members the first seed that answers Members lists, and counts
// each (shard, replica) once, even when a seed names a member under
// another address. Seeds that cannot list members are polled alone.
func TestWireSourceCountsEachReplicaOnce(t *testing.T) {
	prim := startPrimary(t, nil)
	rep := joinReplica(t, "mm", prim.Addr())
	_, port, err := net.SplitHostPort(rep.Addr())
	if err != nil {
		t.Fatal(err)
	}
	// The joiner hosts no membership; the primary lists it under its
	// 127.0.0.1 address, which the seed names as localhost.
	alias := net.JoinHostPort("localhost", port)
	src := elastic.NewWireSource([]string{alias, prim.Addr()}, time.Second)
	defer src.Close()
	s, rows, err := src.Sample()
	if err != nil {
		t.Fatal(err)
	}
	if s.Members != 2 || len(rows) != 2 || rows[0].Addr != alias || rows[1].Addr != prim.Addr() {
		t.Fatalf("sample over %d members, rows %+v; want the joiner and the primary once each", s.Members, rows)
	}

	alone := elastic.NewWireSource([]string{rep.Addr()}, time.Second)
	defer alone.Close()
	if s, rows, err := alone.Sample(); err != nil || s.Members != 1 || len(rows) != 1 {
		t.Fatalf("seed-only sample over %d members, rows %+v, err %v; want the seed alone", s.Members, rows, err)
	}
}
