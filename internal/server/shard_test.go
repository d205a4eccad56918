package server_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/codec"
	"repro/internal/repl"
	"repro/internal/router"
	"repro/internal/server"
)

// startShardedGroups boots n independent replica groups of two mm
// servers each, every group given its place in the shard map, and
// returns a router over pooled clients — the full networked
// sharded deployment on loopback.
func startShardedGroups(t *testing.T, n int, tweak func(*server.Options)) (*router.Router, []*client.Client) {
	t.Helper()
	c := launchCluster(t, n, 2, server.Options{Design: "mm"}, tweak)
	groups := make([]router.Group, n)
	for g, cl := range c.Clients {
		groups[g] = cl
	}
	r, err := router.New(1, groups)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.CreateTable("item"); err != nil {
		t.Fatal(err)
	}
	if err := r.Load("item", 64, func(row int64) string {
		return fmt.Sprintf("load-%d", row)
	}); err != nil {
		t.Fatal(err)
	}
	return r, c.Clients
}

// ownedRows splits the loaded rows by owning group.
func ownedRows(r *router.Router, rows int) map[int][]int64 {
	out := make(map[int][]int64)
	for row := int64(0); row < int64(rows); row++ {
		g := r.Map().Locate("item", row)
		out[g] = append(out[g], row)
	}
	return out
}

// TestShardedSingleShardFastPath: a one-group transaction over the
// wire takes the ordinary commit path; the other group never hears
// about it.
func TestShardedSingleShardFastPath(t *testing.T) {
	r, clients := startShardedGroups(t, 2, nil)
	owned := ownedRows(r, 64)

	txn, err := r.BeginUpdate()
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Write("item", owned[0][0], "updated"); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	r.Sync()
	dump0, err := clients[0].TableDump(0, "item")
	if err != nil {
		t.Fatal(err)
	}
	if dump0[owned[0][0]] != "updated" {
		t.Fatalf("group 0 row = %q", dump0[owned[0][0]])
	}
	dump1, err := clients[1].TableDump(0, "item")
	if err != nil {
		t.Fatal(err)
	}
	if dump1[owned[1][0]] != fmt.Sprintf("load-%d", owned[1][0]) {
		t.Fatalf("group 1 disturbed: %q", dump1[owned[1][0]])
	}
}

// TestShardedCrossShardCommit: a transaction spanning both groups
// commits atomically over the wire — prepare on the transaction's own
// connection, decision verbs to each group's certifier host — and
// leaves no in-doubt state behind, in groups of either design.
func TestShardedCrossShardCommit(t *testing.T) {
	for _, design := range []string{"mm", "sm"} {
		t.Run(design, func(t *testing.T) {
			r, clients := startShardedGroups(t, 2, func(o *server.Options) { o.Design = design })
			crossShardCommit(t, r, clients)
		})
	}
}

func crossShardCommit(t *testing.T, r *router.Router, clients []*client.Client) {
	owned := ownedRows(r, 64)
	r0, r1 := owned[0][0], owned[1][0]

	txn, err := r.BeginUpdate()
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Write("item", r0, "x0"); err != nil {
		t.Fatal(err)
	}
	if err := txn.Write("item", r1, "x1"); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatalf("cross-shard commit: %v", err)
	}
	r.Sync()
	for gi, want := range map[int]struct {
		row int64
		val string
	}{0: {r0, "x0"}, 1: {r1, "x1"}} {
		dump, err := clients[gi].TableDump(0, "item")
		if err != nil {
			t.Fatal(err)
		}
		if dump[want.row] != want.val {
			t.Fatalf("group %d row %d = %q, want %q", gi, want.row, dump[want.row], want.val)
		}
		// Both replicas of the group converged on the fragment.
		dump2, err := clients[gi].TableDump(1, "item")
		if err != nil {
			t.Fatal(err)
		}
		if dump2[want.row] != want.val {
			t.Fatalf("group %d replica 1 row %d = %q", gi, want.row, dump2[want.row])
		}
	}
	if err := repl.CheckConvergence(r, []string{"item"}); err != nil {
		t.Fatal(err)
	}
}

// TestShardedCrossShardConflict: losing certification at one group
// aborts the whole transaction; neither fragment applies.
func TestShardedCrossShardConflict(t *testing.T) {
	r, clients := startShardedGroups(t, 2, nil)
	owned := ownedRows(r, 64)
	r0, r1 := owned[0][0], owned[1][0]

	doomed, err := r.BeginUpdate()
	if err != nil {
		t.Fatal(err)
	}
	if err := doomed.Write("item", r0, "doomed-0"); err != nil {
		t.Fatal(err)
	}
	if err := doomed.Write("item", r1, "doomed-1"); err != nil {
		t.Fatal(err)
	}

	winner, err := r.BeginUpdate()
	if err != nil {
		t.Fatal(err)
	}
	if err := winner.Write("item", r1, "winner"); err != nil {
		t.Fatal(err)
	}
	if err := winner.Commit(); err != nil {
		t.Fatal(err)
	}

	if err := doomed.Commit(); !errors.Is(err, repl.ErrAborted) {
		t.Fatalf("doomed commit = %v, want abort", err)
	}
	r.Sync()
	dump, err := clients[0].TableDump(0, "item")
	if err != nil {
		t.Fatal(err)
	}
	if dump[r0] != fmt.Sprintf("load-%d", r0) {
		t.Fatalf("aborted fragment leaked: %q", dump[r0])
	}
}

// TestShardedPaxosDecideFollowsLeader: the 2PC decision verbs follow a
// Paxos group's certifier leader. Group 0's leader moves off node 0,
// which comes back as a backup; every cross-shard commit must still
// commit, its decision delivered to wherever the leader now is (a
// client that sent it to node 0 regardless got a NotLeader redirect
// back, reported the commit's outcome unknown and left aborted
// fragments' locks held).
func TestShardedPaxosDecideFollowsLeader(t *testing.T) {
	c := launchCluster(t, 2, 3, server.Options{
		Design:       "mm",
		Paxos:        true,
		ElectTimeout: 200 * time.Millisecond,
		WALDir:       t.TempDir(),
	}, nil)
	groups := make([]router.Group, len(c.Clients))
	for g, cl := range c.Clients {
		groups[g] = cl
	}
	r, err := router.New(1, groups)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.CreateTable("item"); err != nil {
		t.Fatal(err)
	}
	if err := r.Load("item", 64, func(row int64) string { return fmt.Sprintf("load-%d", row) }); err != nil {
		t.Fatal(err)
	}

	servers := c.Servers[0]
	if lead := waitOneLeader(t, servers, -1); lead == 0 {
		servers[0].Close()
		waitOneLeader(t, servers, 0)
		restarted, err := server.New(c.Options[0][0])
		if err != nil {
			t.Fatalf("restart node 0: %v", err)
		}
		restarted.Start()
		servers[0] = restarted // launch's Close stops it
	}
	if lead := waitOneLeader(t, servers, -1); lead == 0 {
		t.Fatal("node 0 leads group 0 again; the test needs the leader elsewhere")
	}

	owned := ownedRows(r, 64)
	for i := 0; i < 8; i++ {
		txn, err := r.BeginUpdate()
		if err != nil {
			t.Fatal(err)
		}
		for g := range owned {
			if err := txn.Write("item", owned[g][i], fmt.Sprintf("x%d-%d", g, i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := txn.Commit(); err != nil {
			t.Fatalf("cross-shard commit %d: %v", i, err)
		}
	}
	if leading, _, _, _ := servers[0].Leader(); leading {
		t.Fatal("node 0 took group 0's leadership back during the commits")
	}
	r.Sync()
	if err := repl.CheckConvergence(r, []string{"item"}); err != nil {
		t.Fatal(err)
	}
}

// TestShardedTwoPCGaugesRetire: the 2PC gauges count what a host's
// certifier holds. After cross-shard commits the coordinator host
// holds exactly the last commit's decision — each earlier one was
// retired by the next commit's decide, each participant's by its own —
// and after the router's Sync every node reads 0 on both.
func TestShardedTwoPCGaugesRetire(t *testing.T) {
	c := launchCluster(t, 2, 2, server.Options{Design: "mm"}, func(o *server.Options) {
		o.MetricsAddr = "127.0.0.1:0"
	})
	groups := make([]router.Group, len(c.Clients))
	for g, cl := range c.Clients {
		groups[g] = cl
	}
	r, err := router.New(1, groups)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.CreateTable("item"); err != nil {
		t.Fatal(err)
	}
	if err := r.Load("item", 64, func(row int64) string { return fmt.Sprintf("load-%d", row) }); err != nil {
		t.Fatal(err)
	}
	owned := ownedRows(r, 64)
	for i := 0; i < 10; i++ {
		txn, err := r.BeginUpdate()
		if err != nil {
			t.Fatal(err)
		}
		for g := range owned {
			if err := txn.Write("item", owned[g][i], fmt.Sprintf("x%d-%d", g, i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := txn.Commit(); err != nil {
			t.Fatalf("cross-shard commit %d: %v", i, err)
		}
	}
	gauges := func(g, i int) (inDoubt, decisions float64) {
		body := httpGet(t, "http://"+c.Servers[g][i].MetricsAddr()+"/metrics")
		return metricValue(t, body, "replicadb_twopc_in_doubt"), metricValue(t, body, "replicadb_twopc_decisions")
	}
	for g, want := range []float64{1, 0} {
		if inDoubt, decisions := gauges(g, 0); inDoubt != 0 || decisions != want {
			t.Fatalf("group %d host before Sync: in doubt %v, decisions %v; want 0, %v", g, inDoubt, decisions, want)
		}
	}
	r.Sync()
	for g := range c.Servers {
		for i := range c.Servers[g] {
			if inDoubt, decisions := gauges(g, i); inDoubt != 0 || decisions != 0 {
				t.Fatalf("group %d node %d after Sync: in doubt %v, decisions %v; want 0", g, i, inDoubt, decisions)
			}
		}
	}
}

// TestTwoPCInDoubtAgeGauge: a fragment held in doubt makes the host's
// oldest-in-doubt gauge rise while it waits, every other node reads 0,
// and the gauge falls back to 0 once the fragment is decided.
func TestTwoPCInDoubtAgeGauge(t *testing.T) {
	c := launchCluster(t, 1, 2, server.Options{Design: "mm"}, func(o *server.Options) {
		o.MetricsAddr = "127.0.0.1:0"
	})
	cl := c.Clients[0]
	if err := cl.CreateTable("item"); err != nil {
		t.Fatal(err)
	}
	age := func(i int) float64 {
		body := httpGet(t, "http://"+c.Servers[0][i].MetricsAddr()+"/metrics")
		return metricValue(t, body, "replicadb_twopc_in_doubt_oldest_seconds")
	}
	if a := age(0); a != 0 {
		t.Fatalf("age with nothing in doubt = %v, want 0", a)
	}
	tx, err := cl.BeginUpdate()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Write("item", 1, "held"); err != nil {
		t.Fatal(err)
	}
	id := codec.TxnID{Epoch: 1, Seq: 1}
	if vote, _, err := tx.(*client.Txn).Prepare(id, 0); err != nil || !vote {
		t.Fatalf("prepare: vote %v, %v", vote, err)
	}
	first := age(0)
	time.Sleep(50 * time.Millisecond)
	if later := age(0); first <= 0 || later < first+0.04 {
		t.Fatalf("age while in doubt: %v, then %v 50ms later; want it positive and rising", first, later)
	}
	if a := age(1); a != 0 {
		t.Fatalf("age at a node that does not host the certifier = %v, want 0", a)
	}
	if _, err := cl.DecideTxn(id, false, id); err != nil {
		t.Fatal(err)
	}
	if a := age(0); a != 0 {
		t.Fatalf("age after the decision = %v, want 0", a)
	}
}
