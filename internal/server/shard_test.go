package server_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/repl"
	"repro/internal/router"
	"repro/internal/server"
)

// startShardedGroups boots n independent replica groups of two mm
// servers each, every group stamped with its place in the shard map,
// and returns a router over pooled clients — the full networked
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

// TestShardMapPublished: every group's servers stamp their shard
// coordinates onto the membership reply, and the pooled client
// records them.
func TestShardMapPublished(t *testing.T) {
	_, clients := startShardedGroups(t, 2, nil)
	for g, cl := range clients {
		id, count, version, err := cl.FetchShardInfo()
		if err != nil {
			t.Fatalf("group %d: %v", g, err)
		}
		if id != int64(g) || count != 2 || version == 0 {
			t.Fatalf("group %d shard info = (%d,%d,%d), want (%d,2,>0)", g, id, count, version, g)
		}
		if mid, mcount, _ := cl.ShardInfo(); mid != id || mcount != count {
			t.Fatalf("group %d cached shard info = (%d,%d)", g, mid, mcount)
		}
	}
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
// connection, decision verbs to each group's primary — and leaves no
// in-doubt state behind.
func TestShardedCrossShardCommit(t *testing.T) {
	r, clients := startShardedGroups(t, 2, nil)
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

// TestShardedPipelinedCrossShard: the pipelined client streams its
// writes; prepare must drain the acks before converting the open
// transactions into fragments.
func TestShardedPipelinedCrossShard(t *testing.T) {
	var groups []router.Group
	for g := 0; g < 2; g++ {
		servers, _ := startCluster(t, "mm", 2, func(o *server.Options) {
			o.ShardID = g
			o.ShardCount = 2
		})
		cl, err := client.New(client.Options{
			Servers:    []string{servers[0].Addr(), servers[1].Addr()},
			Design:     "mm",
			Pipeline:   true,
			ProbeAfter: 100 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cl.Close)
		groups = append(groups, cl)
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
	owned := ownedRows(r, 64)
	for i := 0; i < 3; i++ {
		txn, err := r.BeginUpdate()
		if err != nil {
			t.Fatal(err)
		}
		if err := txn.Write("item", owned[0][i], fmt.Sprintf("p0-%d", i)); err != nil {
			t.Fatal(err)
		}
		if err := txn.Write("item", owned[1][i], fmt.Sprintf("p1-%d", i)); err != nil {
			t.Fatal(err)
		}
		if err := txn.Commit(); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
	r.Sync()
	if err := repl.CheckConvergence(r, []string{"item"}); err != nil {
		t.Fatal(err)
	}
}
