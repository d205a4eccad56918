package router

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/launch"
	"repro/internal/repl"
	"repro/internal/server"
)

// groupsOf boots n loopback groups of two mm replica servers each and
// returns a router over their clients with one loaded table.
func groupsOf(t *testing.T, n, rows int) (*Router, *launch.Cluster) {
	t.Helper()
	c, err := launch.Start(n, 2, server.Options{Design: "mm"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	gs := make([]Group, n)
	for i, cl := range c.Clients {
		gs[i] = cl
	}
	r, err := New(1, gs)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.CreateTable("item"); err != nil {
		t.Fatal(err)
	}
	if err := r.Load("item", rows, func(row int64) string {
		return fmt.Sprintf("load-%d", row)
	}); err != nil {
		t.Fatal(err)
	}
	return r, c
}

// version returns group g's certified version once every replica has
// applied everything: the certifier host's applied version after a
// router-wide sync.
func version(t *testing.T, r *Router, c *launch.Cluster, g int) int64 {
	t.Helper()
	r.Sync()
	stats, err := c.Stats(g)
	if err != nil {
		t.Fatal(err)
	}
	return stats[0].Applied
}

// writeBoth commits one cross-shard transaction writing rows a and b:
// it can only certify once no prepared fragment still locks them, so
// it doubles as the check that 2PC bookkeeping was retired.
func writeBoth(t *testing.T, r *Router, a, b int64, value string) {
	t.Helper()
	txn, err := r.BeginUpdate()
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Write("item", a, value); err != nil {
		t.Fatal(err)
	}
	if err := txn.Write("item", b, value); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatalf("follow-up cross-shard commit: %v", err)
	}
}

// rowsOwnedBy returns rows of table item owned by each group, enough
// for the cross-shard tests to aim transactions precisely.
func rowsOwnedBy(r *Router, rows int) map[int][]int64 {
	out := make(map[int][]int64)
	for row := int64(0); row < int64(rows); row++ {
		g := r.Map().Locate("item", row)
		out[g] = append(out[g], row)
	}
	return out
}

func TestLocateDeterministicAndSpread(t *testing.T) {
	m := Map{Version: 1, Shards: 4}
	counts := make([]int, 4)
	for row := int64(0); row < 4000; row++ {
		g := m.Locate("item", row)
		if g2 := m.Locate("item", row); g2 != g {
			t.Fatalf("Locate not deterministic: %d vs %d", g, g2)
		}
		counts[g]++
	}
	for g, c := range counts {
		if c < 500 || c > 1500 {
			t.Fatalf("group %d owns %d of 4000 rows — hash badly skewed: %v", g, c, counts)
		}
	}
	// Different tables spread the same row differently (table-aware).
	same := 0
	for row := int64(0); row < 100; row++ {
		if m.Locate("item", row) == m.Locate("stock", row) {
			same++
		}
	}
	if same == 100 {
		t.Fatal("hash ignores the table name")
	}
	if (Map{Shards: 1}).Locate("item", 123) != 0 {
		t.Fatal("single shard must own everything")
	}
}

// TestSingleShardFastPath: a transaction whose keys live in one group
// begins exactly one sub-transaction and commits through that group's
// ordinary path.
func TestSingleShardFastPath(t *testing.T) {
	r, c := groupsOf(t, 2, 64)
	owned := rowsOwnedBy(r, 64)
	row := owned[0][0]
	v0, v1 := version(t, r, c, 0), version(t, r, c, 1) // schema and load

	txn, err := r.BeginUpdate()
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Write("item", row, "updated"); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	// Group 0 certified one commit, group 1 saw nothing.
	if v := version(t, r, c, 0); v != v0+1 {
		t.Fatalf("group 0 version %d, want %d", v, v0+1)
	}
	if v := version(t, r, c, 1); v != v1 {
		t.Fatalf("group 1 version %d, want %d (fast path leaked)", v, v1)
	}

	rt, err := r.BeginRead()
	if err != nil {
		t.Fatal(err)
	}
	got, ok, err := rt.Read("item", row)
	if err != nil || !ok || got != "updated" {
		t.Fatalf("read back: %q ok=%v err=%v", got, ok, err)
	}
	rt.Abort()
}

// TestCrossShardCommit: a transaction spanning both groups commits
// atomically — both fragments become visible, each in its owning
// group's record log.
func TestCrossShardCommit(t *testing.T) {
	r, c := groupsOf(t, 2, 64)
	owned := rowsOwnedBy(r, 64)
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
		dump, err := c.Clients[gi].TableDump(0, "item")
		if err != nil {
			t.Fatal(err)
		}
		if dump[want.row] != want.val {
			t.Fatalf("group %d row %d = %q, want %q", gi, want.row, dump[want.row], want.val)
		}
	}
	// Convergence through the router's ownership-filtered dump.
	if err := repl.CheckConvergence(r, []string{"item"}); err != nil {
		t.Fatal(err)
	}
	// The 2PC bookkeeping is fully retired: no fragment still locks the
	// rows.
	writeBoth(t, r, r0, r1, "after")
}

// TestCrossShardConflictAborts: a cross-shard transaction that loses
// certification at one group aborts at EVERY group — no half-applied
// state.
func TestCrossShardConflictAborts(t *testing.T) {
	r, c := groupsOf(t, 2, 64)
	owned := rowsOwnedBy(r, 64)
	r0, r1 := owned[0][0], owned[1][0]
	v0 := version(t, r, c, 0) // schema and load

	// Open the doomed transaction first so its snapshot predates the
	// conflicting commit.
	txn, err := r.BeginUpdate()
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Write("item", r0, "doomed-0"); err != nil {
		t.Fatal(err)
	}
	if err := txn.Write("item", r1, "doomed-1"); err != nil {
		t.Fatal(err)
	}

	// A competing single-shard commit on group 1's row.
	w, err := r.BeginUpdate()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write("item", r1, "winner"); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}

	err = txn.Commit()
	if !errors.Is(err, repl.ErrAborted) {
		t.Fatalf("cross-shard commit = %v, want abort", err)
	}
	r.Sync()
	// Group 0's fragment must not have applied.
	dump, err := c.Clients[0].TableDump(0, "item")
	if err != nil {
		t.Fatal(err)
	}
	if dump[r0] != fmt.Sprintf("load-%d", r0) {
		t.Fatalf("aborted fragment leaked into group 0: row %d = %q", r0, dump[r0])
	}
	if v := version(t, r, c, 0); v != v0 {
		t.Fatalf("group 0 version %d, want %d", v, v0)
	}
	// Group 0's yes-vote was rolled back: its prepared lock is gone.
	writeBoth(t, r, r0, r1, "after")
}

// TestCrossShardSequential: cross-shard transactions over the same
// keys, serialized by the router, all succeed — the prepared locks
// release at decide time.
func TestCrossShardSequential(t *testing.T) {
	r, _ := groupsOf(t, 2, 64)
	owned := rowsOwnedBy(r, 64)
	r0, r1 := owned[0][0], owned[1][0]
	for i := 0; i < 5; i++ {
		txn, err := r.BeginUpdate()
		if err != nil {
			t.Fatal(err)
		}
		if err := txn.Write("item", r0, fmt.Sprintf("a%d", i)); err != nil {
			t.Fatal(err)
		}
		if err := txn.Write("item", r1, fmt.Sprintf("b%d", i)); err != nil {
			t.Fatal(err)
		}
		if err := txn.Commit(); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		// Every replica applies the round, so the next one begins at a
		// snapshot past it and can only fail on a lock left behind.
		r.Sync()
	}
	rt, err := r.BeginRead()
	if err != nil {
		t.Fatal(err)
	}
	got, _, _ := rt.Read("item", r0)
	if got != "a4" {
		t.Fatalf("row %d = %q, want a4", r0, got)
	}
	rt.Abort()
}

// TestReadOnlySpansShards: a read-only transaction may touch any
// group; commit is free (no certification anywhere).
func TestReadOnlySpansShards(t *testing.T) {
	r, _ := groupsOf(t, 4, 128)
	rt, err := r.BeginRead()
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for row := int64(0); row < 128; row++ {
		v, ok, err := rt.Read("item", row)
		if err != nil || !ok {
			t.Fatalf("row %d: ok=%v err=%v", row, ok, err)
		}
		if v == fmt.Sprintf("load-%d", row) {
			seen++
		}
	}
	if seen != 128 {
		t.Fatalf("read %d/128 rows", seen)
	}
	if err := rt.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestLoadShipsEachGroupItsOwnRows: the initial load installs every
// row exactly once, in the group that owns it.
func TestLoadShipsEachGroupItsOwnRows(t *testing.T) {
	r, c := groupsOf(t, 2, 64)
	seen := 0
	for gi, cl := range c.Clients {
		dump, err := cl.TableDump(0, "item")
		if err != nil {
			t.Fatal(err)
		}
		for row, v := range dump {
			if owner := r.Map().Locate("item", row); owner != gi {
				t.Fatalf("group %d holds row %d owned by group %d", gi, row, owner)
			}
			if v != fmt.Sprintf("load-%d", row) {
				t.Fatalf("group %d row %d = %q", gi, row, v)
			}
		}
		seen += len(dump)
	}
	if seen != 64 {
		t.Fatalf("groups hold %d rows in total, want 64", seen)
	}
}

// TestFourGroupConvergence drives disjoint single-shard traffic at
// four groups and verifies the union dump converges row-for-row.
func TestFourGroupConvergence(t *testing.T) {
	r, _ := groupsOf(t, 4, 128)
	for row := int64(0); row < 128; row++ {
		txn, err := r.BeginUpdate()
		if err != nil {
			t.Fatal(err)
		}
		if err := txn.Write("item", row, fmt.Sprintf("v-%d", row)); err != nil {
			t.Fatal(err)
		}
		if err := txn.Commit(); err != nil {
			t.Fatalf("row %d: %v", row, err)
		}
	}
	r.Sync()
	if err := repl.CheckConvergence(r, []string{"item"}); err != nil {
		t.Fatal(err)
	}
	dump, err := r.TableDump(0, "item")
	if err != nil {
		t.Fatal(err)
	}
	for row := int64(0); row < 128; row++ {
		if dump[row] != fmt.Sprintf("v-%d", row) {
			t.Fatalf("row %d = %q", row, dump[row])
		}
	}
}
