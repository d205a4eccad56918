package router

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/codec"
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

// logGroup is a Group whose one update transaction logs the 2PC calls
// it and its group receive, in order, to a log shared across groups.
type logGroup struct {
	Group
	id  int
	log *[]string
	tx  logTxn
}

func (g *logGroup) BeginUpdate() (repl.Txn, error) { return &g.tx, nil }
func (g *logGroup) Sync()                          {}
func (g *logGroup) DecideTxn(_ codec.TxnID, commit bool, _ ...codec.TxnID) (int64, error) {
	*g.log = append(*g.log, fmt.Sprintf("decide %d %v", g.id, commit))
	return 1, nil
}
func (g *logGroup) ForgetTxn(...codec.TxnID) error {
	*g.log = append(*g.log, fmt.Sprintf("forget %d", g.id))
	return nil
}

type logTxn struct {
	stubTxn
	g *logGroup
}

func (t *logTxn) SendPrepare(_ codec.TxnID, coord int64) error {
	*t.g.log = append(*t.g.log, fmt.Sprintf("prepare %d coord %d", t.g.id, coord))
	return nil
}

// SendDecide logs a decision, and its retirement when it carries one.
func (t *logTxn) SendDecide(_ codec.TxnID, commit, retire bool, _ []codec.TxnID) error {
	*t.g.log = append(*t.g.log, fmt.Sprintf("decide %d %v", t.g.id, commit))
	if retire {
		*t.g.log = append(*t.g.log, fmt.Sprintf("forget %d", t.g.id))
	}
	return nil
}

// TestCrossShardCoordinatesAtLowestWriter: a transaction that touches
// its groups in descending order still coordinates at the lowest
// writing group — every prepare names it, it decides first and forgets
// last (at the participant's decide-and-retire, then at Sync) — and a
// group it only read from joins no 2PC.
func TestCrossShardCoordinatesAtLowestWriter(t *testing.T) {
	var log []string
	gs := make([]Group, 4)
	for i := range gs {
		g := &logGroup{id: i, log: &log}
		g.tx = logTxn{stubTxn: stubTxn{writes: i != 3}, g: g}
		gs[i] = g
	}
	r, err := New(1, gs)
	if err != nil {
		t.Fatal(err)
	}
	owned := rowsOwnedBy(r, 256)
	tx, err := r.BeginUpdate()
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []int{3, 2, 1} { // group 3's transaction writes nothing
		if err := tx.Write("item", owned[g][0], "v"); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	r.Sync()
	want := []string{
		"prepare 1 coord 1", "prepare 2 coord 1",
		"decide 1 true", "decide 2 true",
		"forget 2", "forget 1",
	}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Fatalf("2PC calls %q, want %q", log, want)
	}
}

// tripLog records the exchanges of a commit over tripGroups: every send
// and receive of a sub-transaction's split exchange and every
// synchronous group call, and how many of them ran one after another.
// Sends made before any reply is read share one round trip.
type tripLog struct {
	events []string
	rounds int
	open   bool // a round's sends are out and no reply has been read
}

func (l *tripLog) send(format string, args ...any) {
	if !l.open {
		l.rounds++
		l.open = true
	}
	l.events = append(l.events, "send "+fmt.Sprintf(format, args...))
}

func (l *tripLog) recv(format string, args ...any) {
	l.open = false
	l.events = append(l.events, "recv "+fmt.Sprintf(format, args...))
}

func (l *tripLog) call(format string, args ...any) {
	l.rounds++
	l.open = false
	l.events = append(l.events, "call "+fmt.Sprintf(format, args...))
}

// reset starts a new count and returns the events so far.
func (l *tripLog) reset() []string {
	ev := l.events
	*l = tripLog{}
	return ev
}

// tripGroup is a Group whose transactions log to a shared tripLog. vote
// is its prepare vote; failDecide makes the receive half of its decide
// fail, as a NotLeader redirect would.
type tripGroup struct {
	Group
	id         int
	log        *tripLog
	vote       bool
	failDecide bool
}

func (g *tripGroup) BeginRead() (repl.Txn, error)   { return &tripTxn{g: g}, nil }
func (g *tripGroup) BeginUpdate() (repl.Txn, error) { return &tripTxn{g: g}, nil }
func (g *tripGroup) Sync()                          {}
func (g *tripGroup) DecideTxn(id codec.TxnID, commit bool, retire ...codec.TxnID) (int64, error) {
	g.log.call("decide %d %v %s retire %v", g.id, commit, id, retire)
	return 1, nil
}
func (g *tripGroup) ForgetTxn(ids ...codec.TxnID) error {
	g.log.call("forget %d %v", g.id, ids)
	return nil
}

type tripTxn struct {
	g     *tripGroup
	wrote bool
}

func (*tripTxn) Read(string, int64) (string, bool, error) { return "v", true, nil }
func (t *tripTxn) Write(string, int64, string) error      { t.wrote = true; return nil }
func (t *tripTxn) Delete(string, int64) error             { t.wrote = true; return nil }
func (*tripTxn) Commit() error                            { return errors.New("commit is split") }
func (*tripTxn) Abort()                                   {}
func (t *tripTxn) HasWrites() bool                        { return t.wrote }
func (t *tripTxn) SendCommit() error                      { t.g.log.send("commit %d", t.g.id); return nil }
func (t *tripTxn) RecvCommit() error                      { t.g.log.recv("commit %d", t.g.id); return nil }
func (t *tripTxn) SendPrepare(id codec.TxnID, coord int64) error {
	t.g.log.send("prepare %d coord %d", t.g.id, coord)
	return nil
}
func (t *tripTxn) RecvPrepare() (bool, int64, error) {
	t.g.log.recv("prepare %d", t.g.id)
	if !t.g.vote {
		return false, 7, nil
	}
	return true, 0, nil
}
func (t *tripTxn) SendDecide(id codec.TxnID, commit, retire bool, forget []codec.TxnID) error {
	t.g.log.send("decide %d %v %s retire %v forget %v", t.g.id, commit, id, retire, forget)
	return nil
}
func (t *tripTxn) RecvDecide() error {
	t.g.log.recv("decide %d", t.g.id)
	if t.g.failDecide {
		return errors.New("not the leader")
	}
	return nil
}

// TestCrossShardRoundTrips pins the sequential exchanges a commit puts
// on its ack path: one scatter per phase plus the coordinator's commit
// point, the participants' retirement riding their decide, the
// coordinator's riding its next decide or Sync, and no ForgetTxn after
// a no-vote. The router's Stats count each commit by kind and the same
// number of exchanges as the rounds the log counts.
func TestCrossShardRoundTrips(t *testing.T) {
	var log tripLog
	gs := make([]Group, 4)
	tgs := make([]*tripGroup, 4)
	for i := range gs {
		tgs[i] = &tripGroup{id: i, log: &log, vote: true}
		gs[i] = tgs[i]
	}
	r, err := New(1, gs)
	if err != nil {
		t.Fatal(err)
	}
	owned := rowsOwnedBy(r, 256)
	// commit runs one transaction that reads at the groups in reads and
	// writes at those in writes, and returns its rounds and events. The
	// router's own counters must agree: one commit of the right kind,
	// and as many exchanges as the log counted rounds.
	commit := func(t *testing.T, reads, writes []int) (int, []string, error) {
		t.Helper()
		log.reset()
		before := r.Stats()
		tx, err := r.BeginUpdate()
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range reads {
			if _, _, err := tx.Read("item", owned[g][0]); err != nil {
				t.Fatal(err)
			}
		}
		for _, g := range writes {
			if err := tx.Write("item", owned[g][0], "v"); err != nil {
				t.Fatal(err)
			}
		}
		err = tx.Commit()
		rounds := log.rounds
		after := r.Stats()
		got := Stats{Single: after.Single - before.Single, Cross: after.Cross - before.Cross, Exchanges: after.Exchanges - before.Exchanges}
		want := Stats{Single: 1, Exchanges: int64(rounds)}
		if len(writes) >= 2 {
			want.Single, want.Cross = 0, 1
		}
		if got != want {
			t.Errorf("router stats moved by %+v, want %+v", got, want)
		}
		return rounds, log.reset(), err
	}
	id := func(seq int64) codec.TxnID { return codec.TxnID{Epoch: r.epoch, Seq: seq} }

	t.Run("read-at-A-write-at-B", func(t *testing.T) {
		rounds, ev, err := commit(t, []int{0}, []int{1})
		if err != nil || rounds != 1 {
			t.Fatalf("commit: %v after %d rounds, want 1: %q", err, rounds, ev)
		}
	})
	t.Run("two-writers", func(t *testing.T) {
		rounds, ev, err := commit(t, nil, []int{1, 0})
		want := []string{
			"send prepare 0 coord 0", "send prepare 1 coord 0", "recv prepare 0", "recv prepare 1",
			fmt.Sprintf("send decide 0 true %s retire false forget []", id(1)), "recv decide 0",
			fmt.Sprintf("send decide 1 true %s retire true forget []", id(1)), "recv decide 1",
		}
		if err != nil || rounds != 3 || fmt.Sprint(ev) != fmt.Sprint(want) {
			t.Fatalf("commit: %v after %d rounds, want 3:\n%q\nwant\n%q", err, rounds, ev, want)
		}
	})
	t.Run("three-writers", func(t *testing.T) {
		// The coordinator's decide retires the previous commit's
		// decision, and the participants' decides go out together.
		rounds, ev, err := commit(t, []int{3}, []int{2, 1, 0})
		want := []string{
			"send prepare 0 coord 0", "send prepare 1 coord 0", "send prepare 2 coord 0", "send commit 3",
			"recv prepare 0", "recv prepare 1", "recv prepare 2", "recv commit 3",
			fmt.Sprintf("send decide 0 true %s retire false forget [%s]", id(2), id(1)), "recv decide 0",
			fmt.Sprintf("send decide 1 true %s retire true forget []", id(2)),
			fmt.Sprintf("send decide 2 true %s retire true forget []", id(2)),
			"recv decide 1", "recv decide 2",
		}
		if err != nil || rounds != 3 || fmt.Sprint(ev) != fmt.Sprint(want) {
			t.Fatalf("commit: %v after %d rounds, want 3:\n%q\nwant\n%q", err, rounds, ev, want)
		}
	})
	t.Run("no-vote", func(t *testing.T) {
		tgs[2].vote = false
		defer func() { tgs[2].vote = true }()
		rounds, ev, err := commit(t, nil, []int{0, 1, 2})
		var aborted *repl.AbortedError
		if !errors.As(err, &aborted) || aborted.ConflictWith != 7 {
			t.Fatalf("commit = %v, want an abort with version 7", err)
		}
		want := []string{
			"send prepare 0 coord 0", "send prepare 1 coord 0", "send prepare 2 coord 0",
			"recv prepare 0", "recv prepare 1", "recv prepare 2",
			fmt.Sprintf("send decide 0 false %s retire true forget []", id(3)),
			fmt.Sprintf("send decide 1 false %s retire true forget []", id(3)),
			fmt.Sprintf("send decide 2 false %s retire true forget []", id(3)),
			"recv decide 0", "recv decide 1", "recv decide 2",
		}
		if rounds != 2 || fmt.Sprint(ev) != fmt.Sprint(want) {
			t.Fatalf("%d rounds, want 2:\n%q\nwant\n%q", rounds, ev, want)
		}
	})
	t.Run("redirected-decide", func(t *testing.T) {
		// A participant whose decide reply fails is decided through the
		// group's host-following DecideTxn, retiring in the same call.
		tgs[1].failDecide = true
		defer func() { tgs[1].failDecide = false }()
		rounds, ev, err := commit(t, nil, []int{0, 1})
		last := fmt.Sprintf("call decide 1 true %s retire [%s]", id(4), id(4))
		if err != nil || rounds != 4 || ev[len(ev)-1] != last {
			t.Fatalf("commit: %v after %d rounds, want 4 ending in %q: %q", err, rounds, last, ev)
		}
	})
	t.Run("sync-flushes-coordinator-ids", func(t *testing.T) {
		log.reset()
		r.Sync()
		want := []string{fmt.Sprintf("call forget 0 [%s]", id(4))}
		if ev := log.reset(); fmt.Sprint(ev) != fmt.Sprint(want) {
			t.Fatalf("Sync sent %q, want %q", ev, want)
		}
		r.Sync()
		if ev := log.reset(); len(ev) != 0 {
			t.Fatalf("second Sync sent %q, want nothing", ev)
		}
	})
}
