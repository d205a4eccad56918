package router

import (
	"testing"

	"repro/internal/codec"
	"repro/internal/repl"
)

// stubGroup is a Group whose transactions are two shared no-op Txns,
// one per class, so allocation counts see only the router's own
// bookkeeping.
type stubGroup struct {
	Group
	ro, rw stubTxn
}

func newStubGroup() *stubGroup { return &stubGroup{rw: stubTxn{writes: true}} }

func (g *stubGroup) BeginRead() (repl.Txn, error)   { return &g.ro, nil }
func (g *stubGroup) BeginUpdate() (repl.Txn, error) { return &g.rw, nil }

type stubTxn struct{ writes bool }

func (*stubTxn) Read(string, int64) (string, bool, error)                { return "v", true, nil }
func (*stubTxn) Write(string, int64, string) error                       { return nil }
func (*stubTxn) Delete(string, int64) error                              { return nil }
func (*stubTxn) Commit() error                                           { return nil }
func (*stubTxn) Abort()                                                  {}
func (t *stubTxn) HasWrites() bool                                       { return t.writes }
func (*stubTxn) SendCommit() error                                       { return nil }
func (*stubTxn) RecvCommit() error                                       { return nil }
func (*stubTxn) SendPrepare(codec.TxnID, int64) error                    { return nil }
func (*stubTxn) RecvPrepare() (bool, int64, error)                       { return true, 0, nil }
func (*stubTxn) SendDecide(codec.TxnID, bool, bool, []codec.TxnID) error { return nil }
func (*stubTxn) RecvDecide() error                                       { return nil }

// TestRoutedTxnAllocs pins the router's per-transaction cost: a routed
// transaction allocates itself and its per-group slot slice, nothing
// per touched group or per commit — read-only or update, one group or
// all of them (bystanders that only read commit without a writer list),
// and a cross-shard commit neither: its id is a value, each phase is
// one scatter with no goroutine, channel or closure, and the
// coordinator's retirements reuse their lists.
func TestRoutedTxnAllocs(t *testing.T) {
	gs := []Group{newStubGroup(), newStubGroup(), newStubGroup()}
	r, err := New(1, gs)
	if err != nil {
		t.Fatal(err)
	}
	owned := rowsOwnedBy(r, 64)
	for _, tc := range []struct {
		name     string
		readOnly bool
		rows     []int64
	}{
		{"read-one-row", true, []int64{0}},
		{"read-every-group", true, rowsUpTo(64)},
		{"update-one-row", false, []int64{0}},
		{"cross-two-writers", false, []int64{owned[0][0], owned[1][0]}},
		{"cross-three-writers", false, []int64{owned[2][0], owned[0][0], owned[1][0]}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			allocs := testing.AllocsPerRun(200, func() {
				tx, err := r.begin(tc.readOnly)
				if err != nil {
					t.Fatal(err)
				}
				for _, row := range tc.rows {
					if tc.readOnly {
						_, _, err = tx.Read("item", row)
					} else {
						err = tx.Write("item", row, "v")
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 2 {
				t.Fatalf("%s: %.2f allocs/op, want 2 (the rtxn and its group slots)", tc.name, allocs)
			}
		})
	}
}

// rowsUpTo returns rows 0..n-1.
func rowsUpTo(n int64) []int64 {
	rows := make([]int64, n)
	for i := range rows {
		rows[i] = int64(i)
	}
	return rows
}

// TestAbortReachesEveryTouchedGroup: Abort aborts each begun
// sub-transaction exactly once and leaves untouched groups alone.
func TestAbortReachesEveryTouchedGroup(t *testing.T) {
	r, _ := groupsOf(t, 4, 64)
	owned := rowsOwnedBy(r, 64)
	tx, err := r.BeginUpdate()
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []int{2, 0, 2} {
		if err := tx.Write("item", owned[g][0], "doomed"); err != nil {
			t.Fatal(err)
		}
	}
	rt := tx.(*rtxn)
	if rt.subs[0] == nil || rt.subs[2] == nil {
		t.Fatal("touched groups 0 and 2 began no sub-transaction")
	}
	if rt.subs[1] != nil || rt.subs[3] != nil {
		t.Fatal("untouched groups began sub-transactions")
	}
	tx.Abort()
	for _, g := range []int{2, 0} {
		if err := rt.subs[g].Commit(); err == nil {
			t.Fatalf("group %d sub-transaction still open after Abort", g)
		}
	}
	if err := tx.Commit(); err == nil {
		t.Fatal("Commit after Abort succeeded")
	}
}
