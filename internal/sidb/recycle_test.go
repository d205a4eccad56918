package sidb

import (
	"fmt"
	"slices"
	"testing"
)

// TestBeginIntoOpenTxnPanics: beginning again in a Txn still open
// would drop its snapshot's release and pin that snapshot for good, so
// BeginInto refuses it. A zero, committed or aborted Txn begins again.
func TestBeginIntoOpenTxnPanics(t *testing.T) {
	db := newDB(t, "item")
	var tx Txn
	db.BeginInto(&tx) // a zero Txn
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("BeginInto on an open Txn did not panic")
			}
		}()
		db.BeginInto(&tx)
	}()
	mustCommit(t, &tx)
	db.BeginInto(&tx) // committed
	tx.Abort()
	db.BeginInto(&tx) // aborted
	tx.Abort()
	if len(db.active) != 0 {
		t.Fatalf("snapshots still pinned: %v", db.active)
	}
}

// TestBeginIntoLeavesHandedOutWritesetAlone: a finished transaction's
// writeset is owned by whoever took it — the certifier log, the WAL, a
// prepared 2PC fragment — so the next transaction begun in the same
// Txn must write into fresh storage, whether the writes were indexed
// or not, and whether the writeset was taken by Commit or by Writeset.
func TestBeginIntoLeavesHandedOutWritesetAlone(t *testing.T) {
	for _, rows := range []int64{2, indexAbove + 4} {
		t.Run(fmt.Sprint(rows), func(t *testing.T) {
			db := newDB(t, "item")
			var tx Txn
			db.BeginInto(&tx)
			for row := int64(0); row < rows; row++ {
				if err := tx.Write("item", row, "first"); err != nil {
					t.Fatal(err)
				}
			}
			committed, _, err := tx.Commit()
			if err != nil {
				t.Fatal(err)
			}
			db.BeginInto(&tx)
			for row := int64(0); row < rows; row++ {
				tx.Write("item", row, "second")
			}
			taken := tx.Writeset() // as Prepare takes it, then aborts
			tx.Abort()
			snap := slices.Clone(taken.Entries)

			db.BeginInto(&tx)
			for row := int64(0); row < 2*rows; row++ {
				tx.Write("item", row, "third")
			}
			tx.Delete("item", 0)
			for _, e := range committed.Entries {
				if e.Value != "first" {
					t.Fatalf("committed writeset changed: %v", committed.Entries)
				}
			}
			if !slices.Equal(taken.Entries, snap) {
				t.Fatalf("taken writeset changed: %v, was %v", taken.Entries, snap)
			}
			if v, ok, _ := tx.Read("item", 1); !ok || v != "third" {
				t.Fatalf("Read own write = %q %v", v, ok)
			}
			if got := tx.Writeset().Len(); got != int(2*rows) {
				t.Fatalf("new writeset has %d entries, want %d", got, 2*rows)
			}
			tx.Abort()
		})
	}
}
