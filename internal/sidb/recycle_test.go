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

// TestBeginIntoReusesReleasedWrites: once ReleaseWrites says nothing
// holds a finished transaction's writeset, the next transaction begun
// in the same Txn writes into that array, cleared; without the release
// the writeset taken stays intact while the next transaction writes.
func TestBeginIntoReusesReleasedWrites(t *testing.T) {
	db := newDB(t, "item")
	var tx Txn
	db.BeginInto(&tx)
	tx.Write("item", 1, "first")
	tx.Write("item", 2, "first")
	sent := tx.Writeset() // as a proxy sends it to a remote certifier
	tx.Abort()
	tx.ReleaseWrites()

	db.BeginInto(&tx)
	if v, ok, _ := tx.Read("item", 1); ok {
		t.Fatalf("a released write leaked into the next transaction: %q", v)
	}
	tx.Write("item", 3, "second")
	kept := tx.Writeset() // as the certifier host's log keeps it
	if &kept.Entries[0] != &sent.Entries[0] {
		t.Fatal("the next transaction did not reuse the released write array")
	}
	if got := kept.Entries[0]; got.Key.Row != 3 || got.Value != "second" || len(kept.Entries) != 1 {
		t.Fatalf("reused array holds %v, want the one new write", kept.Entries)
	}
	if _, _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	db.BeginInto(&tx)
	tx.Write("item", 4, "third")
	tx.Write("item", 5, "third")
	if got := kept.Entries[0]; len(kept.Entries) != 1 || got.Key.Row != 3 || got.Value != "second" {
		t.Fatalf("an unreleased writeset changed to %v after the next transaction wrote", kept.Entries)
	}
	tx.Abort()
}
