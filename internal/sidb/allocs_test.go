package sidb

import (
	"testing"

	"repro/internal/writeset"
)

// TestReadOnlyTxnAllocs: a read-only Begin/Read/Commit allocates only
// its Txn — no write map and no writeset — however many rows it reads.
func TestReadOnlyTxnAllocs(t *testing.T) {
	db := newDB(t, "item")
	w := db.Begin()
	for row := int64(0); row < 8; row++ {
		if err := w.Write("item", row, "stock=91"); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, w)
	allocs := testing.AllocsPerRun(200, func() {
		tx := db.Begin()
		for row := int64(0); row < 8; row++ {
			if _, ok, err := tx.Read("item", row); err != nil || !ok {
				t.Fatalf("read row %d: ok=%v err=%v", row, ok, err)
			}
		}
		mustCommit(t, tx)
	})
	if allocs > 1 {
		t.Fatalf("read-only transaction: %.2f allocs/op, want 1 (the Txn)", allocs)
	}
}

// rowsWriteset writes value to rows [from, from+n) of table.
func rowsWriteset(table string, from, n int64, value string) writeset.Writeset {
	ws := writeset.Writeset{Entries: make([]writeset.Entry, n)}
	for i := range ws.Entries {
		ws.Entries[i] = writeset.Entry{Key: writeset.Key{Table: table, Row: from + int64(i)}, Value: value}
	}
	return ws
}

// TestApplyBatchOverwriteAllocs: in steady state, applying a writeset
// that overwrites existing rows allocates nothing — the new version
// lands in the row's inline head and the pruned chain reuses its
// backing array.
func TestApplyBatchOverwriteAllocs(t *testing.T) {
	db := newDB(t, "item")
	batch := []writeset.Writeset{rowsWriteset("item", 0, 4, "stock=90")}
	for i := 0; i < 3; i++ { // load, then grow each chain to its working length
		if _, err := db.ApplyBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if n, err := db.ApplyBatch(batch); n != 1 || err != nil {
			t.Fatalf("ApplyBatch = %d, %v", n, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("overwriting 4 rows: %.2f allocs/op, want 0", allocs)
	}
	if got := db.Versions(); got != 8 {
		t.Fatalf("Versions = %d after repeated overwrites, want 8 (a head and one older version per row)", got)
	}
}

// TestLoadAllocs: installing a fresh 512-row load chunk allocates only
// for the database, its table and the table map's growth — nothing per
// row.
func TestLoadAllocs(t *testing.T) {
	const rows = 512
	ws := rowsWriteset("item", 0, rows, "item-row")
	allocs := testing.AllocsPerRun(50, func() {
		db := New()
		if err := db.ApplyWriteset(ws, 1); err != nil {
			t.Fatal(err)
		}
	})
	if perRow := allocs / rows; perRow >= 0.05 {
		t.Fatalf("loading %d rows: %.0f allocs (%.3f/row), want < 0.05/row", rows, allocs, perRow)
	}
	t.Logf("loading %d rows: %.0f allocs", rows, allocs)
}
