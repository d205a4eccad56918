package sidb

import (
	"strconv"
	"testing"

	"repro/internal/repl"
	"repro/internal/writeset"
)

// TestReadOnlyTxnAllocs: a read-only Begin/Read/Commit allocates only
// its Txn — no write slice and no writeset — however many rows it
// reads.
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

// TestBeginIntoAllocs: a read-only transaction begun in a reused Txn
// allocates nothing at all.
func TestBeginIntoAllocs(t *testing.T) {
	db := newDB(t, "item")
	if err := db.ApplyWriteset(writeset.New([]writeset.Entry{
		{Key: writeset.Key{Table: "item", Row: 1}, Value: "stock=91"},
	}), 1); err != nil {
		t.Fatal(err)
	}
	var tx Txn
	allocs := testing.AllocsPerRun(200, func() {
		db.BeginInto(&tx)
		if _, ok, err := tx.Read("item", 1); err != nil || !ok {
			t.Fatalf("read: ok=%v err=%v", ok, err)
		}
		mustCommit(t, &tx)
	})
	if allocs != 0 {
		t.Fatalf("BeginInto/Read/Commit: %.2f allocs/op, want 0", allocs)
	}
}

// TestUpdateTxnAllocs: an update transaction that writes up to 4 rows
// and extracts its writeset allocates its Txn and one array of writes,
// nothing more — Writeset hands the array over uncopied.
func TestUpdateTxnAllocs(t *testing.T) {
	db := newDB(t, "item")
	for _, n := range []int64{1, 2, 4} {
		allocs := testing.AllocsPerRun(200, func() {
			tx := db.Begin()
			for row := int64(0); row < n; row++ {
				if err := tx.Write("item", row, "stock=91"); err != nil {
					t.Fatal(err)
				}
			}
			if ws := tx.Writeset(); ws.Len() != int(n) {
				t.Fatalf("writeset has %d entries, want %d", ws.Len(), n)
			}
			tx.Abort()
		})
		if allocs > 2 {
			t.Fatalf("%d writes: %.2f allocs/op, want <= 2 (the Txn and its writes)", n, allocs)
		}
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

// TestLoadAllocs: installing a fresh load record, cut by repl.Chunks
// as the loader cuts it, allocates only for the database, its table
// and the table map's growth — nothing per row.
func TestLoadAllocs(t *testing.T) {
	var ws writeset.Writeset
	ids, values := repl.Rows(1<<15, func(r int64) string { return "item-row-" + strconv.FormatInt(r, 10) })
	if err := repl.Chunks(ids, values, func(ids []int64, values []string) error {
		if ws.Entries == nil {
			ws = writeset.Rows("item", ids, values)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	rows := len(ws.Entries)
	if rows == len(ids) {
		t.Fatalf("all %d rows fit one record; the test wants a full one", rows)
	}
	allocs := testing.AllocsPerRun(50, func() {
		db := New()
		if err := db.ApplyWriteset(ws, 1); err != nil {
			t.Fatal(err)
		}
	})
	if perRow := allocs / float64(rows); perRow >= 0.05 {
		t.Fatalf("loading %d rows: %.0f allocs (%.3f/row), want < 0.05/row", rows, allocs, perRow)
	}
	t.Logf("loading %d rows: %.0f allocs", rows, allocs)
}
