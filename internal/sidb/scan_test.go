package sidb

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/writeset"
)

// load fills rows [0, n) of table with value at the next version.
func load(t testing.TB, db *DB, table string, n int, value string) {
	t.Helper()
	values := make([]string, n)
	for i := range values {
		values[i] = value
	}
	if err := db.ApplyWriteset(writeset.FromRows(table, 0, values), db.Version()+1); err != nil {
		t.Fatal(fmt.Errorf("load %s: %w", table, err))
	}
}

func TestScanVisibleRows(t *testing.T) {
	db := newDB(t, "item")
	load(t, db, "item", 5, "v")
	tx := db.Begin()
	rows, err := tx.Scan("item")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("scan = %d rows", len(rows))
	}
	tx.Abort()
}

func TestScanRespectsSnapshot(t *testing.T) {
	db := newDB(t, "item")
	load(t, db, "item", 3, "old")
	reader := db.Begin()
	w := db.Begin()
	w.Write("item", 0, "new")
	w.Write("item", 9, "extra")
	mustCommit(t, w)
	rows, err := reader.Scan("item")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || rows[0] != "old" {
		t.Fatalf("snapshot scan leaked: %v", rows)
	}
	reader.Abort()
}

func TestScanIncludesOwnWrites(t *testing.T) {
	db := newDB(t, "item")
	load(t, db, "item", 2, "base")
	tx := db.Begin()
	tx.Write("item", 5, "mine")
	tx.Delete("item", 0)
	rows, err := tx.Scan("item")
	if err != nil {
		t.Fatal(err)
	}
	if rows[5] != "mine" {
		t.Fatalf("own write missing: %v", rows)
	}
	if _, ok := rows[0]; ok {
		t.Fatalf("own delete visible: %v", rows)
	}
	if len(rows) != 2 { // row 1 base + row 5 mine
		t.Fatalf("scan = %v", rows)
	}
	tx.Abort()
}

func TestScanKeysSorted(t *testing.T) {
	db := newDB(t, "item")
	load(t, db, "item", 4, "v")
	tx := db.Begin()
	keys, err := tx.ScanKeys("item")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			t.Fatalf("keys not sorted: %v", keys)
		}
	}
	tx.Abort()
}

func TestScanErrors(t *testing.T) {
	db := newDB(t, "item")
	tx := db.Begin()
	if _, err := tx.Scan("missing"); !errors.Is(err, ErrNoTable) {
		t.Fatalf("missing table: %v", err)
	}
	tx.Abort()
	if _, err := tx.Scan("item"); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("done txn: %v", err)
	}
}

func TestDumpMatchesScan(t *testing.T) {
	db := newDB(t, "item")
	load(t, db, "item", 10, "v")
	d, err := db.Dump("item")
	if err != nil || len(d) != 10 {
		t.Fatalf("dump: %v %v", len(d), err)
	}
}

func TestQuickScanMatchesPointReads(t *testing.T) {
	// Property: for random write/delete sequences, Scan agrees with
	// per-row Reads for every key it reports and omits exactly the
	// deleted/missing keys.
	f := func(ops []uint16) bool {
		db := New()
		if err := db.CreateTable("t"); err != nil {
			return false
		}
		tx := db.Begin()
		for _, op := range ops {
			row := int64(op % 32)
			if op%3 == 0 {
				tx.Delete("t", row)
			} else {
				tx.Write("t", row, "x")
			}
		}
		if _, _, err := tx.Commit(); err != nil {
			return false
		}
		check := db.Begin()
		defer check.Abort()
		scan, err := check.Scan("t")
		if err != nil {
			return false
		}
		for row := int64(0); row < 32; row++ {
			v, ok, err := check.Read("t", row)
			if err != nil {
				return false
			}
			sv, sok := scan[row]
			if ok != sok || (ok && v != sv) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
