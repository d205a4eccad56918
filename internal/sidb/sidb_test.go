package sidb

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/writeset"
)

func newDB(t *testing.T, tables ...string) *DB {
	t.Helper()
	db := New()
	for _, tb := range tables {
		if err := db.CreateTable(tb); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func mustCommit(t *testing.T, tx *Txn) int64 {
	t.Helper()
	_, v, err := tx.Commit()
	if err != nil {
		t.Fatalf("commit: %v", err)
	}
	return v
}

func TestBasicReadWrite(t *testing.T) {
	db := newDB(t, "item")
	tx := db.Begin()
	if err := tx.Write("item", 1, "book"); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)

	tx2 := db.Begin()
	v, ok, err := tx2.Read("item", 1)
	if err != nil || !ok || v != "book" {
		t.Fatalf("read = %q, %v, %v", v, ok, err)
	}
	mustCommit(t, tx2)
}

func TestReadMissingRowAndTable(t *testing.T) {
	db := newDB(t, "item")
	tx := db.Begin()
	if _, ok, err := tx.Read("item", 404); ok || err != nil {
		t.Fatalf("missing row: ok=%v err=%v", ok, err)
	}
	if _, _, err := tx.Read("nope", 1); !errors.Is(err, ErrNoTable) {
		t.Fatalf("missing table err = %v", err)
	}
	if err := tx.Write("nope", 1, "x"); !errors.Is(err, ErrNoTable) {
		t.Fatalf("write to missing table err = %v", err)
	}
}

func TestSnapshotIsolationFromConcurrentCommit(t *testing.T) {
	db := newDB(t, "item")
	setup := db.Begin()
	setup.Write("item", 1, "old")
	mustCommit(t, setup)

	reader := db.Begin()
	writer := db.Begin()
	writer.Write("item", 1, "new")
	mustCommit(t, writer)

	// The reader's snapshot predates the writer's commit.
	v, ok, _ := reader.Read("item", 1)
	if !ok || v != "old" {
		t.Fatalf("snapshot leaked: %q %v", v, ok)
	}
	mustCommit(t, reader)

	// A fresh transaction sees the new value.
	after := db.Begin()
	v, _, _ = after.Read("item", 1)
	if v != "new" {
		t.Fatalf("fresh snapshot = %q", v)
	}
}

func TestReadYourOwnWrites(t *testing.T) {
	db := newDB(t, "item")
	tx := db.Begin()
	tx.Write("item", 7, "mine")
	v, ok, _ := tx.Read("item", 7)
	if !ok || v != "mine" {
		t.Fatalf("own write invisible: %q %v", v, ok)
	}
	tx.Delete("item", 7)
	if _, ok, _ := tx.Read("item", 7); ok {
		t.Fatal("own delete invisible")
	}
	tx.Abort()
}

func TestFirstCommitterWins(t *testing.T) {
	db := newDB(t, "item")
	seed := db.Begin()
	seed.Write("item", 1, "v0")
	mustCommit(t, seed)

	a := db.Begin()
	b := db.Begin()
	a.Write("item", 1, "a")
	b.Write("item", 1, "b")

	mustCommit(t, a)
	_, _, err := b.Commit()
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("second committer got %v, want ErrConflict", err)
	}
	_, aborts := db.Stats()
	if aborts != 1 {
		t.Fatalf("aborts = %d", aborts)
	}
}

func TestDisjointWritersBothCommit(t *testing.T) {
	db := newDB(t, "item")
	a := db.Begin()
	b := db.Begin()
	a.Write("item", 1, "a")
	b.Write("item", 2, "b")
	mustCommit(t, a)
	mustCommit(t, b)
}

func TestReadOnlyNeverAborts(t *testing.T) {
	db := newDB(t, "item")
	seed := db.Begin()
	seed.Write("item", 1, "x")
	mustCommit(t, seed)

	ro := db.Begin()
	ro.Read("item", 1)
	w := db.Begin()
	w.Write("item", 1, "y")
	mustCommit(t, w)

	ws, v, err := ro.Commit()
	if err != nil || !ws.Empty() {
		t.Fatalf("read-only commit: ws=%v err=%v", ws, err)
	}
	if v != ro.Snapshot() {
		t.Fatalf("read-only commit version %d != snapshot %d", v, ro.Snapshot())
	}
}

func TestWriteSkewPermitted(t *testing.T) {
	// SI's classic anomaly: two transactions each read the other's row
	// and write their own; both commit because their writesets are
	// disjoint. This documents that the engine is SI, not serializable.
	db := newDB(t, "oncall")
	seed := db.Begin()
	seed.Write("oncall", 1, "alice")
	seed.Write("oncall", 2, "bob")
	mustCommit(t, seed)

	a := db.Begin()
	b := db.Begin()
	a.Read("oncall", 2)
	a.Write("oncall", 1, "off")
	b.Read("oncall", 1)
	b.Write("oncall", 2, "off")
	mustCommit(t, a)
	mustCommit(t, b) // would abort under serializability
}

func TestGSIStaleSnapshot(t *testing.T) {
	// A reader opened at v1 stays open across later commits and keeps
	// reading v1: its snapshot goes stale the way a GSI replica's does.
	db := newDB(t, "item")
	tx := db.Begin()
	tx.Write("item", 1, "v1")
	v1 := mustCommit(t, tx)

	old := db.Begin()
	for i := 2; i <= 4; i++ {
		tx = db.Begin()
		tx.Write("item", 1, fmt.Sprintf("v%d", i))
		mustCommit(t, tx)
		v, ok, _ := old.Read("item", 1)
		if !ok || v != "v1" {
			t.Fatalf("after commit %d: stale snapshot read %q %v", i, v, ok)
		}
	}
	if old.Snapshot() != v1 {
		t.Fatalf("snapshot = %d, want %d", old.Snapshot(), v1)
	}
	old.Abort()
}

func TestGSIStaleWriterAborts(t *testing.T) {
	// A transaction on a stale snapshot conflicts with any commit it
	// did not observe that overlaps its writeset.
	db := newDB(t, "item")
	tx := db.Begin()
	tx.Write("item", 1, "v1")
	mustCommit(t, tx)
	stale := db.Begin()
	tx = db.Begin()
	tx.Write("item", 1, "v2")
	mustCommit(t, tx)

	stale.Write("item", 1, "late")
	if _, _, err := stale.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("stale writer got %v", err)
	}
}

func TestDeleteSemantics(t *testing.T) {
	db := newDB(t, "item")
	tx := db.Begin()
	tx.Write("item", 1, "x")
	mustCommit(t, tx)

	del := db.Begin()
	del.Delete("item", 1)
	ws, _, err := del.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if ws.Len() != 1 || !ws.Entries[0].Delete {
		t.Fatalf("delete writeset = %v", ws)
	}
	after := db.Begin()
	if _, ok, _ := after.Read("item", 1); ok {
		t.Fatal("deleted row visible")
	}
	n, _ := db.RowCount("item")
	if n != 0 {
		t.Fatalf("RowCount = %d", n)
	}
}

func TestUseAfterFinish(t *testing.T) {
	db := newDB(t, "item")
	tx := db.Begin()
	mustCommit(t, tx)
	if _, _, err := tx.Read("item", 1); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("read after commit: %v", err)
	}
	if err := tx.Write("item", 1, "x"); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("write after commit: %v", err)
	}
	if _, _, err := tx.Commit(); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("double commit: %v", err)
	}
	tx.Abort() // harmless
}

func TestAbortDiscardsWrites(t *testing.T) {
	db := newDB(t, "item")
	tx := db.Begin()
	tx.Write("item", 1, "x")
	tx.Abort()
	check := db.Begin()
	if _, ok, _ := check.Read("item", 1); ok {
		t.Fatal("aborted write visible")
	}
	if db.Version() != 0 {
		t.Fatalf("version advanced to %d", db.Version())
	}
}

func TestCreateTableTwice(t *testing.T) {
	db := newDB(t, "item")
	if err := db.CreateTable("item"); err == nil {
		t.Fatal("duplicate table accepted")
	}
	tables := db.Tables()
	if len(tables) != 1 || tables[0] != "item" {
		t.Fatalf("tables = %v", tables)
	}
}

func TestApplyWriteset(t *testing.T) {
	db := newDB(t)
	ws := writeset.Writeset{Entries: []writeset.Entry{
		{Key: writeset.Key{Table: "item", Row: 1}, Value: "remote"},
	}}
	if err := db.ApplyWriteset(ws, 5); err != nil {
		t.Fatal(err)
	}
	if db.Version() != 5 {
		t.Fatalf("version = %d", db.Version())
	}
	// Table was created implicitly.
	tx := db.Begin()
	v, ok, err := tx.Read("item", 1)
	if err != nil || !ok || v != "remote" {
		t.Fatalf("read after apply: %q %v %v", v, ok, err)
	}
	tx.Abort()

	// Stale or duplicate versions are rejected.
	if err := db.ApplyWriteset(ws, 5); !errors.Is(err, ErrStaleVersion) {
		t.Fatalf("stale apply: %v", err)
	}
	if err := db.ApplyWriteset(ws, 3); !errors.Is(err, ErrStaleVersion) {
		t.Fatalf("older apply: %v", err)
	}
}

func TestCommitAt(t *testing.T) {
	db := newDB(t, "item")
	tx := db.Begin()
	tx.Write("item", 1, "x")
	ws, err := tx.CommitAt(10)
	if err != nil || ws.Len() != 1 {
		t.Fatalf("CommitAt: %v %v", ws, err)
	}
	if db.Version() != 10 {
		t.Fatalf("version = %d", db.Version())
	}
	// CommitAt with a stale version fails.
	tx2 := db.Begin()
	tx2.Write("item", 2, "y")
	if _, err := tx2.CommitAt(10); !errors.Is(err, ErrStaleVersion) {
		t.Fatalf("stale CommitAt: %v", err)
	}
}

func TestWritesetExtraction(t *testing.T) {
	db := newDB(t, "item", "orders")
	tx := db.Begin()
	tx.Write("item", 1, "a")
	tx.Write("orders", 2, "b")
	tx.Write("item", 1, "a2") // overwrite collapses to one entry
	ws := tx.Writeset()
	if ws.Len() != 2 {
		t.Fatalf("writeset = %v", ws)
	}
	if ws.Entries[0].Value != "a2" {
		t.Fatalf("overwrite lost: %v", ws.Entries[0])
	}
	tx.Abort()
}

// TestTxnWritesetFirstWriteOrder: a writeset lists one entry per row
// in the order the rows were first written, deletes flagged.
func TestTxnWritesetFirstWriteOrder(t *testing.T) {
	db := newDB(t, "item", "orders")
	tx := db.Begin()
	tx.Write("item", 1, "a")
	tx.Write("item", 2, "b")
	tx.Delete("orders", 9)
	ws := tx.Writeset()
	want := []writeset.Entry{
		{Key: writeset.Key{Table: "item", Row: 1}, Value: "a"},
		{Key: writeset.Key{Table: "item", Row: 2}, Value: "b"},
		{Key: writeset.Key{Table: "orders", Row: 9}, Delete: true},
	}
	if !slices.Equal(ws.Entries, want) {
		t.Fatalf("writeset = %v, want %v", ws.Entries, want)
	}
	tx.Abort()
}

// TestTxnOverwriteKeepsOneEntry: rewriting a row replaces its entry in
// place; the writeset keeps the row's first-write position and its
// last value.
func TestTxnOverwriteKeepsOneEntry(t *testing.T) {
	db := newDB(t, "item")
	tx := db.Begin()
	tx.Write("item", 1, "a")
	tx.Write("item", 2, "x")
	tx.Write("item", 1, "b")
	ws := tx.Writeset()
	if ws.Len() != 2 || ws.Entries[0].Key.Row != 1 || ws.Entries[0].Value != "b" {
		t.Fatalf("overwrite: writeset = %v", ws.Entries)
	}
	tx.Abort()
}

// TestTxnPutThenDelete: a delete after a write leaves one delete entry,
// and a write after a delete one write entry.
func TestTxnPutThenDelete(t *testing.T) {
	db := newDB(t, "t")
	tx := db.Begin()
	tx.Write("t", 1, "x")
	tx.Delete("t", 1)
	tx.Delete("t", 2)
	tx.Write("t", 2, "y")
	ws := tx.Writeset()
	if ws.Len() != 2 || !ws.Entries[0].Delete || ws.Entries[1].Delete || ws.Entries[1].Value != "y" {
		t.Fatalf("last write per row lost: %v", ws.Entries)
	}
	tx.Abort()
}

// TestWritesetTakenMidTxn: a writeset taken mid-transaction is not
// changed by later writes to new rows or rewrites and deletes of rows
// it holds, while Read, Scan and Commit see the latest own write. Run
// with transactions small enough to scan their writes and large enough
// to index them.
func TestWritesetTakenMidTxn(t *testing.T) {
	for _, rows := range []int64{2, indexAbove + 4} {
		t.Run(fmt.Sprint(rows), func(t *testing.T) {
			db := newDB(t, "item")
			tx := db.Begin()
			for row := int64(0); row < rows; row++ {
				tx.Write("item", row, "first")
			}
			mid := tx.Writeset()
			snap := slices.Clone(mid.Entries)
			for row := int64(0); row < rows; row++ {
				tx.Write("item", row, "second") // rewrite a row mid holds
			}
			tx.Delete("item", 0)
			tx.Write("item", rows, "new") // a row mid does not hold
			if !slices.Equal(mid.Entries, snap) {
				t.Fatalf("mid-transaction writeset changed: %v, was %v", mid.Entries, snap)
			}
			if v, ok, _ := tx.Read("item", 1); !ok || v != "second" {
				t.Fatalf("Read own rewrite = %q %v", v, ok)
			}
			if _, ok, _ := tx.Read("item", 0); ok {
				t.Fatal("Read sees a row the transaction deleted")
			}
			scan, err := tx.Scan("item")
			if err != nil {
				t.Fatal(err)
			}
			if len(scan) != int(rows) || scan[1] != "second" || scan[rows] != "new" {
				t.Fatalf("Scan = %v", scan)
			}
			ws, _, err := tx.Commit()
			if err != nil {
				t.Fatal(err)
			}
			if ws.Len() != int(rows)+1 {
				t.Fatalf("committed writeset has %d entries, want %d", ws.Len(), rows+1)
			}
			dump, _ := db.Dump("item")
			if len(dump) != int(rows) || dump[1] != "second" || dump[rows] != "new" {
				t.Fatalf("installed rows = %v", dump)
			}
			if _, ok := dump[0]; ok {
				t.Fatal("deleted row installed")
			}
		})
	}
}

// TestManyWritesDedupe: a transaction far past the index threshold
// keeps one entry per row in first-write order, and its own reads see
// every rewrite.
func TestManyWritesDedupe(t *testing.T) {
	const rows = 500
	db := newDB(t, "item")
	tx := db.Begin()
	for pass := 0; pass < 3; pass++ {
		for row := int64(0); row < rows; row++ {
			tx.Write("item", row, fmt.Sprintf("p%d-%d", pass, row))
		}
	}
	if tx.index == nil {
		t.Fatalf("no write index after %d rows (threshold %d)", rows, indexAbove)
	}
	ws := tx.Writeset()
	if ws.Len() != rows {
		t.Fatalf("writeset has %d entries, want %d", ws.Len(), rows)
	}
	for i, e := range ws.Entries {
		if e.Key.Row != int64(i) || e.Value != fmt.Sprintf("p2-%d", i) {
			t.Fatalf("entry %d = %v", i, e)
		}
		if v, ok, _ := tx.Read("item", int64(i)); !ok || v != e.Value {
			t.Fatalf("Read(%d) = %q %v, want %q", i, v, ok, e.Value)
		}
	}
	tx.Abort()
}

// olderLen returns how many versions behind its head a row holds.
func olderLen(t *testing.T, db *DB, table string, key int64) int {
	t.Helper()
	db.mu.RLock()
	defer db.mu.RUnlock()
	r := db.tables[table].row(key)
	if r == nil {
		t.Fatalf("row %s/%d missing", table, key)
	}
	if r.older == nil {
		return 0
	}
	return len(*r.older)
}

func overwrite(t *testing.T, db *DB, table string, key int64, value string) {
	t.Helper()
	tx := db.Begin()
	if err := tx.Write(table, key, value); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
}

func TestGCKeepsVisibleVersions(t *testing.T) {
	db := newDB(t, "item")
	for i := 0; i < 2; i++ {
		overwrite(t, db, "item", 1, fmt.Sprintf("v%d", i))
	}
	// An open reader pins version 2's visibility horizon while later
	// commits prune the chain.
	old := db.Begin()
	for i := 2; i < 5; i++ {
		overwrite(t, db, "item", 1, fmt.Sprintf("v%d", i))
	}
	v, ok, _ := old.Read("item", 1)
	if !ok || v != "v1" { // commit i wrote version i+1
		t.Fatalf("pinned snapshot read %q %v after pruning", v, ok)
	}
	// Pruning keeps the reader's v1 and everything after it.
	if n := olderLen(t, db, "item", 1); n != 3 {
		t.Fatalf("chain holds %d older versions, want 3 (v1..v3)", n)
	}
	old.Abort()

	// With no reader open the next write keeps only the version a
	// snapshot at the current version could still read.
	overwrite(t, db, "item", 1, "v5")
	if n := olderLen(t, db, "item", 1); n != 1 {
		t.Fatalf("chain holds %d older versions after the reader left, want 1", n)
	}
	if got := db.Versions(); got != 2 {
		t.Fatalf("Versions = %d, want 2", got)
	}
	tx := db.Begin()
	v, _, _ = tx.Read("item", 1)
	if v != "v5" {
		t.Fatalf("latest after pruning = %q", v)
	}
	tx.Abort()
}

// TestPruneBoundsChains: overwriting one row 10,000 times with no
// reader open leaves at most one version behind the head; a reader
// opened before the overwrites keeps reading its own value throughout,
// and the first write after it aborts drops that value.
func TestPruneBoundsChains(t *testing.T) {
	db := newDB(t, "item")
	overwrite(t, db, "item", 1, "base")
	for i := 0; i < 10000; i++ {
		overwrite(t, db, "item", 1, fmt.Sprintf("w%d", i))
		if n := olderLen(t, db, "item", 1); n > 1 {
			t.Fatalf("overwrite %d: chain holds %d older versions", i, n)
		}
	}
	if got := db.Versions(); got > 2 {
		t.Fatalf("Versions = %d after 10000 overwrites, want <= 2", got)
	}

	reader := db.Begin()
	want, _, _ := reader.Read("item", 1)
	for i := 0; i < 10000; i++ {
		overwrite(t, db, "item", 1, fmt.Sprintf("r%d", i))
		if v, ok, err := reader.Read("item", 1); err != nil || !ok || v != want {
			t.Fatalf("overwrite %d: reader saw %q %v %v, want %q", i, v, ok, err, want)
		}
	}
	reader.Abort()
	overwrite(t, db, "item", 1, "after")
	db.mu.RLock()
	older := *db.tables["item"].row(1).older
	db.mu.RUnlock()
	if len(older) > 1 || db.Versions() > 2 {
		t.Fatalf("chain holds %d older versions (%d in all) after the reader aborted", len(older), db.Versions())
	}
	for _, ov := range older {
		if ov.value == want {
			t.Fatalf("reader's value %q survived its abort", want)
		}
	}
}

// TestChainShrinksAfterReader: a reader held open across 1,000
// overwrites grows the row's chain; once it is released, the next
// write gives the peak capacity back.
func TestChainShrinksAfterReader(t *testing.T) {
	db := newDB(t, "item")
	overwrite(t, db, "item", 1, "base")
	reader := db.Begin()
	for i := 0; i < 1000; i++ {
		overwrite(t, db, "item", 1, fmt.Sprintf("r%d", i))
	}
	chainCap := func() int {
		db.mu.RLock()
		defer db.mu.RUnlock()
		return cap(*db.tables["item"].row(1).older)
	}
	if c := chainCap(); c < 1000 {
		t.Fatalf("chain capacity %d with the reader open, want >= 1000", c)
	}
	reader.Abort()
	overwrite(t, db, "item", 1, "after")
	if c := chainCap(); c > chainKeepCap {
		t.Fatalf("chain capacity %d after the reader left, want <= %d", c, chainKeepCap)
	}
	tx := db.Begin()
	defer tx.Abort()
	if v, ok, _ := tx.Read("item", 1); !ok || v != "after" {
		t.Fatalf("latest = %q %v", v, ok)
	}
}

// TestVersionsCountsRowsAndTombstones: a load counts one version per
// row, and deletes keep their tombstone as the row's head.
func TestVersionsCountsRowsAndTombstones(t *testing.T) {
	db := newDB(t, "item")
	load(t, db, "item", 100, "v")
	if got := db.Versions(); got != 100 {
		t.Fatalf("Versions after load = %d, want 100", got)
	}
	tx := db.Begin()
	for row := int64(0); row < 10; row++ {
		tx.Delete("item", row)
	}
	mustCommit(t, tx)
	if got := db.Versions(); got != 110 {
		t.Fatalf("Versions after deletes = %d, want 110 (10 tombstones over their rows)", got)
	}
	if n, _ := db.RowCount("item"); n != 90 {
		t.Fatalf("RowCount = %d, want 90", n)
	}
}

func TestStatsCounting(t *testing.T) {
	db := newDB(t, "item")
	a := db.Begin()
	a.Write("item", 1, "x")
	mustCommit(t, a)
	b := db.Begin()
	b.Write("item", 1, "y")
	c := db.Begin()
	c.Write("item", 1, "z")
	mustCommit(t, b)
	c.Commit() // conflicts
	commits, aborts := db.Stats()
	if commits != 2 || aborts != 1 {
		t.Fatalf("stats = %d commits, %d aborts", commits, aborts)
	}
}

func TestConcurrentCounterNoLostUpdates(t *testing.T) {
	// A classic lost-update check: goroutines increment a counter with
	// retry-on-conflict; the final value must equal the number of
	// successful increments, which must equal the attempts.
	db := newDB(t, "counter")
	seed := db.Begin()
	seed.Write("counter", 1, "0")
	mustCommit(t, seed)

	const workers = 8
	const perWorker = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				for {
					tx := db.Begin()
					v, _, err := tx.Read("counter", 1)
					if err != nil {
						t.Error(err)
						return
					}
					var n int
					fmt.Sscanf(v, "%d", &n)
					tx.Write("counter", 1, fmt.Sprintf("%d", n+1))
					if _, _, err := tx.Commit(); err == nil {
						break
					} else if !errors.Is(err, ErrConflict) {
						t.Errorf("unexpected error: %v", err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	tx := db.Begin()
	v, _, _ := tx.Read("counter", 1)
	tx.Abort()
	want := fmt.Sprintf("%d", workers*perWorker)
	if v != want {
		t.Fatalf("counter = %s, want %s (lost updates!)", v, want)
	}
}

func TestConcurrentDisjointWritersAllCommit(t *testing.T) {
	db := newDB(t, "item")
	const workers = 16
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			tx := db.Begin()
			tx.Write("item", int64(w), "x")
			if _, _, err := tx.Commit(); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("disjoint writer aborted: %v", err)
	}
	n, _ := db.RowCount("item")
	if n != workers {
		t.Fatalf("rows = %d", n)
	}
}

func TestVersionsMonotonic(t *testing.T) {
	db := newDB(t, "item")
	var last int64
	for i := 0; i < 20; i++ {
		tx := db.Begin()
		tx.Write("item", int64(i%3), "v")
		v := mustCommit(t, tx)
		if v <= last {
			t.Fatalf("version went backwards: %d after %d", v, last)
		}
		last = v
	}
}
