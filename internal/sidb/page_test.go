package sidb

import (
	"errors"
	"maps"
	"math"
	"slices"
	"strconv"
	"testing"

	"repro/internal/writeset"
)

// edgeIDs are row ids a paged table can get wrong: both ends of a
// page, both sides of zero, the int64 extremes and sparse ids.
var edgeIDs = []int64{
	0, 63, 64, -1, -64, -65,
	math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1,
	1 << 40, -(1 << 40) + 5, 987_654_321_012,
}

// TestPagedRowIDs: every edge id reads back its own value, its
// unwritten neighbours read absent, and Scan, ScanKeys, Dump and
// RowCount list exactly the ids written.
func TestPagedRowIDs(t *testing.T) {
	db := newDB(t, "t")
	want := make(map[int64]string)
	w := db.Begin()
	for _, id := range edgeIDs {
		v := "id=" + strconv.FormatInt(id, 10)
		if err := w.Write("t", id, v); err != nil {
			t.Fatal(err)
		}
		want[id] = v
	}
	mustCommit(t, w)

	tx := db.Begin()
	defer tx.Abort()
	for _, id := range edgeIDs {
		if v, ok, err := tx.Read("t", id); err != nil || !ok || v != want[id] {
			t.Fatalf("Read(%d) = %q %v %v, want %q", id, v, ok, err, want[id])
		}
	}
	for _, id := range []int64{1, 62, 65, 127, 128, -2, -63, -66, -128, math.MinInt64 + 2, math.MaxInt64 - 2, 1<<40 + 1} {
		if v, ok, err := tx.Read("t", id); err != nil || ok {
			t.Fatalf("Read(%d) of an unwritten id = %q %v %v, want absent", id, v, ok, err)
		}
	}
	if scan, err := tx.Scan("t"); err != nil || !maps.Equal(scan, want) {
		t.Fatalf("Scan = %v, %v; want %v", scan, err, want)
	}
	if dump, err := db.Dump("t"); err != nil || !maps.Equal(dump, want) {
		t.Fatalf("Dump = %v, %v; want %v", dump, err, want)
	}
	if keys, err := tx.ScanKeys("t"); err != nil || !slices.Equal(keys, slices.Sorted(maps.Keys(want))) {
		t.Fatalf("ScanKeys = %v, %v", keys, err)
	}
	if n, err := db.RowCount("t"); err != nil || n != len(edgeIDs) {
		t.Fatalf("RowCount = %d, %v; want %d", n, err, len(edgeIDs))
	}
	// 0 and 63 share a page, as do -1 and -64, and each int64 extreme
	// with its neighbour; every other id has a page of its own.
	if got, wantPages := len(db.tables["t"].pages), len(edgeIDs)-4; got != wantPages {
		t.Fatalf("%d pages for %d ids, want %d", got, len(edgeIDs), wantPages)
	}
}

// TestPagedTombstonesAndHoles: deleted rows, rows never written on a
// page that holds others, and deletes of never-written ids stay out
// of Scan, Dump and RowCount, while a snapshot taken before the
// deletes still sees what it saw.
func TestPagedTombstonesAndHoles(t *testing.T) {
	db := newDB(t, "t")
	live := make(map[int64]string)
	w := db.Begin()
	for id := int64(-100); id < 200; id++ {
		if id%3 == 0 {
			continue // a hole
		}
		v := "v" + strconv.FormatInt(id, 10)
		if err := w.Write("t", id, v); err != nil {
			t.Fatal(err)
		}
		live[id] = v
	}
	mustCommit(t, w)
	before := maps.Clone(live)
	old := db.Begin()
	defer old.Abort()

	d := db.Begin()
	for id := int64(-100); id < 200; id += 5 {
		if err := d.Delete("t", id); err != nil { // holes too: a tombstone on an empty slot
			t.Fatal(err)
		}
		delete(live, id)
	}
	for _, id := range []int64{math.MinInt64, math.MaxInt64, 1 << 50} {
		if err := d.Delete("t", id); err != nil { // a page holding only a tombstone
			t.Fatal(err)
		}
	}
	mustCommit(t, d)

	if scan, err := old.Scan("t"); err != nil || !maps.Equal(scan, before) {
		t.Fatalf("old snapshot's Scan changed by the deletes: %d rows, %v; want %d", len(scan), err, len(before))
	}
	if dump, err := db.Dump("t"); err != nil || !maps.Equal(dump, live) {
		t.Fatalf("Dump after deletes: %d rows, %v; want %d", len(dump), err, len(live))
	}
	if n, err := db.RowCount("t"); err != nil || n != len(live) {
		t.Fatalf("RowCount = %d, %v; want %d", n, err, len(live))
	}
	if _, ok, _ := db.Begin().Read("t", math.MaxInt64); ok {
		t.Fatal("a deleted, never-written id reads present")
	}

	// A tombstoned row written again comes back.
	r := db.Begin()
	if err := r.Write("t", 5, "again"); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, r)
	live[5] = "again"
	if dump, err := db.Dump("t"); err != nil || !maps.Equal(dump, live) {
		t.Fatalf("Dump after rewrite: %d rows, %v; want %d", len(dump), err, len(live))
	}
	if n, _ := db.RowCount("t"); n != len(live) {
		t.Fatalf("RowCount after rewrite = %d, want %d", n, len(live))
	}
}

// TestInstallRejectsVersionBelowOne: no path installs at a version
// below 1, so a slot whose stamp is 0 is always empty.
func TestInstallRejectsVersionBelowOne(t *testing.T) {
	db := newDB(t, "t")
	ws := writeset.New([]writeset.Entry{{Key: writeset.Key{Table: "t", Row: 7}, Value: "x"}})
	for _, v := range []int64{0, -1, math.MinInt64} {
		if err := db.ApplyWriteset(ws, v); !errors.Is(err, ErrStaleVersion) {
			t.Fatalf("ApplyWriteset at version %d: %v, want ErrStaleVersion", v, err)
		}
		tx := db.Begin()
		if err := tx.Write("t", 7, "x"); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.CommitAt(v); !errors.Is(err, ErrStaleVersion) {
			t.Fatalf("CommitAt(%d): %v, want ErrStaleVersion", v, err)
		}
	}
	if n := db.Versions(); n != 0 {
		t.Fatalf("rejected installs left %d versions", n)
	}
	if _, ok, _ := db.Begin().Read("t", 7); ok {
		t.Fatal("a rejected install is visible")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("install at version 0 did not panic")
			}
		}()
		db.commitMu.Lock()
		defer db.commitMu.Unlock()
		db.install(ws, 0)
	}()
	if err := db.ApplyWriteset(ws, 1); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := db.Begin().Read("t", 7); !ok || v != "x" {
		t.Fatalf("install at version 1: read %q %v", v, ok)
	}
}
