package writeset

import (
	"testing"
	"testing/quick"
)

func TestEmptyWriteset(t *testing.T) {
	var ws Writeset
	if !ws.Empty() || ws.Len() != 0 {
		t.Fatal("zero writeset not empty")
	}
	if ws.String() != "{}" {
		t.Fatalf("String = %q", ws.String())
	}
	if ws.Bytes() != 0 {
		t.Fatalf("Bytes = %d", ws.Bytes())
	}
}

func TestConflicts(t *testing.T) {
	a := Writeset{Entries: []Entry{{Key: Key{"t", 1}}, {Key: Key{"t", 2}}}}
	b := Writeset{Entries: []Entry{{Key: Key{"t", 2}}}}
	c := Writeset{Entries: []Entry{{Key: Key{"t", 3}}, {Key: Key{"u", 1}}}}
	if !a.Conflicts(b) || !b.Conflicts(a) {
		t.Fatal("overlapping writesets must conflict")
	}
	if a.Conflicts(c) {
		t.Fatal("disjoint writesets must not conflict")
	}
	var empty Writeset
	if a.Conflicts(empty) || empty.Conflicts(a) || empty.Conflicts(empty) {
		t.Fatal("empty writesets never conflict")
	}
	// Same row id in a different table is not a conflict.
	d := Writeset{Entries: []Entry{{Key: Key{"u", 1}}}}
	e := Writeset{Entries: []Entry{{Key: Key{"t", 1}}}}
	if d.Conflicts(e) {
		t.Fatal("same row in different tables conflicted")
	}
}

func TestKeysSorted(t *testing.T) {
	ws := Writeset{Entries: []Entry{
		{Key: Key{"z", 5}}, {Key: Key{"a", 9}}, {Key: Key{"a", 2}},
	}}
	keys := ws.Keys()
	want := []Key{{"a", 2}, {"a", 9}, {"z", 5}}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("keys = %v", keys)
		}
	}
}

func TestBytesEstimate(t *testing.T) {
	ws := Writeset{Entries: []Entry{{Key: Key{"item", 1}, Value: "hello"}}}
	// 4 (table) + 8 (row id) + 5 (value) + 1 (flag) = 18
	if ws.Bytes() != 18 {
		t.Fatalf("Bytes = %d", ws.Bytes())
	}
}

func TestStringDeterministic(t *testing.T) {
	ws := Writeset{Entries: []Entry{{Key: Key{"b", 2}}, {Key: Key{"a", 1}}}}
	if ws.String() != "{a/1 b/2}" {
		t.Fatalf("String = %q", ws.String())
	}
}

func TestQuickConflictSymmetry(t *testing.T) {
	mk := func(rows []uint8) Writeset {
		var ws Writeset
		for _, r := range rows {
			ws.Entries = append(ws.Entries, Entry{Key: Key{"t", int64(r % 16)}})
		}
		return ws
	}
	f := func(a, b []uint8) bool {
		x, y := mk(a), mk(b)
		return x.Conflicts(y) == y.Conflicts(x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickConflictMatchesNaive(t *testing.T) {
	mk := func(rows []uint8) Writeset {
		var ws Writeset
		for _, r := range rows {
			ws.Entries = append(ws.Entries, Entry{Key: Key{"t", int64(r % 8)}})
		}
		return ws
	}
	naive := func(a, b Writeset) bool {
		for _, x := range a.Entries {
			for _, y := range b.Entries {
				if x.Key == y.Key {
					return true
				}
			}
		}
		return false
	}
	f := func(a, b []uint8) bool {
		x, y := mk(a), mk(b)
		return x.Conflicts(y) == naive(x, y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestNewWrapsEntries: New hands back exactly the entries it was
// given, and the empty writeset stays empty.
func TestNewWrapsEntries(t *testing.T) {
	entries := []Entry{
		{Key: Key{Table: "a", Row: 1}, Value: "x"},
		{Key: Key{Table: "b", Row: 2}, Delete: true},
	}
	ws := New(entries)
	if ws.Len() != 2 || &ws.Entries[0] != &entries[0] {
		t.Fatalf("New copied or dropped entries: %v", ws.Entries)
	}
	if !New(nil).Empty() {
		t.Fatal("New(nil) not empty")
	}
}

func TestConflictsAllCacheCombinations(t *testing.T) {
	mk := func(cached bool, rows ...int64) Writeset {
		entries := make([]Entry, len(rows))
		for i, r := range rows {
			entries[i] = Entry{Key: Key{Table: "t", Row: r}, Value: "v"}
		}
		if cached {
			return New(entries)
		}
		return Writeset{Entries: entries}
	}
	for _, aCached := range []bool{false, true} {
		for _, bCached := range []bool{false, true} {
			a := mk(aCached, 1, 2, 3)
			b := mk(bCached, 3, 4)
			c := mk(bCached, 4, 5)
			if !a.Conflicts(b) || !b.Conflicts(a) {
				t.Fatalf("cached=%v/%v: overlap missed", aCached, bCached)
			}
			if a.Conflicts(c) || c.Conflicts(a) {
				t.Fatalf("cached=%v/%v: phantom conflict", aCached, bCached)
			}
			empty := Writeset{}
			if a.Conflicts(empty) || empty.Conflicts(a) {
				t.Fatalf("cached=%v/%v: empty conflicted", aCached, bCached)
			}
		}
	}
}
