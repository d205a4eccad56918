package certifier

import (
	"math"
	"testing"

	"repro/internal/writeset"
)

// indexEdgeRows are row ids a paged index can get wrong: both ends of
// a page, both sides of zero (SchemaRow among them), and the int64
// extremes with their neighbours.
var indexEdgeRows = []int64{
	0, 63, 64, writeset.SchemaRow, -64, -65,
	math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1,
}

// indexTables are interleaved so a lookup's cached table and page go
// stale between operations. The empty name is the one a fresh index's
// cache starts at.
var indexTables = []string{"a", "", "ab"}

// FuzzConflictIndex drives the paged conflict index and a map model
// through the same sets, gets and prunes, and requires every answer
// and the key count to agree. Each operation is two bytes: the op and
// table, then the row (an edge id, or a small id either side of zero).
func FuzzConflictIndex(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 2, 2, 0, 3, 0, 2, 1})
	var all []byte
	for r := range indexEdgeRows {
		for tb := range indexTables {
			all = append(all, byte(tb<<2), byte(r), byte(tb<<2|2), byte(r))
		}
	}
	f.Add(all)
	f.Add(append(all, 3, 0, 7, 1, 11, 2, 3, 200, 4, 200, 2, 200))
	f.Fuzz(func(t *testing.T, ops []byte) {
		var x conflictIndex
		model := make(map[writeset.Key]int64)
		version := int64(0)
		for ; len(ops) >= 2; ops = ops[2:] {
			op, arg := ops[0], ops[1]
			k := writeset.Key{Table: indexTables[int(op>>2)%len(indexTables)]}
			if int(arg) < len(indexEdgeRows) {
				k.Row = indexEdgeRows[arg]
			} else {
				k.Row = int64(int8(arg)) * 37
			}
			switch op & 3 {
			case 0, 1:
				version++
				x.set(k, version)
				model[k] = version
			case 2:
				if got, want := x.get(k), model[k]; got != want {
					t.Fatalf("get(%v) = %d, want %d", k, got, want)
				}
			case 3:
				upTo := version - int64(arg%4)
				x.prune(k, upTo)
				if v, ok := model[k]; ok && v <= upTo {
					delete(model, k)
				}
			}
			if x.live != len(model) {
				t.Fatalf("%d keys indexed, want %d", x.live, len(model))
			}
		}
		for _, tb := range indexTables {
			for _, row := range indexEdgeRows {
				k := writeset.Key{Table: tb, Row: row}
				if got, want := x.get(k), model[k]; got != want {
					t.Fatalf("final get(%v) = %d, want %d", k, got, want)
				}
			}
		}
		for k, want := range model {
			if got := x.get(k); got != want {
				t.Fatalf("final get(%v) = %d, want %d", k, got, want)
			}
		}
	})
}

// TestConflictIndexPages pins the page layout on the edge ids: 0 and
// 63 share a page, as do -1 and -64, and each int64 extreme shares one
// with its neighbour. A prune clears the slot and keeps the page.
func TestConflictIndexPages(t *testing.T) {
	var x conflictIndex
	for i, row := range indexEdgeRows {
		x.set(writeset.Key{Table: "t", Row: row}, int64(i+1))
	}
	if got, want := len(x.tables["t"]), len(indexEdgeRows)-4; got != want {
		t.Fatalf("%d pages for %d ids, want %d", got, len(indexEdgeRows), want)
	}
	for i, row := range indexEdgeRows {
		if got := x.get(writeset.Key{Table: "t", Row: row}); got != int64(i+1) {
			t.Fatalf("row %d holds %d, want %d", row, got, i+1)
		}
		x.prune(writeset.Key{Table: "t", Row: row}, int64(i+1))
	}
	if x.live != 0 || len(x.tables["t"]) != len(indexEdgeRows)-4 {
		t.Fatalf("after pruning every row: %d keys in %d pages, want 0 in %d",
			x.live, len(x.tables["t"]), len(indexEdgeRows)-4)
	}
	if got := x.get(writeset.Key{Table: "u", Row: 0}); got != 0 || len(x.tables) != 1 {
		t.Fatalf("a get on an unknown table = %d and left %d tables", got, len(x.tables))
	}
}
