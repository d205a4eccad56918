package sidb

import (
	"encoding/binary"
	"maps"
	"strconv"
	"testing"
)

// FuzzTableRows drives one table through a fuzzed stream of writes,
// deletes, reads, scans and commits on random ids — negative, sparse
// and on page edges — and checks every answer against a map model.
// A reader opened mid-stream must keep seeing the model as it was.
//
// Each operation is one byte, low three bits the verb, followed (for
// the verbs that take one) by an id: a byte below 16 picks an edge id,
// one below 128 is a small id around 0, and anything else starts an
// 8-byte id.
func FuzzTableRows(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 2, 1, 3, 5})
	f.Add([]byte{0, 6, 0, 7, 1, 6, 3, 4, 0, 8, 1, 7, 3, 5, 6, 2, 7})
	f.Add([]byte{0, 200, 1, 2, 3, 4, 5, 6, 7, 8, 3, 1, 0x80, 0, 0, 0, 0, 0, 0, 0, 3, 6})
	f.Add([]byte{0, 64, 0, 127, 0, 63, 3, 4, 1, 63, 1, 64, 3, 5, 0, 63, 3, 6, 2, 63})
	f.Fuzz(func(t *testing.T, data []byte) {
		db := newDB(t, "t")
		model := make(map[int64]string) // committed rows
		pend := make(map[int64]*string) // the open transaction's writes; nil deletes
		tx := db.Begin()
		var reader *Txn
		var readerModel map[int64]string

		// view is what the open transaction should see.
		view := func() map[int64]string {
			v := maps.Clone(model)
			for id, val := range pend {
				if val == nil {
					delete(v, id)
				} else {
					v[id] = *val
				}
			}
			return v
		}
		nextID := func() (int64, bool) {
			if len(data) == 0 {
				return 0, false
			}
			b := data[0]
			data = data[1:]
			switch {
			case b < 16:
				return edgeIDs[int(b)%len(edgeIDs)], true
			case b < 128:
				return int64(b) - 80, true
			case len(data) >= 8:
				id := int64(binary.LittleEndian.Uint64(data))
				data = data[8:]
				return id, true
			default:
				return int64(b) << 48, true
			}
		}
		checkReader := func() {
			if reader == nil {
				return
			}
			got, err := reader.Scan("t")
			if err != nil || !maps.Equal(got, readerModel) {
				t.Fatalf("reader's Scan = %v, %v; want %v", got, err, readerModel)
			}
		}
		commit := func() {
			if _, _, err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			model = view()
			clear(pend)
			if n, err := db.RowCount("t"); err != nil || n != len(model) {
				t.Fatalf("RowCount = %d, %v; want %d", n, err, len(model))
			}
			tx = db.Begin()
		}

		for step := 0; len(data) > 0; step++ {
			op := data[0] & 7
			data = data[1:]
			switch op {
			case 0, 1: // write, delete
				id, ok := nextID()
				if !ok {
					break
				}
				if op == 0 {
					v := "s" + strconv.Itoa(step)
					if err := tx.Write("t", id, v); err != nil {
						t.Fatal(err)
					}
					pend[id] = &v
				} else {
					if err := tx.Delete("t", id); err != nil {
						t.Fatal(err)
					}
					pend[id] = nil
				}
			case 2: // read
				id, ok := nextID()
				if !ok {
					break
				}
				want, wantOK := view()[id]
				if got, gotOK, err := tx.Read("t", id); err != nil || got != want || gotOK != wantOK {
					t.Fatalf("Read(%d) = %q %v %v, want %q %v", id, got, gotOK, err, want, wantOK)
				}
			case 3:
				commit()
			case 4: // open a reader on the committed state
				checkReader()
				if reader != nil {
					reader.Abort()
				}
				reader, readerModel = db.Begin(), maps.Clone(model)
			case 5:
				if got, err := tx.Scan("t"); err != nil || !maps.Equal(got, view()) {
					t.Fatalf("Scan = %v, %v; want %v", got, err, view())
				}
			case 6:
				checkReader()
			case 7:
				if got, err := db.Dump("t"); err != nil || !maps.Equal(got, model) {
					t.Fatalf("Dump = %v, %v; want %v", got, err, model)
				}
			}
		}
		commit()
		checkReader()
		if got, err := db.Dump("t"); err != nil || !maps.Equal(got, model) {
			t.Fatalf("final Dump = %v, %v; want %v", got, err, model)
		}
		tx.Abort()
		if reader != nil {
			reader.Abort()
		}
	})
}
