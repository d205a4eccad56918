package sidb

import "testing"

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
