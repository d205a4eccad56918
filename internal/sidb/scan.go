package sidb

import (
	"fmt"
	"sort"
)

// Scan returns every row of the table visible to the transaction's
// snapshot (including the transaction's own writes), keyed by row id.
// The result is a private copy.
func (tx *Txn) Scan(tableName string) (map[int64]string, error) {
	if tx.done {
		return nil, ErrTxnDone
	}
	tx.db.mu.RLock()
	t, ok := tx.db.tables[tableName]
	if !ok {
		tx.db.mu.RUnlock()
		return nil, fmt.Errorf("%w: %q", ErrNoTable, tableName)
	}
	out := make(map[int64]string, len(t.rows))
	for key, r := range t.rows {
		if v, ok := r.visible(tx.snapshot); ok && !v.deleted() {
			out[key] = v.value
		}
	}
	tx.db.mu.RUnlock()

	// Overlay the transaction's own pending writes.
	for k, e := range tx.writes {
		if k.Table != tableName {
			continue
		}
		if e.Delete {
			delete(out, k.Row)
		} else {
			out[k.Row] = e.Value
		}
	}
	return out, nil
}

// ScanKeys returns the visible row ids of a table in ascending order.
func (tx *Txn) ScanKeys(tableName string) ([]int64, error) {
	rows, err := tx.Scan(tableName)
	if err != nil {
		return nil, err
	}
	keys := make([]int64, 0, len(rows))
	for k := range rows {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys, nil
}

// Dump returns a consistent snapshot of a table's live contents using
// a throwaway read-only transaction.
func (db *DB) Dump(tableName string) (map[int64]string, error) {
	tx := db.Begin()
	defer tx.Abort()
	return tx.Scan(tableName)
}
