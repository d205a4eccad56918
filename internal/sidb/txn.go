package sidb

import (
	"fmt"

	"repro/internal/writeset"
)

// Txn is a snapshot-isolated transaction. It is not safe for
// concurrent use by multiple goroutines (like database connections,
// each session owns its transaction); distinct Txns may run
// concurrently.
type Txn struct {
	db       *DB
	snapshot int64
	writes   map[writeset.Key]writeset.Entry
	order    []writeset.Key
	done     bool
}

// Snapshot returns the version this transaction reads from.
func (tx *Txn) Snapshot() int64 { return tx.snapshot }

// ReadOnly reports whether the transaction has performed no writes.
func (tx *Txn) ReadOnly() bool { return len(tx.writes) == 0 }

// Read returns the value of (table, key) visible to the transaction:
// its own write if present, else the newest committed version at or
// below its snapshot. ok is false for rows absent or deleted in the
// snapshot. It takes the database's lock once, shared, so concurrent
// readers do not block one another.
func (tx *Txn) Read(tableName string, key int64) (value string, ok bool, err error) {
	if tx.done {
		return "", false, ErrTxnDone
	}
	k := writeset.Key{Table: tableName, Row: key}
	if e, mine := tx.writes[k]; mine {
		if e.Delete {
			return "", false, nil
		}
		return e.Value, true, nil
	}
	v, visible, ok := tx.db.readRow(k, tx.snapshot)
	if !ok {
		return "", false, fmt.Errorf("%w: %q", ErrNoTable, tableName)
	}
	if !visible || v.deleted() {
		return "", false, nil
	}
	return v.value, true, nil
}

// Write records a row write, visible to subsequent Reads of this
// transaction and installed at commit.
func (tx *Txn) Write(tableName string, key int64, value string) error {
	if tx.done {
		return ErrTxnDone
	}
	if !tx.db.hasTable(tableName) {
		return fmt.Errorf("%w: %q", ErrNoTable, tableName)
	}
	tx.record(writeset.Entry{Key: writeset.Key{Table: tableName, Row: key}, Value: value})
	return nil
}

// Delete records a row deletion.
func (tx *Txn) Delete(tableName string, key int64) error {
	if tx.done {
		return ErrTxnDone
	}
	if !tx.db.hasTable(tableName) {
		return fmt.Errorf("%w: %q", ErrNoTable, tableName)
	}
	tx.record(writeset.Entry{Key: writeset.Key{Table: tableName, Row: key}, Delete: true})
	return nil
}

// record stores a pending write, keeping first-write order. The write
// map is made on the first write, so read-only transactions never
// allocate one.
func (tx *Txn) record(e writeset.Entry) {
	if tx.writes == nil {
		tx.writes = make(map[writeset.Key]writeset.Entry)
	}
	if _, ok := tx.writes[e.Key]; !ok {
		tx.order = append(tx.order, e.Key)
	}
	tx.writes[e.Key] = e
}

// Writeset extracts the transaction's current writeset without
// finishing the transaction — the proxy's "eager writeset extraction"
// used for early certification (§5.1). No key set is precomputed:
// the certifier's inverted index probes entries directly, so the
// commit path never compares writesets pairwise.
func (tx *Txn) Writeset() writeset.Writeset {
	entries := make([]writeset.Entry, 0, len(tx.order))
	for _, k := range tx.order {
		entries = append(entries, tx.writes[k])
	}
	return writeset.Writeset{Entries: entries}
}

// Commit finishes the transaction under first-committer-wins SI.
//
// Read-only transactions always commit and return an empty writeset
// with the transaction's snapshot version. Update transactions commit
// only if none of their written rows has a committed version newer
// than the snapshot; on success the writeset is installed at a fresh
// version, which is returned. On conflict the transaction aborts with
// ErrConflict.
func (tx *Txn) Commit() (writeset.Writeset, int64, error) {
	if tx.done {
		return writeset.Writeset{}, 0, ErrTxnDone
	}
	tx.done = true
	ws := tx.Writeset()

	if ws.Empty() {
		tx.db.release(tx.snapshot)
		return ws, tx.snapshot, nil
	}
	// Committers serialize on commitMu: the conflict check, version
	// assignment and install form one atomic step with respect to
	// every other state mutation. Read-only transactions are never
	// behind this lock.
	tx.db.commitMu.Lock()
	defer tx.db.commitMu.Unlock()
	defer tx.db.release(tx.snapshot)

	for _, e := range ws.Entries {
		if tx.db.latestVersion(e.Key) > tx.snapshot {
			tx.db.stateMu.Lock()
			tx.db.aborts++
			tx.db.stateMu.Unlock()
			return writeset.Writeset{}, 0, fmt.Errorf("%w: row %s", ErrConflict, e.Key)
		}
	}
	v := tx.db.version + 1
	if err := tx.db.journalInstall(ws, v); err != nil {
		return writeset.Writeset{}, 0, err
	}
	tx.db.install(ws, v)
	tx.db.advance(v, true)
	return ws, v, nil
}

// CommitAt installs the transaction's writeset at an externally
// assigned version without a local conflict check — the multi-master
// proxy path where the certifier has already certified the transaction
// and assigned its global version. Read-only transactions just finish.
func (tx *Txn) CommitAt(version int64) (writeset.Writeset, error) {
	if tx.done {
		return writeset.Writeset{}, ErrTxnDone
	}
	tx.done = true
	ws := tx.Writeset()

	if ws.Empty() {
		tx.db.release(tx.snapshot)
		return ws, nil
	}
	tx.db.commitMu.Lock()
	defer tx.db.commitMu.Unlock()
	defer tx.db.release(tx.snapshot)

	if version <= tx.db.version {
		return writeset.Writeset{}, fmt.Errorf("%w: %d <= %d", ErrStaleVersion, version, tx.db.version)
	}
	if err := tx.db.journalInstall(ws, version); err != nil {
		return writeset.Writeset{}, err
	}
	tx.db.install(ws, version)
	tx.db.advance(version, true)
	return ws, nil
}

// Abort discards the transaction. Aborting twice is harmless.
func (tx *Txn) Abort() {
	if tx.done {
		return
	}
	tx.done = true
	tx.db.stateMu.Lock()
	tx.db.releaseLocked(tx.snapshot)
	if len(tx.writes) > 0 {
		tx.db.aborts++
	}
	tx.db.stateMu.Unlock()
}
