package sidb

import (
	"fmt"
	"slices"

	"repro/internal/writeset"
)

const (
	// firstWrites is the room a transaction's first write reserves:
	// the paper's TPC-W and RUBiS update templates write at most 4 rows.
	firstWrites = 4
	// indexAbove is the number of distinct rows past which a
	// transaction indexes its writes by key, so a client that sends
	// many writes never makes dedupe quadratic. Below it a scan of the
	// write slice is cheaper than a map.
	indexAbove = 8
)

// Txn is a snapshot-isolated transaction. It is not safe for
// concurrent use by multiple goroutines (like database connections,
// each session owns its transaction); distinct Txns may run
// concurrently. A finished Txn may begin again through DB.BeginInto.
type Txn struct {
	db       *DB
	snapshot int64
	// writes holds one entry per written row, in first-write order; a
	// rewrite replaces its row's entry in place. It is nil until the
	// first write, so read-only transactions never allocate it.
	writes []writeset.Entry
	// index maps a key to its entry in writes once the transaction has
	// written more than indexAbove rows; nil before that.
	index map[writeset.Key]int
	// shared is set once Writeset has handed writes out; the next
	// in-place rewrite copies the slice first, so a writeset taken
	// mid-transaction never changes.
	shared bool
	// released is set by ReleaseWrites: nothing holds the write array
	// any more, so the next BeginInto reuses it.
	released bool
	done     bool
}

// Snapshot returns the version this transaction reads from.
func (tx *Txn) Snapshot() int64 { return tx.snapshot }

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
	if i := tx.find(k); i >= 0 {
		e := tx.writes[i]
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

// find returns the index of key's entry in writes, -1 if the
// transaction has not written it.
func (tx *Txn) find(key writeset.Key) int {
	if tx.index != nil {
		if i, ok := tx.index[key]; ok {
			return i
		}
		return -1
	}
	for i := range tx.writes {
		if tx.writes[i].Key == key {
			return i
		}
	}
	return -1
}

// record stores a pending write, keeping first-write order. Appending
// never disturbs a writeset already handed out (Writeset clips it to
// its length), so only a rewrite of an existing entry copies a shared
// slice.
func (tx *Txn) record(e writeset.Entry) {
	if i := tx.find(e.Key); i >= 0 {
		if tx.shared {
			tx.writes = slices.Clone(tx.writes)
			tx.shared = false
		}
		tx.writes[i] = e
		return
	}
	if tx.writes == nil {
		tx.writes = make([]writeset.Entry, 0, firstWrites)
	}
	tx.writes = append(tx.writes, e)
	switch {
	case tx.index != nil:
		tx.index[e.Key] = len(tx.writes) - 1
	case len(tx.writes) > indexAbove:
		tx.index = make(map[writeset.Key]int, 2*len(tx.writes))
		for i, w := range tx.writes {
			tx.index[w.Key] = i
		}
	}
}

// Writeset extracts the transaction's current writeset without
// finishing the transaction — the proxy's "eager writeset extraction"
// used for early certification (§5.1). It hands out the transaction's
// own write slice, clipped to its length and uncopied; later writes
// leave it unchanged (see record). Commit, CommitAt and the
// multi-master proxy take it as their last step, so committing never
// copies the writes.
func (tx *Txn) Writeset() writeset.Writeset {
	n := len(tx.writes)
	tx.shared = true
	return writeset.New(tx.writes[:n:n])
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

	if err := tx.db.checkNext(version); err != nil {
		return writeset.Writeset{}, err
	}
	if err := tx.db.journalInstall(ws, version); err != nil {
		return writeset.Writeset{}, err
	}
	tx.db.install(ws, version)
	tx.db.advance(version, true)
	return ws, nil
}

// ReleaseWrites declares that no writeset this transaction handed out
// is still in use, so the next transaction begun in this Txn by
// DB.BeginInto reuses the write array instead of allocating one. Only
// the holder of every handed-out writeset may call it: a proxy whose
// writeset went into a request that is encoded and gone. A writeset
// kept anywhere — a certifier log, a prepared fragment — must never be
// released.
func (tx *Txn) ReleaseWrites() { tx.released = true }

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
