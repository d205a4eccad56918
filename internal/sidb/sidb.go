// Package sidb is an in-memory multi-version storage engine providing
// snapshot isolation (SI) and generalized snapshot isolation (GSI),
// the concurrency-control substrate of the paper's replicated systems.
// It stands in for PostgreSQL running at the "serializable" (snapshot)
// isolation level in the authors' prototypes (§5).
//
// Semantics implemented:
//
//   - Every transaction receives a snapshot: the version of the last
//     committed state visible at begin time (Begin), or an explicitly
//     older version for GSI replicas (BeginAt), and reads exclusively
//     from it plus its own writes.
//   - Read-only transactions always commit; they never block or abort
//     and never cause update transactions to block or abort.
//   - Update transactions commit only if no concurrent committed
//     transaction wrote an overlapping row (first-committer-wins
//     write-write conflict detection at row granularity).
//   - Committing produces a Writeset that captures the transaction's
//     effects for certification and update propagation, the way the
//     prototype extracts writesets with triggers (§4.1.1).
//   - ApplyWriteset installs a remote transaction's effects at an
//     explicit global version, the slave/replica proxy path.
//
// The engine is safe for concurrent use. One RWMutex guards the table
// registry and every row: the read-only transactions that dominate the
// TPC-W and RUBiS mixes share it, and update commits serialize on a
// commit mutex (version assignment must be total), taking the write
// lock only while installing their rows. The version counter and
// active-snapshot table live under a small dedicated lock of their own.
package sidb

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/writeset"
)

// Common errors.
var (
	// ErrConflict reports a write-write conflict with a concurrently
	// committed transaction; the transaction was aborted.
	ErrConflict = errors.New("sidb: write-write conflict")
	// ErrTxnDone reports use of a committed or aborted transaction.
	ErrTxnDone = errors.New("sidb: transaction already finished")
	// ErrNoTable reports an operation on an unknown table.
	ErrNoTable = errors.New("sidb: no such table")
	// ErrStaleVersion reports applying a writeset at a version not
	// newer than the database's current version.
	ErrStaleVersion = errors.New("sidb: writeset version not newer than database version")
)

// rowVersion is one committed version of a row.
type rowVersion struct {
	version int64
	value   string
	deleted bool
}

// row is a version chain, ascending by version.
type row struct {
	versions []rowVersion
}

// visible returns the newest version at or below snapshot.
func (r *row) visible(snapshot int64) (rowVersion, bool) {
	// Version chains are short (GC keeps them trimmed); scan from the
	// newest end.
	for i := len(r.versions) - 1; i >= 0; i-- {
		if r.versions[i].version <= snapshot {
			return r.versions[i], true
		}
	}
	return rowVersion{}, false
}

// latest returns the newest committed version number of the row.
func (r *row) latest() int64 {
	if len(r.versions) == 0 {
		return 0
	}
	return r.versions[len(r.versions)-1].version
}

// table is one named table's rows.
type table struct {
	rows map[int64]*row
}

// DB is a snapshot-isolated multi-version database.
type DB struct {
	// commitMu serializes state mutation: update commits, writeset
	// application and GC. Read-only transactions never
	// take it.
	commitMu sync.Mutex

	// journal, when set, observes every writeset about to be installed
	// (local commits and applied remote writesets alike)
	// with the version it will be installed at. It runs under commitMu,
	// so invocations arrive in exact version order — the apply stream a
	// write-ahead log replays to rebuild this database. A journal error
	// aborts the installation.
	journal func(ws writeset.Writeset, version int64) error

	// mu guards tables, the registry and every row in it; reads take
	// it shared.
	mu     sync.RWMutex
	tables map[string]*table

	// stateMu guards the version counter, the active-snapshot table
	// and the commit/abort counters.
	stateMu sync.Mutex
	version int64 // version of the latest committed state
	active  map[int64]int
	commits int64
	aborts  int64
}

// New creates an empty database.
func New() *DB {
	return &DB{
		tables: make(map[string]*table),
		active: make(map[int64]int),
	}
}

// SetJournal attaches the apply-time journal hook. Set it before the
// database takes traffic (typically right after WAL replay); it is not
// synchronized against in-flight commits.
func (db *DB) SetJournal(j func(ws writeset.Writeset, version int64) error) {
	db.journal = j
}

// journalInstall runs the journal hook for an imminent installation.
// The caller holds commitMu.
func (db *DB) journalInstall(ws writeset.Writeset, version int64) error {
	if db.journal == nil {
		return nil
	}
	if err := db.journal(ws, version); err != nil {
		return fmt.Errorf("sidb: journal: %w", err)
	}
	return nil
}

// CreateTable adds an empty table; creating an existing table is an
// error.
func (db *DB) CreateTable(name string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.tables[name]; ok {
		return fmt.Errorf("sidb: table %q already exists", name)
	}
	db.tables[name] = &table{rows: make(map[int64]*row)}
	return nil
}

// hasTable reports whether the table exists.
func (db *DB) hasTable(name string) bool {
	db.mu.RLock()
	_, ok := db.tables[name]
	db.mu.RUnlock()
	return ok
}

// Tables returns the table names in sorted order.
func (db *DB) Tables() []string {
	db.mu.RLock()
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	db.mu.RUnlock()
	sort.Strings(names)
	return names
}

// Version returns the version of the latest committed state.
func (db *DB) Version() int64 {
	db.stateMu.Lock()
	defer db.stateMu.Unlock()
	return db.version
}

// Stats returns the number of committed and aborted update
// transactions (read-only commits are not counted).
func (db *DB) Stats() (commits, aborts int64) {
	db.stateMu.Lock()
	defer db.stateMu.Unlock()
	return db.commits, db.aborts
}

// Begin starts a transaction on the latest committed snapshot (SI).
func (db *DB) Begin() *Txn {
	db.stateMu.Lock()
	defer db.stateMu.Unlock()
	return db.beginLocked(db.version)
}

// BeginAt starts a transaction on an explicit snapshot version, which
// may be older than the latest (GSI). It is capped at the current
// version: a replica cannot observe the future.
func (db *DB) BeginAt(snapshot int64) *Txn {
	db.stateMu.Lock()
	defer db.stateMu.Unlock()
	if snapshot > db.version {
		snapshot = db.version
	}
	if snapshot < 0 {
		snapshot = 0
	}
	return db.beginLocked(snapshot)
}

func (db *DB) beginLocked(snapshot int64) *Txn {
	db.active[snapshot]++
	return &Txn{db: db, snapshot: snapshot}
}

// oldestActiveLocked returns the oldest snapshot still in use, or the
// current version when idle. The caller must hold stateMu.
func (db *DB) oldestActiveLocked() int64 {
	oldest := db.version
	for v := range db.active {
		if v < oldest {
			oldest = v
		}
	}
	return oldest
}

// release marks a transaction's snapshot as no longer in use.
func (db *DB) release(snapshot int64) {
	db.stateMu.Lock()
	defer db.stateMu.Unlock()
	db.releaseLocked(snapshot)
}

func (db *DB) releaseLocked(snapshot int64) {
	if n := db.active[snapshot]; n <= 1 {
		delete(db.active, snapshot)
	} else {
		db.active[snapshot] = n - 1
	}
}

// readRow returns the row version visible at snapshot under one
// shared lock. ok reports whether the table exists; visible whether
// the row has a version at or below snapshot.
func (db *DB) readRow(k writeset.Key, snapshot int64) (v rowVersion, visible, ok bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[k.Table]
	if !ok {
		return rowVersion{}, false, false
	}
	r, found := t.rows[k.Row]
	if !found {
		return rowVersion{}, false, true
	}
	v, visible = r.visible(snapshot)
	return v, visible, true
}

// latestVersion returns the newest committed version of a row, 0 when
// the row has never been written. Callers hold commitMu, so the chain
// cannot change underfoot; the shared lock orders the lookup after a
// concurrent CreateTable.
func (db *DB) latestVersion(k writeset.Key) int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[k.Table]
	if !ok {
		return 0
	}
	r, ok := t.rows[k.Row]
	if !ok {
		return 0
	}
	return r.latest()
}

// ApplyWriteset installs a remote transaction's writeset at the given
// global version. Versions must arrive in increasing order (the
// replica proxy applies writesets in commit order); unknown tables are
// created implicitly because a propagated writeset is authoritative.
func (db *DB) ApplyWriteset(ws writeset.Writeset, version int64) error {
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	if version <= db.version {
		return fmt.Errorf("%w: %d <= %d", ErrStaleVersion, version, db.version)
	}
	if err := db.journalInstall(ws, version); err != nil {
		return err
	}
	db.install(ws, version)
	db.advance(version, false)
	return nil
}

// ApplyBatch installs a run of writesets at the next consecutive
// versions (current+1 .. current+len(wss)) as one atomic batch — the
// applier's entry point. Each writeset is journaled and then installed
// in version order under commitMu, so a write-ahead log observes
// exactly the stream a serial ApplyWriteset loop would have produced.
// The version counter advances once, after the last install, so a
// concurrent reader's snapshot never admits a half-installed batch.
//
// It returns how many writesets were applied: on a journal error the
// writesets before the failing one stay installed and the error is
// returned with their count.
func (db *DB) ApplyBatch(wss []writeset.Writeset) (int, error) {
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	// All writers hold commitMu, so the version counter is stable here
	// without taking stateMu.
	base := db.version
	n := 0
	var err error
	for ; n < len(wss); n++ {
		if err = db.journalInstall(wss[n], base+int64(n)+1); err != nil {
			break
		}
		db.install(wss[n], base+int64(n)+1)
	}
	if n > 0 {
		db.advance(base+int64(n), false)
	}
	return n, err
}

// install writes every entry of ws as version v under the write lock.
// The caller must hold commitMu, and must advance the version counter
// (under stateMu) after install returns, so a concurrent reader's
// snapshot never admits a half-installed commit. Unknown tables are
// created: a propagated writeset is authoritative, and a local commit
// only writes tables it checked exist.
func (db *DB) install(ws writeset.Writeset, v int64) {
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, e := range ws.Entries {
		t, ok := db.tables[e.Key.Table]
		if !ok {
			t = &table{rows: make(map[int64]*row)}
			db.tables[e.Key.Table] = t
		}
		r, ok := t.rows[e.Key.Row]
		if !ok {
			r = &row{}
			t.rows[e.Key.Row] = r
		}
		r.versions = append(r.versions, rowVersion{version: v, value: e.Value, deleted: e.Delete})
	}
}

// advance publishes v as the latest committed version, optionally
// counting a commit. The caller must hold commitMu.
func (db *DB) advance(v int64, countCommit bool) {
	db.stateMu.Lock()
	db.version = v
	if countCommit {
		db.commits++
	}
	db.stateMu.Unlock()
}

// GC prunes row versions that no active or future snapshot can see:
// for each row, versions strictly older than the newest version at or
// below the oldest active snapshot are dropped. It returns the number
// of versions removed.
func (db *DB) GC() int {
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	// stateMu is held for the whole prune: a BeginAt racing the GC
	// could otherwise register a pre-horizon snapshot after the
	// horizon was computed and then read pruned state. Holding it
	// blocks Begin/Abort for the duration, which is what the seed's
	// single mutex did too.
	db.stateMu.Lock()
	defer db.stateMu.Unlock()
	horizon := db.oldestActiveLocked()
	db.mu.Lock()
	defer db.mu.Unlock()
	removed := 0
	for _, t := range db.tables {
		for _, r := range t.rows {
			keep := 0
			// Find the newest version <= horizon; everything before it
			// is invisible to every present and future snapshot.
			for i := len(r.versions) - 1; i >= 0; i-- {
				if r.versions[i].version <= horizon {
					keep = i
					break
				}
			}
			if keep > 0 {
				removed += keep
				r.versions = append([]rowVersion(nil), r.versions[keep:]...)
			}
		}
	}
	return removed
}

// RowCount returns the number of live rows in a table (latest visible
// version not deleted), for tests and loaders. It holds commitMu so
// the count never observes a half-installed commit.
func (db *DB) RowCount(tableName string) (int, error) {
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[tableName]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoTable, tableName)
	}
	n := 0
	for _, r := range t.rows {
		if len(r.versions) > 0 && !r.versions[len(r.versions)-1].deleted {
			n++
		}
	}
	return n, nil
}
