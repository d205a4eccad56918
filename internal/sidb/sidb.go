// Package sidb is an in-memory multi-version storage engine providing
// snapshot isolation (SI) and generalized snapshot isolation (GSI),
// the concurrency-control substrate of the paper's replicated systems.
// It stands in for PostgreSQL running at the "serializable" (snapshot)
// isolation level in the authors' prototypes (§5).
//
// Semantics implemented:
//
//   - Every transaction receives a snapshot: the version of the last
//     committed state at begin time, and reads exclusively from it
//     plus its own writes. Under GSI a replica's snapshot may be older
//     than the globally latest version; that staleness comes from the
//     applier's pin (the replica begins at the version it has applied),
//     not from an older snapshot of this database.
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
//
// A row keeps its newest version inline and older versions in a short
// chain that every install prunes to what open snapshots can still
// see, so memory tracks the live data plus the open readers' view of
// it rather than the write history.
package sidb

import (
	"errors"
	"fmt"
	"iter"
	"slices"
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

// rowVersion is one committed version of a row. A deletion is a
// tombstone stored as the negated version, so no flag pads the struct
// to 32 bytes; installed versions start at 1, so the sign is
// unambiguous.
type rowVersion struct {
	stamp int64 // the version, negated for a tombstone
	value string
}

func newVersion(v int64, value string, deleted bool) rowVersion {
	if deleted {
		return rowVersion{stamp: -v}
	}
	return rowVersion{stamp: v, value: value}
}

func (rv rowVersion) version() int64 {
	if rv.stamp < 0 {
		return -rv.stamp
	}
	return rv.stamp
}

func (rv rowVersion) deleted() bool { return rv.stamp < 0 }

// row is a version chain: the newest committed version inline, and
// the older versions some open snapshot may still need, ascending by
// version. older stays nil until the row's first overwrite, so loading
// a table allocates nothing per row beyond its page slot. The chain
// sits behind a pointer to keep the row at 32 bytes: a page holds
// rows by value, empty slots included.
type row struct {
	head  rowVersion
	older *[]rowVersion
}

// visible returns the newest version at or below snapshot.
func (r *row) visible(snapshot int64) (rowVersion, bool) {
	if r.head.version() <= snapshot {
		return r.head, true
	}
	if r.older != nil {
		older := *r.older
		for i := len(older) - 1; i >= 0; i-- {
			if older[i].version() <= snapshot {
				return older[i], true
			}
		}
	}
	return rowVersion{}, false
}

// chainKeepCap is the chain capacity push never gives back: below it
// a steady-state chain reuses its backing array on every overwrite.
const chainKeepCap = 8

// push makes nv the row's head and prunes the chain to what a snapshot
// at or above horizon can see: the newest version at or below horizon
// and everything after it. The backing array is reused and the dropped
// tail cleared, so an overwrite allocates nothing once the chain has
// reached its working length and dropped values become garbage. A
// chain a long-lived reader grew past chainKeepCap is reallocated to
// fit once its kept versions fill at most a quarter of it. nv must be
// newer than horizon (installs always are). It returns the change in
// the number of versions the row holds.
func (r *row) push(nv rowVersion, horizon int64) int {
	if r.older == nil {
		r.older = new([]rowVersion)
	}
	before := len(*r.older)
	older := append(*r.older, r.head)
	r.head = nv
	// The versions at or below horizon are a prefix of the ascending
	// chain; keep its last one. Scanning from the front stops at once
	// when a long-lived reader holds the horizon back.
	keep := 0
	for keep+1 < len(older) && older[keep+1].version() <= horizon {
		keep++
	}
	kept := older[keep:]
	switch {
	case cap(older) > chainKeepCap && len(kept) <= cap(older)/4:
		older = slices.Clone(kept)
	case keep > 0:
		n := copy(older, kept)
		clear(older[n:])
		older = older[:n]
	}
	*r.older = older
	return len(older) - before
}

// pageBits sets how many consecutive row ids share a page: 64, a
// 2 KiB page. Catalog ids are dense, so a page is full or nearly so;
// a lone sparse id costs a whole page. Smaller pages load a dense
// table slower, and larger ones gain little on it while doubling a
// sparse id's cost (docs/PERF.md, "Load at memory speed", has the
// sweep).
const (
	pageBits = 6
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
)

// page holds the rows of pageSize consecutive ids. A slot whose head
// stamp is 0 holds no row: installed versions start at 1, and a
// tombstone's stamp is negative.
type page [pageSize]row

// table is one named table's rows, in pages keyed by id>>pageBits and
// indexed by id&pageMask. Installing a row writes its slot in place,
// so a load costs one map lookup per row and one insert per page, not
// a lookup and a store per row, and the map grows by pages, not rows.
type table struct {
	pages map[int64]*page
	rows  int // occupied slots, tombstones included
}

func newTable() *table { return &table{pages: make(map[int64]*page)} }

// row returns id's row, nil when the table has never held one.
func (t *table) row(id int64) *row {
	if p := t.pages[id>>pageBits]; p != nil {
		if r := &p[id&pageMask]; r.head.stamp != 0 {
			return r
		}
	}
	return nil
}

// slot returns id's slot for install to write through, adding its
// page when the table has none.
func (t *table) slot(id int64) *row {
	p := t.pages[id>>pageBits]
	if p == nil {
		p = new(page)
		t.pages[id>>pageBits] = p
	}
	return &p[id&pageMask]
}

// all yields every row the table holds, tombstones included, in no
// particular order.
func (t *table) all() iter.Seq2[int64, *row] {
	return func(yield func(int64, *row) bool) {
		for base, p := range t.pages {
			for i := range p {
				if p[i].head.stamp != 0 && !yield(base<<pageBits|int64(i), &p[i]) {
					return
				}
			}
		}
	}
}

// DB is a snapshot-isolated multi-version database.
type DB struct {
	// commitMu serializes state mutation: update commits and writeset
	// application. Read-only transactions never take it.
	commitMu sync.Mutex

	// journal, when set, observes every writeset about to be installed
	// (local commits and applied remote writesets alike) with the
	// version it will be installed at. It runs under commitMu, so
	// invocations arrive in exact version order. A node's write-ahead
	// log journals each as a record (wal.WAL.AppendRecord), writing
	// nothing for a version it already holds, such as one the certifier
	// journaled. A journal error aborts the installation.
	journal func(ws writeset.Writeset, version int64) error

	// mu guards tables, the registry and every row in it, and the
	// count of versions those rows hold; reads take it shared.
	mu       sync.RWMutex
	tables   map[string]*table
	versions int64

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
	db.tables[name] = newTable()
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

// Versions returns the number of row versions the database holds,
// deleted-row tombstones included: one per row plus whatever older
// versions open snapshots still pin.
func (db *DB) Versions() int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.versions
}

// Begin starts a transaction on the latest committed snapshot in a
// new Txn (see BeginInto).
func (db *DB) Begin() *Txn {
	tx := new(Txn)
	db.BeginInto(tx)
	return tx
}

// BeginInto starts a transaction on the latest committed snapshot in
// tx, which must be zero or finished: a session that runs one
// transaction at a time reuses one Txn instead of allocating one per
// transaction. It panics on a Txn still open, whose snapshot would
// otherwise stay pinned and hold back every chain's pruning for good.
// The new transaction starts with no writes. The previous one's write
// array is reused, cleared, only when ReleaseWrites said nothing holds
// it; otherwise the writeset Writeset handed out still owns it, and
// the new transaction allocates its own on its first write.
//
// Every snapshot is taken here, at the current version; install's
// pruning relies on that (see install).
func (db *DB) BeginInto(tx *Txn) {
	if tx.db != nil && !tx.done {
		panic("sidb: BeginInto on an open transaction")
	}
	db.stateMu.Lock()
	snapshot := db.version
	db.active[snapshot]++
	db.stateMu.Unlock()
	var writes []writeset.Entry
	if tx.released {
		clear(tx.writes)
		writes = tx.writes[:0]
	}
	*tx = Txn{db: db, snapshot: snapshot, writes: writes}
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
	r := t.row(k.Row)
	if r == nil {
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
	r := t.row(k.Row)
	if r == nil {
		return 0
	}
	return r.head.version()
}

// ApplyWriteset installs a remote transaction's writeset at the given
// global version. Versions must arrive in increasing order (the
// replica proxy applies writesets in commit order); unknown tables are
// created implicitly because a propagated writeset is authoritative.
func (db *DB) ApplyWriteset(ws writeset.Writeset, version int64) error {
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	if err := db.checkNext(version); err != nil {
		return err
	}
	if err := db.journalInstall(ws, version); err != nil {
		return err
	}
	db.install(ws, version)
	db.advance(version, false)
	return nil
}

// checkNext rejects installing at a version not newer than the
// current one. The current version starts at 0 and only advances, so
// every install lands at version 1 or above and a stamp of 0 never
// reaches a row: it marks an empty page slot. The caller holds
// commitMu.
func (db *DB) checkNext(version int64) error {
	if version <= db.version {
		return fmt.Errorf("%w: %d <= %d", ErrStaleVersion, version, db.version)
	}
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

// install writes every entry of ws as version v under the write lock,
// pruning each written row's chain to what open snapshots can see.
// The caller must hold commitMu, and must advance the version counter
// (under stateMu) after install returns, so a concurrent reader's
// snapshot never admits a half-installed commit. Unknown tables are
// created: a propagated writeset is authoritative, and a local commit
// only writes tables it checked exist.
//
// The horizon is the oldest open snapshot, read once under stateMu,
// which is then released before mu is taken. That is safe because
// Begin is the only way to open a snapshot and it always takes the
// current version, and the current version cannot move while the
// caller holds commitMu: a transaction that begins after the horizon
// is read gets a snapshot at or above it, which sees only the newest
// version at or below the horizon or later ones — exactly what the
// prune keeps.
func (db *DB) install(ws writeset.Writeset, v int64) {
	if v < 1 {
		panic(fmt.Sprintf("sidb: install at version %d", v))
	}
	db.stateMu.Lock()
	horizon := db.oldestActiveLocked()
	db.stateMu.Unlock()

	db.mu.Lock()
	defer db.mu.Unlock()
	for _, e := range ws.Entries {
		t, ok := db.tables[e.Key.Table]
		if !ok {
			t = newTable()
			db.tables[e.Key.Table] = t
		}
		nv := newVersion(v, e.Value, e.Delete)
		r := t.slot(e.Key.Row)
		if r.head.stamp == 0 {
			r.head = nv
			t.rows++
			db.versions++
			continue
		}
		db.versions += int64(r.push(nv, horizon))
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
	for _, r := range t.all() {
		if !r.head.deleted() {
			n++
		}
	}
	return n, nil
}
