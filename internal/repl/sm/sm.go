// Package sm holds the commit primitives of the single-master
// replicated database of §5.2 (Ganymed-style), which the replica
// server's single-master engine is built from: the master database
// executes all update transactions under ordinary first-committer-wins
// snapshot isolation (Install commits blind schema and load writes the
// same way), gates each acknowledgement on the journal's group fsync
// (SyncCommit), and retains committed writesets in a propagation Log
// that slaves — read-only caches — pull and apply in commit order.
//
// No certifier is needed: the master's own concurrency control aborts
// conflicting updates, which is what makes the single-master design
// simpler to build (§2).
package sm

import (
	"errors"
	"fmt"

	"repro/internal/sidb"
	"repro/internal/wal"
	"repro/internal/writeset"
)

// Journal is the durability surface a single-master node needs
// from a write-ahead log: the master's committed writesets are
// journaled as records through the database's journal hook
// (wal.WAL.AppendRecord, in commit order under the commit mutex) and
// Commit acknowledges only after Sync(Seq()) reports them durable.
// *wal.WAL implements it.
type Journal interface {
	Seq() int64
	Sync(seq int64) error
}

// SyncCommit blocks on the journal's group fsync after a commit was
// installed in the master database, gating the acknowledgement. A Sync
// failing with wal.ErrClosed is a graceful Close racing the in-flight
// commit — no disk failure, just an ambiguous outcome for the caller
// to surface. Any other failure is fail-stop: the commit is installed
// in memory but would roll back on restart, so limping on would serve
// state the slaves can never receive.
func SyncCommit(j Journal, version int64) error {
	if err := j.Sync(j.Seq()); err != nil {
		if errors.Is(err, wal.ErrClosed) {
			return fmt.Errorf("sm: commit durability unknown (shutting down): %w", err)
		}
		panic(fmt.Sprintf("sm: WAL sync failed after commit install (version %d): %v", version, err))
	}
	return nil
}

// Install commits ws on the master database db at the next version,
// outside any transaction: the blind write of a schema or load record.
// A version a concurrent commit took first is retried at the next one.
func Install(db *sidb.DB, ws writeset.Writeset) (int64, error) {
	for {
		version := db.Version() + 1
		if err := db.ApplyWriteset(ws, version); !errors.Is(err, sidb.ErrStaleVersion) {
			return version, err
		}
	}
}
