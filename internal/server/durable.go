package server

import (
	"fmt"

	"repro/internal/repl/pipeline"
	"repro/internal/sidb"
	"repro/internal/wal"
)

// openDurability opens (or creates) the node's WAL, replays it, and
// wraps it in the pipeline's journal stage. A joiner must start from
// an empty log: its state comes from the snapshot transfer, and mixing
// a previous incarnation's replay with a fresh snapshot would
// double-apply history.
func openDurability(opts Options) (*pipeline.Durability, *wal.Recovered, error) {
	w, rec, err := wal.Open(wal.Options{Dir: opts.WALDir, Fsync: opts.Fsync})
	if err != nil {
		return nil, nil, fmt.Errorf("server: open wal: %w", err)
	}
	if opts.Join && (len(rec.Records) > 0 || rec.Snapshot != nil) {
		w.Close()
		return nil, nil, fmt.Errorf("server: -join requires an empty WAL directory "+
			"(found state at epoch %d — restart with -id/-peers to recover it instead)", rec.Epoch)
	}
	return pipeline.NewDurability(w, walCompactBytes), rec, nil
}

// consistentDump captures one database's full contents plus the
// version they are consistent at, through a single read transaction:
// the joiner's state transfer and the WAL compaction image.
func consistentDump(db *sidb.DB) (version int64, state map[string]map[int64]string, err error) {
	tx := db.Begin()
	defer tx.Abort()
	state = make(map[string]map[int64]string)
	for _, name := range db.Tables() {
		rows, err := tx.Scan(name)
		if err != nil {
			return 0, nil, err
		}
		state[name] = rows
	}
	return tx.Snapshot(), state, nil
}

// compactCapture is a node's compaction capture: a consistent dump of
// db, dropping records up to the snapshot — or, on a primary (cursors
// non-nil), only up to its peer-cursor horizon, so a lagging peer's
// pending records survive compaction and it can still FetchSince its
// way back.
func compactCapture(db *sidb.DB, cursors *pipeline.PeerCursors) (base, snap int64, state map[string]map[int64]string, err error) {
	snap, state, err = consistentDump(db)
	if err != nil {
		return 0, 0, nil, err
	}
	base = snap
	if cursors != nil {
		base, _ = cursors.Horizon(snap) // 0 until every peer has reported
	}
	return base, snap, state, nil
}
