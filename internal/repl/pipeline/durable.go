package pipeline

import (
	"sync"
	"sync/atomic"

	"repro/internal/certifier"
	"repro/internal/writeset"
)

// Log is the write-ahead-log surface the journal stage drives;
// *wal.WAL implements it. The interface keeps this package free of a
// wal dependency so the wal package's own tests can drive an Applier
// without an import cycle.
type Log interface {
	// Append stages freshly certified records (the certifier-host
	// journal; see certifier.Journal for the ordering contract).
	Append(recs []certifier.Record) (seq int64, err error)
	// AppendApply journals one writeset of the local apply stream.
	AppendApply(local int64, ws writeset.Writeset) error
	// AppendTable journals a created table.
	AppendTable(name string) error
	// AppendCursor journals the propagation cursor.
	AppendCursor(global int64) error
	// Seq returns the staging sequence; Sync(seq) blocks until
	// everything staged at or before it is durable (group fsync).
	Seq() int64
	Sync(seq int64) error
	// Size returns the live segment size in bytes.
	Size() int64
	// Compact rewrites the segment around a consistent snapshot.
	Compact(base, snapGlobal, snapLocal, keepApplies int64, tables []string, state map[string]map[int64]string) error
	Close() error
}

// Durability is the journal stage a node carries when it runs a
// write-ahead log: version-ordered appends ahead of the apply stage,
// the group fsync acknowledgements gate on, advisory propagation
// cursors, and serialized snapshot compaction.
type Durability struct {
	W            Log
	compactAfter int64
	lastCursor   atomic.Int64
	// OnCompact, when set, observes every compaction attempt with the
	// segment size before and after the rewrite — the event journal's
	// WAL-compaction feed. Set before traffic; not synchronized.
	OnCompact func(sizeBefore, sizeAfter int64)
	// compactMu makes a snapshot capture and the WAL rewrite around it
	// one atomic unit (see MaybeCompact).
	compactMu sync.Mutex
	// lastCompact is the segment size right after the previous
	// compaction attempt: re-attempting before meaningful growth would
	// livelock on full-segment rewrites whenever compaction cannot
	// shrink the log (blocked GC horizon, or a snapshot bigger than
	// the bound).
	lastCompact atomic.Int64
}

// NewDurability wraps a write-ahead log; compactAfter bounds the
// segment size before compaction is due (<= 0 disables compaction).
func NewDurability(w Log, compactAfter int64) *Durability {
	return &Durability{W: w, compactAfter: compactAfter}
}

// ApplyHook returns the sidb journal hook that feeds the local apply
// stream into the WAL. Attach it only after replay, or recovery would
// re-journal its own restoration. The hook fires in exact version
// order: sidb journals every install under its commit mutex.
func (d *Durability) ApplyHook() func(ws writeset.Writeset, version int64) error {
	return func(ws writeset.Writeset, version int64) error {
		return d.W.AppendApply(version, ws)
	}
}

// Sync blocks on the group fsync covering everything journaled so far.
func (d *Durability) Sync() error { return d.W.Sync(d.W.Seq()) }

// Cursor journals the propagation cursor (the global version this
// replica has applied), skipping repeats so an idle poll loop does not
// grow the log. Cursor records are advisory: a crash before the latest
// one costs a re-fetch of already-applied records, which the applier
// tolerates.
func (d *Durability) Cursor(global int64) {
	if d.lastCursor.Swap(global) == global {
		return
	}
	_ = d.W.AppendCursor(global)
}

// due reports whether the segment has outgrown the compaction bound
// AND grown enough since the last attempt to be worth another
// full-segment rewrite (an eighth of the bound), so a compaction that
// cannot shrink the log backs off instead of rewriting it on every
// poll tick.
func (d *Durability) due() bool {
	if d.compactAfter <= 0 {
		return false
	}
	size := d.W.Size()
	return size >= d.compactAfter && size >= d.lastCompact.Load()+d.compactAfter/8
}

// MaybeCompact runs one capture-and-rewrite cycle when the segment has
// outgrown its bound. capture produces a consistent full-state
// snapshot: base bounds which certified records are dropped (on the
// certifier host this is the peer-cursor GC horizon, never past what a
// disconnected replica still needs); snapGlobal/snapLocal position the
// snapshot itself; keepApplies bounds which local applies are dropped
// (the sm master keeps its slave horizon's worth, everyone else drops
// up to the snapshot).
//
// compactMu is held across BOTH the capture and the rewrite, making
// them one atomic unit. Callers race (the propagation run loop and the
// wire Sync handlers both land here), and without the lock a goroutine
// holding an older capture could rewrite the segment after a competitor
// compacted with a newer one: the rewrite drops the newer snapshot
// frame while the applies it superseded are already gone, and a
// retained cursor above the lost versions makes a restart resume
// FetchSince past them — silently losing durably acked commits.
// WAL.Compact rejects stale snapshots as a second line of defense.
func (d *Durability) MaybeCompact(capture func() (base, snapGlobal, snapLocal, keepApplies int64, state map[string]map[int64]string, err error)) {
	if !d.due() {
		return
	}
	d.compactMu.Lock()
	defer d.compactMu.Unlock()
	if !d.due() {
		return // a racing compaction already rewrote the segment
	}
	base, snapGlobal, snapLocal, keepApplies, state, err := capture()
	if err != nil {
		return
	}
	names := make([]string, 0, len(state))
	for name := range state {
		names = append(names, name)
	}
	sizeBefore := d.W.Size()
	_ = d.W.Compact(base, snapGlobal, snapLocal, keepApplies, names, state)
	// Record the post-attempt size whether or not the rewrite shrank
	// (or succeeded at all): due() only re-arms after real growth.
	sizeAfter := d.W.Size()
	d.lastCompact.Store(sizeAfter)
	if d.OnCompact != nil {
		d.OnCompact(sizeBefore, sizeAfter)
	}
}
