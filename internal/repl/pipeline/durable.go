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
	// Append stages freshly certified records (the certifier's
	// journal; see certifier.Journal for the ordering contract).
	Append(recs []certifier.Record) (seq int64, err error)
	// AppendRecord journals one version the local database installs
	// (sidb's journal hook); it writes nothing for a version the log
	// already holds.
	AppendRecord(ws writeset.Writeset, version int64) error
	// Sync(seq) blocks until everything staged at or before seq is
	// durable (group fsync).
	Sync(seq int64) error
	// Size returns the live segment size in bytes.
	Size() int64
	// Compact rewrites the segment around a consistent snapshot.
	Compact(base, snap int64, state map[string]map[int64]string) error
	Close() error
}

// Durability is the journal stage a node carries when it runs a
// write-ahead log: version-ordered appends ahead of the apply stage,
// the group fsync acknowledgements gate on, and serialized snapshot
// compaction.
type Durability struct {
	W            Log
	compactAfter int64
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
// snapshot at version snap; base bounds which records are dropped (on
// a primary this is the peer-cursor horizon, never past what a
// disconnected replica still needs; elsewhere it is snap).
//
// compactMu is held across BOTH the capture and the rewrite, making
// them one atomic unit. Without it, of two racing callers the one
// holding an older capture could rewrite the segment after its
// competitor compacted with a newer one: the rewrite drops the newer snapshot
// frame while the records it superseded are already gone — silently
// losing durably acked commits. WAL.Compact rejects stale snapshots as
// a second line of defense.
func (d *Durability) MaybeCompact(capture func() (base, snap int64, state map[string]map[int64]string, err error)) {
	if !d.due() {
		return
	}
	d.compactMu.Lock()
	defer d.compactMu.Unlock()
	if !d.due() {
		return // a racing compaction already rewrote the segment
	}
	base, snap, state, err := capture()
	if err != nil {
		return
	}
	sizeBefore := d.W.Size()
	_ = d.W.Compact(base, snap, state)
	// Record the post-attempt size whether or not the rewrite shrank
	// (or succeeded at all): due() only re-arms after real growth.
	sizeAfter := d.W.Size()
	d.lastCompact.Store(sizeAfter)
	if d.OnCompact != nil {
		d.OnCompact(sizeBefore, sizeAfter)
	}
}
