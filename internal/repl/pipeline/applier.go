package pipeline

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/certifier"
	"repro/internal/sidb"
	"repro/internal/writeset"
)

// Applier is the apply stage of the replication pipeline: it installs
// certified records into the local database strictly in version order
// — the applied cursor is dense, duplicates are skipped and a gap stops
// the run. Each batch is one sidb.ApplyBatch: journal then install,
// record by record, with the database version advancing once the
// whole dense run is in, so Applied()/FetchSince cursors, GC horizons
// and the WAL's version-dense-prefix invariant follow the record
// stream exactly. Replay is serial, as the paper's model treats it:
// one service demand per replica for the remote writesets.
//
// All mutation of the underlying database on an applying replica must
// flow through one Applier: its lock is what serializes racing apply
// paths (the propagation loop and wire Sync handlers), and Pin/Reset
// give engines the same lock for snapshot pinning and state installs.
type Applier struct {
	db *sidb.DB

	mu      sync.Mutex
	applied int64 // version cursor: the newest version of the group's log installed here

	head    atomic.Int64 // newest version observed (fetched or certified)
	total   atomic.Int64 // versions applied since start
	pending atomic.Int64 // records in the batch being installed

	// applied-versions/sec over a sliding window, sampled on read.
	rateMu    sync.Mutex
	rateAt    time.Time
	rateTotal int64
	rate      float64

	tracer *Tracer // commit-path stage tracer (may be nil)
}

// NewApplier wraps db with an apply stage.
func NewApplier(db *sidb.DB) *Applier { return &Applier{db: db} }

// DB returns the wrapped database.
func (a *Applier) DB() *sidb.DB { return a.db }

// SetTracer attaches the stage tracer; Apply stamps batch install
// times on it. Set once at wiring time, before the applier runs.
func (a *Applier) SetTracer(t *Tracer) { a.tracer = t }

// Applied returns the version cursor: every record at or below it has
// been installed.
func (a *Applier) Applied() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.applied
}

// Observe records that versions up to head exist upstream, feeding the
// Lag gauge. Apply observes incoming batches itself; pullers call it
// for fetches that could not apply yet (gaps).
func (a *Applier) Observe(head int64) {
	for {
		cur := a.head.Load()
		if head <= cur || a.head.CompareAndSwap(cur, head) {
			return
		}
	}
}

// Pin runs f under the apply lock with the current applied cursor.
// Nothing installs while f runs, so f can atomically pair the cursor
// with database state — Begin-time snapshot pinning, consistent state
// captures for joiners and WAL compaction.
func (a *Applier) Pin(f func(applied int64)) {
	a.mu.Lock()
	defer a.mu.Unlock()
	f(a.applied)
}

// Reset runs f under the apply lock and moves the cursor to the
// version f returns — the snapshot-install and WAL-restore paths,
// which rebuild database state outside the record stream.
func (a *Applier) Reset(f func(applied int64) (int64, error)) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	v, err := f(a.applied)
	if err != nil {
		return err
	}
	a.applied = v
	a.Observe(v)
	return nil
}

// Apply installs already-fetched certified records in version order:
// records at or below the cursor are skipped (duplicates from
// concurrent pulls are harmless) and a gap stops the run (the missing
// versions will arrive through a later pull). It returns the number of
// records applied. An installation failure is a replication invariant
// violation and panics, exactly like the per-engine apply loops it
// replaces.
func (a *Applier) Apply(recs []certifier.Record) int {
	if len(recs) == 0 {
		return 0
	}
	a.Observe(recs[len(recs)-1].Version)
	a.mu.Lock()
	defer a.mu.Unlock()
	// Trim to the dense run starting right after the cursor.
	i := 0
	for i < len(recs) && recs[i].Version <= a.applied {
		i++
	}
	run := recs[i:]
	n := 0
	for n < len(run) && run[n].Version == a.applied+int64(n)+1 {
		n++
	}
	if n == 0 {
		return 0
	}
	// A short run (the certifier host applying its own commit) gathers
	// its writesets on the stack.
	var buf [4]writeset.Writeset
	wss := buf[:0]
	for _, rec := range run[:n] {
		wss = append(wss, rec.Writeset)
	}
	a.pending.Store(int64(n))
	defer a.pending.Store(0)
	from := a.applied
	var t0 time.Time
	if a.tracer != nil {
		t0 = time.Now()
	}
	applied, err := a.db.ApplyBatch(wss)
	a.applied += int64(applied)
	a.total.Add(int64(applied))
	if err != nil {
		panic(fmt.Sprintf("pipeline: failed to apply version %d: %v", a.applied+1, err))
	}
	if a.tracer != nil {
		end := time.Now()
		a.tracer.ApplyBatch(from, a.applied, end.Sub(t0), end)
	}
	return applied
}

// ApplyStats is a point-in-time view of the apply stage, feeding
// /metrics and the wire Stats reply.
type ApplyStats struct {
	Applied int64   // version cursor
	Total   int64   // versions applied since start (monotone)
	Pending int64   // records in the batch being installed
	Lag     int64   // newest observed version minus the cursor
	Rate    float64 // applied versions/sec over the recent window
}

// Stats snapshots the apply stage.
func (a *Applier) Stats() ApplyStats {
	applied := a.Applied()
	lag := a.head.Load() - applied
	if lag < 0 {
		lag = 0
	}
	return ApplyStats{
		Applied: applied,
		Total:   a.total.Load(),
		Pending: a.pending.Load(),
		Lag:     lag,
		Rate:    a.sampleRate(),
	}
}

// sampleRate computes applied versions/sec by differencing the total
// counter between reads at least a second apart.
func (a *Applier) sampleRate() float64 {
	a.rateMu.Lock()
	defer a.rateMu.Unlock()
	now := time.Now()
	total := a.total.Load()
	if a.rateAt.IsZero() {
		a.rateAt, a.rateTotal = now, total
		return 0
	}
	if dt := now.Sub(a.rateAt); dt >= time.Second {
		a.rate = float64(total-a.rateTotal) / dt.Seconds()
		a.rateAt, a.rateTotal = now, total
	}
	return a.rate
}
