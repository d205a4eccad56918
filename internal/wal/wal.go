// Package wal implements the per-node write-ahead log that makes
// commits durable: a single append-only segment of length-prefixed,
// CRC-framed records holding one stream — the committed versions as
// certified writesets with commit markers, full-state snapshots written
// by compaction (or by a joiner's state transfer), and the cross-shard
// 2PC frames.
//
// Framing. Every record is one codec frame,
//
//	[u32 length] [u32 CRC32C(payload)] [payload]
//
// whose payload is a kind byte followed by varint/string fields (the
// kinds are codec.Kind*). Replay stops at the first frame that is
// short, oversized or fails its CRC — the torn tail a crash mid-write
// leaves behind — and Open truncates the file there, so a recovered
// log is always a valid prefix of what was written.
//
// One log format. The record and 2PC frames are the certifier's log
// format: an operation's frames (certifier.AppendRecords,
// AppendDecision, AppendPrepare) are the exact bytes a replicated
// certifier proposes as its Paxos value, and replay decodes them
// through the same certifier.Replay that recovers a Paxos log. The
// epoch header and the snapshot are the WAL's own frames.
//
// One stream. Every node journals each committed version once, as the
// same writeset-plus-commit-marker frames. The certifier stages its
// records through Append; the apply path journals what the database
// installs through AppendRecord, which writes nothing for a version at
// or below the highest one the log holds. On the certifier host the
// certifier always journals a version before the database installs
// it, so the apply path writes nothing there; on every other node the
// apply path is the only writer.
//
// Durability contract. Append stages certified writesets followed by a
// commit marker in one write; Sync blocks until everything staged at
// or before the returned sequence is fsynced. Concurrent commits share
// fsyncs (group commit): whichever caller reaches the disk first syncs
// everything written so far and the rest observe that they are already
// durable, so one fsync amortizes over every commit that raced into
// the same window — the same combining the certifier's Batcher does
// for Paxos rounds, which Sync piggybacks on when group commit batches
// many records into a single Append.
//
// Recovery semantics. A certified writeset counts as committed only
// once a commit marker at or above its version is on disk; staged
// writesets whose marker never made it are discarded AND truncated
// from the segment, which is what makes a torn group-commit batch
// atomic — recovery reuses their versions, so a stale staged frame
// left on disk would be retroactively committed by the next marker at
// a reused version and resurrect a never-acked writeset. Recovery
// rebuilds the database as the latest snapshot plus the records above
// it, and resumes at Recovered.LastVersion. Kinds 5–7 (the apply,
// table and cursor frames of the retired two-stream format) and 8–10
// (the 2PC frames of string transaction ids) are refused with
// ErrRetiredFrame rather than skipped.
package wal

import (
	"errors"
	"fmt"
	"io/fs"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/certifier"
	"repro/internal/codec"
	"repro/internal/sidb"
	"repro/internal/writeset"
)

const (
	segName = "wal.log"
	tmpName = "wal.log.tmp"
)

// ErrClosed is returned by operations on a closed WAL.
var ErrClosed = errors.New("wal: closed")

// ErrStaleSnapshot is returned by Compact when the offered snapshot is
// older than the one already in the segment: a concurrent compaction
// won with a newer capture, and rewriting the log around the stale one
// would drop durable history (the newer snapshot's frame is discarded
// while the records it superseded are already gone).
var ErrStaleSnapshot = errors.New("wal: compact: snapshot older than the segment's current one")

// ErrRetiredFrame is returned by Open for a segment holding a CRC-valid
// frame of a retired kind (5–7: the apply, table and cursor frames of
// the old two-stream format; 8–10: the 2PC frames of string
// transaction ids). Replaying such a log without them would bring the
// node up with an empty database, or without its in-doubt locks, so
// Open refuses it and leaves the file untouched.
var ErrRetiredFrame = errors.New("wal: segment holds a retired frame kind")

// Options configure Open.
type Options struct {
	// Dir is the log directory; used when FS is nil.
	Dir string
	// FS overrides the filesystem (tests inject MemFS/CrashFS).
	FS FS
	// Fsync makes Sync issue real fsyncs, the machine-crash durability
	// the paper's replicas get from their databases. Off, records still
	// reach the OS on every append — surviving process kills — but a
	// power loss can drop the unsynced tail.
	Fsync bool
}

// Recovered is the state replayed from a WAL at Open.
type Recovered struct {
	// Epoch counts compactions; Base is the version the log's record
	// history starts from (at most the snapshot version: the certifier
	// host keeps records a lagging peer still needs).
	Epoch int64
	Base  int64
	// Snapshot is the full state at SnapVersion, nil when the log holds
	// no snapshot.
	Snapshot    map[string]map[int64]string
	SnapVersion int64
	// Replay holds the log entries above the snapshot: the committed
	// records (version order, versions > Base; staged writesets without
	// a commit marker are not included) and the 2PC fragments and
	// decisions still relevant at the end of replay.
	certifier.Replay
	// TornBytes is how much tail was truncated at Open.
	TornBytes int64
}

// LastVersion returns the newest version the log holds — its last
// committed record, or the snapshot version when no record is above
// it. A restarted node resumes from here.
func (r *Recovered) LastVersion() int64 {
	if n := len(r.Records); n > 0 && r.Records[n-1].Version > r.SnapVersion {
		return r.Records[n-1].Version
	}
	return r.SnapVersion
}

// Restore rebuilds a fresh database from the recovered state: every
// table the snapshot names (empty ones included), the snapshot rows at
// its version, then each record above it in version order. Records the
// snapshot already covers (the certifier host retains them for lagging
// peers) are skipped; a hole in the versions is an error.
func (r *Recovered) Restore(db *sidb.DB) error {
	var entries []writeset.Entry
	for name, rows := range r.Snapshot {
		if err := db.CreateTable(name); err != nil {
			return fmt.Errorf("wal: restore table: %w", err)
		}
		for row, value := range rows {
			entries = append(entries, writeset.Entry{
				Key:   writeset.Key{Table: name, Row: row},
				Value: value,
			})
		}
	}
	if r.SnapVersion > 0 {
		if err := db.ApplyWriteset(writeset.New(entries), r.SnapVersion); err != nil {
			return fmt.Errorf("wal: restore snapshot: %w", err)
		}
	}
	for _, rec := range r.Records {
		if rec.Version <= db.Version() {
			continue
		}
		if rec.Version != db.Version()+1 {
			return fmt.Errorf("wal: restore: record %d does not follow version %d", rec.Version, db.Version())
		}
		if err := db.ApplyWriteset(rec.Writeset, rec.Version); err != nil {
			return fmt.Errorf("wal: restore record %d: %w", rec.Version, err)
		}
	}
	return nil
}

// WAL is an open write-ahead log. Appends serialize on an internal
// mutex; Sync is the group-commit rendezvous and may be called
// concurrently.
//
// Lock order: mu before syncMu (Compact, Close); errMu is a leaf
// taken alone. Sync holds only syncMu, so an in-flight fsync never
// blocks appends and vice versa.
type WAL struct {
	fsys  FS
	fsync bool

	mu     sync.Mutex // serializes writes, compaction and close
	f      File
	size   int64
	epoch  int64
	base   int64
	snap   int64 // version of the segment's snapshot (0: none)
	last   int64 // highest version the log holds: AppendRecord skips versions at or below it
	closed bool

	seq atomic.Int64 // bumped per completed buffered write

	errMu sync.Mutex
	werr  error // sticky failure: the log is dead past it

	syncMu sync.Mutex // serializes fsync and the compaction handle swap
	synced int64      // highest seq known durable (under syncMu)
}

// stickyErr returns the first unrecoverable failure, if any.
func (w *WAL) stickyErr() error {
	w.errMu.Lock()
	defer w.errMu.Unlock()
	return w.werr
}

// fail records err as the WAL's sticky failure and returns it (the
// first failure wins: later errors are usually its echoes).
func (w *WAL) fail(err error) error {
	w.errMu.Lock()
	defer w.errMu.Unlock()
	if w.werr == nil {
		w.werr = err
	}
	return w.werr
}

// Open opens (or creates) the WAL in opts.Dir / opts.FS, truncates any
// torn tail, and returns the recovered state alongside the writable
// log positioned after the last valid record.
func Open(opts Options) (*WAL, *Recovered, error) {
	fsys := opts.FS
	if fsys == nil {
		var err error
		fsys, err = DirFS(opts.Dir)
		if err != nil {
			return nil, nil, err
		}
	}
	// A leftover tmp segment is a compaction that never renamed; the
	// real segment is authoritative.
	if err := fsys.Remove(tmpName); err != nil {
		return nil, nil, fmt.Errorf("wal: remove stale tmp: %w", err)
	}

	w := &WAL{fsys: fsys, fsync: opts.Fsync}

	data, err := fsys.ReadFile(segName)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		// Fresh log: write the epoch header.
		f, err := fsys.Create(segName)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: create: %w", err)
		}
		w.f, w.epoch, w.base = f, 1, 0
		hdr := codec.BeginEpochFrame(nil, 1, 0)
		if _, err := f.Write(hdr); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: write epoch header: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: sync epoch header: %w", err)
		}
		if err := fsys.SyncDir(); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: sync dir: %w", err)
		}
		w.size = int64(len(hdr))
		return w, &Recovered{Epoch: 1}, nil
	case err != nil:
		return nil, nil, fmt.Errorf("wal: read: %w", err)
	}

	rec, good, err := replay(data)
	if err != nil {
		return nil, nil, err
	}
	rec.TornBytes = int64(len(data)) - good
	f, err := fsys.OpenAppend(segName, good)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: reopen: %w", err)
	}
	w.f, w.size = f, good
	w.epoch, w.base, w.snap, w.last = rec.Epoch, rec.Base, rec.SnapVersion, rec.LastVersion()
	return w, rec, nil
}

// replay parses data, returning the recovered state and the byte
// length of the prefix to keep. The prefix excludes a trailing run of
// frames containing staged writesets whose commit marker never landed
// (a group-commit batch torn between its writeset frames and the
// marker): recovery reuses their versions, so leaving those frames in
// the segment would let the NEXT commit marker at a reused version
// retroactively commit them on a later replay — resurrecting a
// never-acked writeset as committed history ahead of the acked one.
// Open truncates the file at the returned length, removing them.
//
// One pass over the segment: frames inside a possibly-uncovered staged
// run are buffered (not decoded) until a commit marker or snapshot
// settles the run — this writer appends each batch's writesets and
// marker in a single write, so an unsettled run can only be the torn
// tail — and a run still pending at the end of the log is dropped.
// A frame of a retired kind fails the whole replay with
// ErrRetiredFrame.
func replay(data []byte) (*Recovered, int64, error) {
	rec := &Recovered{Epoch: 1}
	var pending [][]byte // frames since the first uncovered staged writeset
	off, settled := 0, 0
	for {
		payload, n := codec.NextFrame(data[off:])
		if payload == nil {
			break
		}
		if k := payload[0]; codec.Retired(k) {
			return nil, 0, fmt.Errorf("%w: kind %d at offset %d", ErrRetiredFrame, k, off)
		}
		off += n
		switch {
		case payload[0] == codec.KindWriteset:
			pending = append(pending, payload)
		case payload[0] == codec.KindCommit || payload[0] == codec.KindSnapshot:
			// This writer's commit markers cover the whole batch staged
			// before them (Append writes max(batch)); a snapshot
			// supersedes staged state entirely. Either way the pending
			// run is settled: decode it, then the settling frame.
			for _, p := range pending {
				decodeInto(rec, p)
			}
			pending = pending[:0]
			decodeInto(rec, payload)
			settled = off
		case len(pending) > 0:
			pending = append(pending, payload)
		default:
			decodeInto(rec, payload)
			settled = off
		}
	}
	good := int64(off)
	if len(pending) > 0 {
		good = int64(settled)
	}
	sort.SliceStable(rec.Records, func(i, j int) bool {
		return rec.Records[i].Version < rec.Records[j].Version
	})
	return rec, good, nil
}

// decodeInto applies one valid frame payload to the recovered state:
// the epoch header and the snapshot are the WAL's own, every other
// frame is a log entry for the Replay. A CRC-valid frame that does not
// decode cannot come from this writer and is skipped (the fuzz target
// requires only no panic and replay determinism).
func decodeInto(rec *Recovered, payload []byte) {
	f, err := codec.DecodeFrame(payload)
	if err != nil {
		return
	}
	switch f.Kind {
	case codec.KindBeginEpoch:
		rec.Epoch, rec.Base = f.Epoch, f.Base
	case codec.KindSnapshot:
		// The snapshot supersedes everything replayed so far. 2PC state
		// is reset too: compaction rewrites the segment with the
		// snapshot first and re-carries still-live prepare/decision
		// frames after it.
		rec.Snapshot, rec.SnapVersion = f.Tables, f.Version
		rec.Replay = certifier.Replay{}
	default:
		_ = rec.Apply(f) // fails only for the two kinds handled above
	}
}

// writeRecordsLocked writes buf, whose record frames end at version
// top, and raises last to top. The caller holds mu.
func (w *WAL) writeRecordsLocked(buf []byte, top int64) (int64, error) {
	seq, err := w.writeLocked(buf)
	if err == nil {
		w.last = max(w.last, top)
	}
	return seq, err
}

// writeLocked appends buf to the segment, returning the covering
// sequence number for Sync. The caller holds mu.
func (w *WAL) writeLocked(buf []byte) (int64, error) {
	if w.closed {
		return 0, ErrClosed
	}
	if err := w.stickyErr(); err != nil {
		return 0, err
	}
	if _, err := w.f.Write(buf); err != nil {
		return 0, w.fail(fmt.Errorf("wal: write: %w", err))
	}
	w.size += int64(len(buf))
	return w.seq.Add(1), nil
}

// Append stages certified writesets (in version order) followed by one
// commit marker, in a single write. It implements the staging half of
// certifier.Journal; call Sync with the returned sequence to make the
// batch durable before acknowledging.
func (w *WAL) Append(recs []certifier.Record) (int64, error) {
	if len(recs) == 0 {
		return w.seq.Load(), w.stickyErr()
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	buf := takeBuf()
	defer putBuf(buf)
	var top int64
	*buf, top = certifier.AppendRecords(*buf, recs)
	return w.writeRecordsLocked(*buf, top)
}

// AppendRecord journals one installed version: the apply path's call,
// with the signature of sidb's journal hook. It writes nothing for a
// version the log already holds — on the certifier host, whose
// certifier journaled the version before handing it out, that is every
// version. It does not sync; the record is durable with the next Sync.
// It does not allocate.
func (w *WAL) AppendRecord(ws writeset.Writeset, version int64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if version <= w.last {
		return w.stickyErr()
	}
	buf := takeBuf()
	defer putBuf(buf)
	one := [1]certifier.Record{{Version: version, Writeset: ws}}
	*buf, _ = certifier.AppendRecords(*buf, one[:])
	_, err := w.writeRecordsLocked(*buf, version)
	return err
}

// AppendPrepare journals an in-doubt cross-shard fragment; implements
// certifier.TxnJournal. Sync the returned sequence before voting yes.
func (w *WAL) AppendPrepare(p certifier.PreparedTxn) (int64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	buf := takeBuf()
	defer putBuf(buf)
	*buf = certifier.AppendPrepare(*buf, p)
	return w.writeLocked(*buf)
}

// AppendDecision journals a 2PC decision, for commits the decided
// record's writeset and commit marker, and the retirement of the
// decisions in retire — all in ONE write, decision frame first and
// retirement last. The ordering is the recovery argument: a torn tail
// cuts a suffix, so the surviving prefixes are exactly {nothing},
// {decision}, {decision+writeset}, {decision+record} or everything; a
// record can never outlive its decision, nor a retirement its record,
// while a record-less commit decision is re-committed from the
// prepared writeset at recovery.
func (w *WAL) AppendDecision(txn codec.TxnID, commit bool, version int64, recs []certifier.Record, retire []codec.TxnID) (int64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	buf := takeBuf()
	defer putBuf(buf)
	var top int64
	*buf, top = certifier.AppendDecision(*buf, txn, commit, version, recs, retire)
	return w.writeRecordsLocked(*buf, top)
}

// AppendForget journals the retirement of decision records.
func (w *WAL) AppendForget(txns []codec.TxnID) (int64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	buf := takeBuf()
	defer putBuf(buf)
	*buf = codec.ForgetFrame(*buf, txns)
	return w.writeLocked(*buf)
}

// takeBuf/putBuf reuse append buffers across calls: every Append*
// frames its records in place in a pooled buffer, writes it with one
// write, and returns it (appends serialize on mu, so the pool usually
// holds one warm buffer). The pool holds the *[]byte itself, so
// returning a buffer boxes nothing, and a steady-state append
// allocates nothing.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// takeBuf returns an empty pooled buffer.
func takeBuf() *[]byte {
	b := bufPool.Get().(*[]byte)
	*b = (*b)[:0]
	return b
}

// putBuf returns b to the pool, dropping buffers a huge batch grew
// past one record's bound so the pool never pins them.
func putBuf(b *[]byte) {
	if cap(*b) <= codec.MaxFrame {
		bufPool.Put(b)
	}
}

// Sync blocks until every write at or before seq is durable. With
// Options.Fsync off it is a no-op beyond surfacing sticky errors.
// Concurrent callers share fsyncs: a single fsync covers every
// sequence written before it started, so commits that raced into the
// same window find their data already durable and return without
// touching the disk — group commit.
func (w *WAL) Sync(seq int64) error {
	if !w.fsync {
		return w.stickyErr()
	}
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	if err := w.stickyErr(); err != nil {
		return err
	}
	if w.synced >= seq {
		return nil // a racing caller's fsync already covered us
	}
	// Capture the covered sequence before fsync: everything written
	// (seq is bumped after the write completes) is in the file by now.
	// w.f is stable under syncMu — compaction swaps it only while
	// holding this lock.
	cover := w.seq.Load()
	if err := w.f.Sync(); err != nil {
		return w.fail(fmt.Errorf("wal: fsync: %w", err))
	}
	if cover > w.synced {
		w.synced = cover
	}
	return nil
}

// Seq returns the sequence of the latest completed append, so
// Sync(Seq()) is the barrier "everything journaled so far is durable".
func (w *WAL) Seq() int64 { return w.seq.Load() }

// Size returns the current segment size in bytes (the compaction
// trigger input).
func (w *WAL) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// Epoch returns the current segment epoch.
func (w *WAL) Epoch() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.epoch
}

// Compact rewrites the log around a full-state snapshot taken at
// version snap: the new segment holds a fresh epoch header, the
// snapshot, and every frame of the old segment still needed — records
// (and their markers) above base, live 2PC frames. base <= snap bounds
// which records are dropped: a primary (the certifier host, the
// single-master master) passes its peer-cursor horizon so a lagging
// peer's pending records survive compaction even though the snapshot
// already contains their effects; Restore skips retained records the
// snapshot covers. The swap is crash-atomic: the new segment is fully
// written and synced as a tmp file, renamed over the old one, and the
// directory synced; a crash anywhere leaves either the complete old
// log or the complete new one.
//
// The snapshot must be captured before calling (under the engine's
// apply lock); records that commit between the capture and the swap
// are above snap and therefore carried over. A snapshot below the
// segment's current one — a capture that raced a competitor's
// compaction — is rejected with ErrStaleSnapshot rather than
// regressing the log. A joiner journals the snapshot it was sent the
// same way, on its empty log.
func (w *WAL) Compact(base, snap int64, state map[string]map[int64]string) error {
	base = min(base, snap)
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if err := w.stickyErr(); err != nil {
		return err
	}
	if snap < w.snap {
		return fmt.Errorf("%w (offered %d, segment has %d)", ErrStaleSnapshot, snap, w.snap)
	}

	old, err := w.fsys.ReadFile(segName)
	if err != nil {
		return fmt.Errorf("wal: compact read: %w", err)
	}

	buf := codec.BeginEpochFrame(nil, w.epoch+1, base)
	buf = codec.SnapshotFrame(buf, snap, state)

	// Carry over the still-needed tail of the old segment, frame by
	// frame, bytes verbatim. The pre-pass collects settled 2PC txns so
	// their prepare/decision frames can be dropped.
	settled := settledTxns(old)
	off := 0
	for {
		payload, n := codec.NextFrame(old[off:])
		if payload == nil {
			break
		}
		if keepFrame(payload, base, settled) {
			buf = append(buf, old[off:off+n]...)
		}
		off += n
	}

	// Failures before the rename leave the old segment and its append
	// handle fully intact: report them without poisoning the log, so a
	// transient ENOSPC/EIO during the (space-doubling) tmp write only
	// delays compaction instead of killing every future commit.
	abandon := func(err error) error {
		_ = w.fsys.Remove(tmpName)
		return err
	}
	tmp, err := w.fsys.Create(tmpName)
	if err != nil {
		return abandon(fmt.Errorf("wal: compact create: %w", err))
	}
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return abandon(fmt.Errorf("wal: compact write: %w", err))
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return abandon(fmt.Errorf("wal: compact sync: %w", err))
	}
	tmp.Close()
	if err := w.fsys.Rename(tmpName, segName); err != nil {
		return abandon(fmt.Errorf("wal: compact rename: %w", err))
	}
	// Past the rename the old segment is gone: failures here ARE fatal
	// — continuing to append through the old handle would write to an
	// unlinked file, silently dropping durability.
	if err := w.fsys.SyncDir(); err != nil {
		return w.fail(fmt.Errorf("wal: compact sync dir: %w", err))
	}

	// Switch appends to the new segment, holding syncMu so no fsync is
	// in flight on the handle being retired. The tmp file was fully
	// written and synced before the rename, so everything in the new
	// segment is already durable: outstanding Sync callers are covered.
	newF, err := w.fsys.OpenAppend(segName, int64(len(buf)))
	if err != nil {
		return w.fail(fmt.Errorf("wal: compact reopen: %w", err))
	}
	w.syncMu.Lock()
	_ = w.f.Close()
	w.f = newF
	w.synced = w.seq.Load()
	w.syncMu.Unlock()
	w.size = int64(len(buf))
	w.epoch++
	w.base = base
	w.snap = snap
	w.last = max(w.last, snap)
	return nil
}

// settledSet is the compaction pre-pass result over 2PC frames:
// prepDone holds txns whose prepare frames are droppable
// (abort-decided or forgotten — their locks are released and nothing
// re-commits them), decDone holds txns whose decision frames are
// droppable (forgotten).
type settledSet struct {
	prepDone map[codec.TxnID]bool
	decDone  map[codec.TxnID]bool
}

// settledTxns scans a segment for the settled 2PC transactions.
func settledTxns(data []byte) settledSet {
	s := settledSet{prepDone: map[codec.TxnID]bool{}, decDone: map[codec.TxnID]bool{}}
	var ids []codec.TxnID
	off := 0
	for {
		payload, n := codec.NextFrame(data[off:])
		if payload == nil {
			return s
		}
		off += n
		d := codec.NewDecoder(payload[1:])
		switch payload[0] {
		case codec.KindDecision:
			id := d.TxnID()
			if commit := d.Bool(); d.Err() == nil && !commit {
				s.prepDone[id] = true
			}
		case codec.KindForget:
			ids = d.TxnIDs(ids)
			for _, id := range ids {
				s.prepDone[id] = true
				s.decDone[id] = true
			}
		}
	}
}

// keepFrame reports whether an old-segment frame survives compaction.
// Commit markers follow the writesets they cover: one at or below base
// can only cover dropped writesets. Prepare and decision frames of
// settled transactions are dropped; live ones are carried so recovery
// still finds every in-doubt lock and unforgotten decision.
func keepFrame(payload []byte, base int64, settled settledSet) bool {
	if len(payload) == 0 {
		return false
	}
	d := codec.NewDecoder(payload[1:])
	switch payload[0] {
	case codec.KindWriteset, codec.KindCommit:
		return d.Varint() > base
	case codec.KindPrepare:
		return !settled.prepDone[d.TxnID()]
	case codec.KindDecision:
		return !settled.decDone[d.TxnID()]
	case codec.KindForget:
		return false // its targets' frames were dropped with it
	default: // old epoch header, old snapshot (rewritten fresh)
		return false
	}
}

// Close closes the segment. Later operations fail with ErrClosed.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	w.fail(ErrClosed)
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	return w.f.Close()
}

var (
	_ certifier.Journal    = (*WAL)(nil)
	_ certifier.TxnJournal = (*WAL)(nil)
)
