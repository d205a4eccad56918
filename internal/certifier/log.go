package certifier

import (
	"fmt"
	"maps"
	"slices"
	"sort"

	"repro/internal/codec"
	"repro/internal/paxos"
)

// The certification log has one format: the codec's frames. An
// operation is the same bytes wherever it is logged — the WAL journals
// them, and a replicated certifier proposes them as the operation's
// Paxos value:
//
//   - a batch of commits is one writeset frame per record, then one
//     commit marker covering them all (AppendRecords);
//   - a 2PC decision is its decision frame, followed for a commit by the
//     decided record's frames, and then by a forget frame for the
//     decisions it retires (AppendDecision);
//   - a 2PC prepare is its single frame (AppendPrepare);
//   - a retirement on its own is one forget frame (codec.ForgetFrame).
//
// Every reader decodes through Replay: WAL recovery feeds it a
// segment's frames, and Recover feeds it Paxos values.

// AppendRecords appends one writeset frame per record, then one commit
// marker covering them all, and returns the buffer with the highest
// version it framed.
func AppendRecords(b []byte, recs []Record) ([]byte, int64) {
	var top int64
	for _, r := range recs {
		b = codec.WritesetFrame(b, r.Version, r.Writeset)
		top = max(top, r.Version)
	}
	return codec.CommitFrame(b, top), top
}

// AppendDecision appends a 2PC decision frame, for a commit the
// decided records' frames (AppendRecords), and, when retire is not
// empty, one forget frame for the decisions it retires. The decision
// leads and the retirement trails: a WAL tail torn inside the write
// can lose the retirement or the record but never the decision, and
// recovery re-commits the record from the prepared writeset
// (Restore). It returns the buffer with the highest version it
// framed (0: none).
func AppendDecision(b []byte, txn codec.TxnID, commit bool, version int64, recs []Record, retire []codec.TxnID) ([]byte, int64) {
	b = codec.DecisionFrame(b, txn, commit, version)
	var top int64
	if commit && len(recs) > 0 {
		b, top = AppendRecords(b, recs)
	}
	if len(retire) > 0 {
		b = codec.ForgetFrame(b, retire)
	}
	return b, top
}

// AppendPrepare appends the frame of an in-doubt fragment.
func AppendPrepare(b []byte, p PreparedTxn) []byte {
	return codec.PrepareFrame(b, p.ID, p.Coord, p.Snapshot, p.Writeset)
}

// Replay is the state one pass over log frames rebuilds. The zero
// value is an empty log.
type Replay struct {
	// Records are the committed records: the writesets a commit marker
	// covered, in the order the markers committed them.
	Records []Record
	// Prepared are the cross-shard fragments still relevant: in doubt
	// (no decision) or commit-decided — the latter kept so Restore
	// can re-commit a decision whose record frames a torn WAL tail
	// lost. Abort-decided and forgotten fragments are dropped.
	Prepared []PreparedTxn
	// Decisions are the 2PC decisions not yet forgotten.
	Decisions map[codec.TxnID]TwoPCDecision
	// staged are writesets no commit marker has covered yet.
	staged []Record
	// at indexes Prepared by id.
	at map[codec.TxnID]int
}

// Apply folds one decoded frame into the state. Epoch headers and
// snapshots are the WAL's own frames, not log entries: Apply refuses
// them.
func (r *Replay) Apply(f codec.Frame) error {
	switch f.Kind {
	case codec.KindWriteset:
		r.staged = append(r.staged, Record{Version: f.Version, Writeset: f.Writeset})
	case codec.KindCommit:
		// A marker commits every staged writeset at or below it.
		keep := r.staged[:0]
		for _, s := range r.staged {
			if s.Version <= f.Version {
				r.Records = append(r.Records, s)
			} else {
				keep = append(keep, s)
			}
		}
		r.staged = keep
	case codec.KindPrepare:
		if f.Txn.IsZero() {
			return nil
		}
		if _, dup := r.at[f.Txn]; dup {
			return nil // a duplicate prepare: the first one stands
		}
		if r.at == nil {
			r.at = make(map[codec.TxnID]int)
		}
		r.at[f.Txn] = len(r.Prepared)
		r.Prepared = append(r.Prepared, PreparedTxn{
			ID: f.Txn, Coord: f.Coord, Snapshot: f.Snapshot, Writeset: f.Writeset,
		})
	case codec.KindDecision:
		if f.Txn.IsZero() {
			return nil
		}
		if r.Decisions == nil {
			r.Decisions = make(map[codec.TxnID]TwoPCDecision)
		}
		r.Decisions[f.Txn] = TwoPCDecision{Commit: f.Commit, Version: f.Version}
		if !f.Commit {
			r.drop(f.Txn) // locks released; the fragment is gone
		}
	case codec.KindForget:
		for _, id := range f.Forget {
			delete(r.Decisions, id)
			r.drop(id)
		}
	default:
		return fmt.Errorf("certifier: a kind %d frame is not a log entry", f.Kind)
	}
	return nil
}

// drop removes txn's fragment from Prepared in constant time: the last
// fragment takes its place.
func (r *Replay) drop(txn codec.TxnID) {
	i, ok := r.at[txn]
	if !ok {
		return
	}
	delete(r.at, txn)
	last := len(r.Prepared) - 1
	if i != last {
		r.Prepared[i] = r.Prepared[last]
		r.at[r.Prepared[i].ID] = i
	}
	r.Prepared[last] = PreparedTxn{}
	r.Prepared = r.Prepared[:last]
	if last == 0 {
		// Emptied state equals state that never held a fragment.
		r.Prepared, r.at = nil, nil
	}
}

// Value folds the frames of one Paxos value into the state. A noop
// filler holds none. Unlike a WAL segment, whose tail a crash may tear,
// a chosen value is whole: a value that does not decode to its last
// byte — a short or corrupt frame, trailing bytes, a writeset left
// without its commit marker, or more than codec.MaxFrame bytes — is an
// error.
func (r *Replay) Value(v paxos.Value) error {
	if v == noopValue {
		return nil
	}
	if len(v) > codec.MaxFrame {
		return fmt.Errorf("certifier: %d-byte value exceeds %d", len(v), codec.MaxFrame)
	}
	b := []byte(v)
	for off := 0; off < len(b); {
		payload, n := codec.NextFrame(b[off:])
		if payload == nil {
			return fmt.Errorf("certifier: value has a short or corrupt frame at byte %d of %d", off, len(b))
		}
		f, err := codec.DecodeFrame(payload)
		if err != nil {
			return fmt.Errorf("certifier: value frame at byte %d: %w", off, err)
		}
		if err := r.Apply(f); err != nil {
			return err
		}
		off += n
	}
	if len(r.staged) > 0 {
		return fmt.Errorf("certifier: value stages version %d without a commit marker", r.staged[0].Version)
	}
	return nil
}

// replayLog decodes a recovered Paxos log through one Replay, slot by
// slot in slot order (the order the values were decided in), and sorts
// the records by version: the index and Since both rely on it.
func replayLog(log map[int]paxos.Value) (*Replay, error) {
	var rp Replay
	for _, slot := range slices.Sorted(maps.Keys(log)) {
		if err := rp.Value(log[slot]); err != nil {
			return nil, fmt.Errorf("certifier: log slot %d: %w", slot, err)
		}
	}
	sort.SliceStable(rp.Records, func(i, j int) bool { return rp.Records[i].Version < rp.Records[j].Version })
	return &rp, nil
}

// Restore builds a certifier from a replayed log — a static host's
// WAL, or the Paxos log Recover replays. base is the version the
// replayed history starts from (the compaction snapshot version, or
// the version below the first recovered record); it becomes the
// version and the pruning horizon, so the certifier rejects snapshots
// predating its retained log exactly like one that GC'd to the same
// point. The journal j (nil: none) is attached before the log is
// installed: a commit decision whose record frames a torn WAL tail
// lost is re-committed from the prepared writeset, and re-journaled.
// Restore is the only way a certifier gets a journal; a replicated
// certifier has none, its acceptors' votes being its log.
func Restore(rp *Replay, base int64, j Journal) (*Certifier, error) {
	c := &Certifier{version: base, lowWater: base, journal: j}
	if err := c.installLocked(rp); err != nil {
		return nil, err
	}
	return c, nil
}

// installLocked folds a replayed log into c: every record above the
// current version, in version order, then the log's 2PC state.
func (c *Certifier) installLocked(rp *Replay) error {
	for _, rec := range rp.Records {
		if rec.Version > c.version {
			c.applyLocked(rec)
		}
	}
	return c.restoreTwoPCLocked(rp.Prepared, rp.Decisions)
}

// Recover rebuilds a certifier from a recovered Paxos log, the
// backup-promotion path after a leader failure: the records, and the
// in-doubt locks and decisions of the 2PC entries. Entries must be the
// chosen values by slot, with no holes; no-ops are skipped. The pruning
// horizon is restored from the lowest recovered version: a log whose
// early slots were compacted to no-ops recovers lowWater = lowest-1, so
// the promoted backup rejects snapshots predating its retained history
// the way the failed leader did. (Today nothing compacts the Paxos log,
// so a full log recovers lowWater 0 — correct, since the full history
// is present.)
func Recover(log map[int]paxos.Value) (*Certifier, error) {
	for slot := range len(log) {
		if _, ok := log[slot]; !ok {
			return nil, fmt.Errorf("certifier: recovered log has a hole at slot %d", slot)
		}
	}
	rp, err := replayLog(log)
	if err != nil {
		return nil, err
	}
	var base int64
	if len(rp.Records) > 0 {
		base = rp.Records[0].Version - 1
	}
	return Restore(rp, base, nil)
}
