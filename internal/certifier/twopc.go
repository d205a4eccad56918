// Two-phase commit over certification: the cross-shard commit
// protocol of the partitioned deployment (docs/SHARDING.md).
//
// A cross-shard transaction's writeset is split per shard group and
// each fragment is PREPARED at its group's certifier: the fragment is
// conflict-checked exactly like a commit, but instead of receiving a
// version it is journaled as an in-doubt transaction and its keys are
// locked against later certifications. A prepared fragment is a
// binding yes-vote — the group guarantees it can commit the fragment
// whenever the decision arrives, because nothing conflicting can
// certify past the lock.
//
// The coordinator group's durable DECIDE record is the commit point.
// Deciding commit assigns the fragment the next global version and
// routes it through the ordinary record log, so propagation, GC,
// recovery and the MVA model all see a perfectly normal commit;
// deciding abort just releases the locks. The protocol is
// presumed-abort: a participant that recovers in doubt asks the
// coordinator group (Resolve), and a coordinator that has no durable
// decision for the transaction answers abort — writing that abort
// down first, so a delayed commit decision can never contradict it.
package certifier

import (
	"fmt"
	"time"

	"repro/internal/codec"
	"repro/internal/writeset"
)

// PreparedTxn is one in-doubt cross-shard transaction fragment: the
// writeset a shard group has voted yes on and locked, keyed by the
// globally unique transaction id the router coordinator minted.
type PreparedTxn struct {
	// ID is the cross-shard transaction id (unique across restarts).
	ID codec.TxnID
	// Coord is the coordinator shard group's id — where Resolve asks.
	Coord int64
	// Snapshot is the GSI snapshot the fragment was certified against.
	Snapshot int64
	// Writeset is this group's fragment of the transaction.
	Writeset writeset.Writeset
}

// inDoubt is a prepared fragment and when this certifier locked it.
type inDoubt struct {
	PreparedTxn
	since time.Time
}

// TwoPCDecision is a durable commit/abort decision for one prepared
// transaction. Version is the global version a commit was assigned
// (0 for aborts); recovery uses it to detect a decision whose record
// frames were torn off the log.
type TwoPCDecision struct {
	Commit  bool
	Version int64
}

// ensureTwoPCLocked lazily allocates the 2PC state (most certifiers
// never see a cross-shard transaction).
func (c *Certifier) ensureTwoPCLocked() {
	if c.prepared == nil {
		c.prepared = make(map[codec.TxnID]inDoubt)
		c.prepIndex = make(map[writeset.Key]codec.TxnID)
		c.decisions = make(map[codec.TxnID]TwoPCDecision)
	}
}

// prepConflictLocked reports whether ws overlaps a key locked by a
// prepared transaction other than id (the zero id for an ordinary
// certification). Such an overlap blocks both
// ordinary certification and competing prepares: the prepared fragment
// holds a binding yes-vote and nothing may certify past its lock until
// the decision lands.
func (c *Certifier) prepConflictLocked(id codec.TxnID, ws writeset.Writeset) bool {
	if len(c.prepIndex) == 0 {
		return false
	}
	for _, e := range ws.Entries {
		if owner, ok := c.prepIndex[e.Key]; ok && owner != id {
			return true
		}
	}
	return false
}

// lockLocked installs a prepared transaction and its key locks,
// stamped with the time it was locked.
func (c *Certifier) lockLocked(p PreparedTxn) {
	c.ensureTwoPCLocked()
	c.prepared[p.ID] = inDoubt{PreparedTxn: p, since: time.Now()}
	for _, e := range p.Writeset.Entries {
		c.prepIndex[e.Key] = p.ID
	}
}

// unlockLocked releases a prepared transaction's key locks.
func (c *Certifier) unlockLocked(id codec.TxnID) {
	p, ok := c.prepared[id]
	if !ok {
		return
	}
	delete(c.prepared, id)
	for _, e := range p.Writeset.Entries {
		if c.prepIndex[e.Key] == id {
			delete(c.prepIndex, e.Key)
		}
	}
}

// Prepare runs the first 2PC phase for one transaction fragment: the
// conflict test of Certify, but on success the fragment is journaled
// in doubt and its keys locked instead of committing. vote=true is a
// binding promise that a later Decide(id, true) will commit. Prepare
// is idempotent on id. The prepare is logged first — on a replicated
// certifier proposed to its Paxos group, so a promoted backup inherits
// the lock.
func (c *Certifier) Prepare(p PreparedTxn) (vote bool, conflictWith int64, err error) {
	c.mu.Lock()
	c.ensureTwoPCLocked()
	if err := c.admitLocked(p.Writeset); err != nil {
		c.mu.Unlock()
		return false, 0, err
	}
	if _, ok := c.prepared[p.ID]; ok {
		c.mu.Unlock()
		return true, 0, nil // duplicate prepare: the vote stands
	}
	if d, ok := c.decisions[p.ID]; ok {
		c.mu.Unlock()
		return d.Commit, 0, nil // already decided: echo the outcome
	}
	// A concurrent in-doubt fragment holding one of the keys blocks the
	// vote too. The vote is not cast until the prepare is chosen.
	if conflict, with := c.conflictLocked(p.Snapshot, p.Writeset); conflict || c.prepConflictLocked(p.ID, p.Writeset) {
		c.aborts++
		c.mu.Unlock()
		return false, with, nil
	}
	seq, _, err := c.logLocked(0, func(b []byte) []byte { return AppendPrepare(b, p) })
	if err != nil {
		c.mu.Unlock()
		return false, 0, err
	}
	c.lockLocked(p)
	c.mu.Unlock()
	if _, err := c.syncLog(seq, 0); err != nil {
		// The vote's durability is unknown: refuse it. The lock stays
		// held; the coordinator's abort decision (or recovery's Resolve)
		// will release it.
		return false, 0, fmt.Errorf("certifier: journal sync (vote outcome unknown): %w", err)
	}
	return true, 0, nil
}

// Decide applies the coordinator's decision to a prepared transaction.
// Commit assigns the next global version and routes the fragment
// through the ordinary record log (the log, Since) so every
// downstream consumer sees a normal commit; abort releases the locks.
// The decision is journaled durably before Decide returns, and the
// call is idempotent — a duplicate returns the recorded outcome.
// Deciding commit for a transaction this certifier never prepared is
// an error (the prepare's durability was the vote's whole point).
//
// retire lists decisions to retire in the same log append, after the decision's record frames: id itself at a
// participant (nobody resolves against a participant) and for an abort
// (presumed abort needs no record of one), and at the coordinator the
// earlier decisions every participant has since acknowledged.
func (c *Certifier) Decide(id codec.TxnID, commit bool, retire ...codec.TxnID) (version int64, err error) {
	c.mu.Lock()
	c.ensureTwoPCLocked()
	if d, ok := c.decisions[id]; ok {
		c.mu.Unlock()
		if d.Commit != commit {
			return 0, fmt.Errorf("certifier: txn %s already decided %v", id, d.Commit)
		}
		if len(retire) > 0 {
			if err := c.Forget(retire...); err != nil {
				return 0, err
			}
		}
		return d.Version, nil
	}
	p, prepared := c.prepared[id]
	if !prepared && commit {
		c.mu.Unlock()
		return 0, fmt.Errorf("certifier: commit decision for unknown txn %s", id)
	}
	// A commit stages its record at the log tail, with no conflict
	// recheck: the prepared locks guarantee nothing conflicting
	// certified since the vote. The quorum must learn the decision: a
	// promoted backup that lost the leader's memory still answers
	// Resolve correctly. The frames are the decision's (AppendDecision),
	// so a decide-commit carries its record and its retirements, and
	// every recovery path replays them like any other.
	if commit {
		version = c.version + 1
		c.appendLocked(Record{Version: version, Writeset: p.Writeset})
	}
	staged := c.stagedLocked()
	seq, _, err := c.logLocked(version, func(b []byte) []byte {
		b, _ = AppendDecision(b, id, commit, version, staged, retire)
		return b
	})
	if err != nil {
		c.unstageLocked()
		c.mu.Unlock()
		return 0, err
	}
	c.unlockLocked(id)
	c.publishLocked(staged)
	if !commit {
		c.aborts++
	}
	c.decisions[id] = TwoPCDecision{Commit: commit, Version: version}
	c.retireLocked(retire)
	c.mu.Unlock()
	if _, err := c.syncLog(seq, version); err != nil {
		return 0, fmt.Errorf("certifier: journal sync (decision outcome unknown): %w", err)
	}
	return version, nil
}

// retireLocked drops the decisions, and any fragments, of ids.
func (c *Certifier) retireLocked(ids []codec.TxnID) {
	for _, id := range ids {
		delete(c.decisions, id)
		c.unlockLocked(id)
	}
}

// Resolve answers a recovering participant's in-doubt inquiry at the
// coordinator group: the recorded decision if one exists, otherwise
// PRESUMED ABORT — and the abort is logged before it is answered, so a delayed
// commit decision for the same transaction can never contradict it.
func (c *Certifier) Resolve(id codec.TxnID) (commit bool, err error) {
	c.mu.Lock()
	c.ensureTwoPCLocked()
	if d, ok := c.decisions[id]; ok {
		c.mu.Unlock()
		return d.Commit, nil
	}
	c.mu.Unlock()
	if _, err := c.Decide(id, false); err != nil {
		return false, err
	}
	return false, nil
}

// Forget retires fully acknowledged decisions — the coordinator's,
// once every participant has applied them — bounding the decisions
// map. Presumed abort makes forgetting aborts safe immediately. The
// retirement is logged, so a promoted backup or a restarted leader reconciling with the quorum
// log does not reinstate what was retired.
func (c *Certifier) Forget(ids ...codec.TxnID) error {
	c.mu.Lock()
	c.ensureTwoPCLocked()
	known := false
	for _, id := range ids {
		_, decided := c.decisions[id]
		_, prepared := c.prepared[id]
		known = known || decided || prepared
	}
	if !known {
		c.mu.Unlock()
		return nil
	}
	seq, _, err := c.logLocked(0, func(b []byte) []byte { return codec.ForgetFrame(b, ids) })
	if err != nil {
		c.mu.Unlock()
		return err
	}
	c.retireLocked(ids)
	c.mu.Unlock()
	if _, err := c.syncLog(seq, 0); err != nil {
		return fmt.Errorf("certifier: journal sync (forget outcome unknown): %w", err)
	}
	return nil
}

// InDoubt returns the prepared transactions awaiting a decision, the
// recovery worklist a restarted shard group resolves against each
// fragment's coordinator.
func (c *Certifier) InDoubt() []PreparedTxn {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]PreparedTxn, 0, len(c.prepared))
	for _, p := range c.prepared {
		out = append(out, p.PreparedTxn)
	}
	return out
}

// OldestInDoubt returns how long before now the oldest in-doubt
// fragment was locked, 0 with none in doubt. A fragment restored from
// a log counts from its restore.
func (c *Certifier) OldestInDoubt(now time.Time) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	var oldest time.Duration
	for _, p := range c.prepared {
		oldest = max(oldest, now.Sub(p.since))
	}
	return oldest
}

// TwoPCCounts returns how many fragments are in doubt and how many
// decisions are recorded, without copying either.
func (c *Certifier) TwoPCCounts() (inDoubt, decisions int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.prepared), len(c.decisions)
}

// Decided returns the recorded decision for a transaction, if any —
// the fast path Resolve consults, exposed for status tooling.
func (c *Certifier) Decided(id codec.TxnID) (TwoPCDecision, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d, ok := c.decisions[id]
	return d, ok
}

// restoreTwoPCLocked installs replayed 2PC state (see Replay) in place
// of the certifier's own, for Restore: decisions are re-recorded,
// undecided prepares re-lock their keys (in doubt until resolved), and
// a commit decision whose record frames were torn off the log —
// Version above the recovered history — is re-committed from the
// prepared writeset at that same version, and logged again.
func (c *Certifier) restoreTwoPCLocked(prepared []PreparedTxn, decisions map[codec.TxnID]TwoPCDecision) error {
	c.prepared, c.prepIndex, c.decisions = nil, nil, nil
	c.ensureTwoPCLocked()
	for id, d := range decisions {
		c.decisions[id] = d
	}
	for _, p := range prepared {
		d, decided := decisions[p.ID]
		switch {
		case !decided:
			c.lockLocked(p) // in doubt: lock until Resolve
		case d.Commit && d.Version > c.version:
			// The decision outlived its record (the decision frame leads
			// the record frames in one write; the tail tore between
			// them). Journal appends are version-ordered, so everything
			// at or above the lost version was lost too — the next
			// version IS the decided one.
			if d.Version != c.version+1 {
				return fmt.Errorf("certifier: recovered decision for %s at version %d, log at %d",
					p.ID, d.Version, c.version)
			}
			recs := []Record{{Version: d.Version, Writeset: p.Writeset}}
			_, _, err := c.logLocked(d.Version, func(b []byte) []byte {
				b, _ = AppendRecords(b, recs)
				return b
			})
			if err != nil {
				return fmt.Errorf("certifier: re-log recovered decision: %w", err)
			}
			c.applyLocked(recs[0])
		}
		// Decided (commit landed, or abort): nothing to reinstate.
	}
	c.durable = c.version
	return nil
}
