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
	"encoding/json"
	"fmt"

	"repro/internal/paxos"
	"repro/internal/writeset"
)

// PreparedTxn is one in-doubt cross-shard transaction fragment: the
// writeset a shard group has voted yes on and locked, keyed by the
// globally unique transaction id the router coordinator minted.
type PreparedTxn struct {
	// ID is the cross-shard transaction id (unique across restarts).
	ID string
	// Coord is the coordinator shard group's id — where Resolve asks.
	Coord int64
	// Snapshot is the GSI snapshot the fragment was certified against.
	Snapshot int64
	// Writeset is this group's fragment of the transaction.
	Writeset writeset.Writeset
}

// TwoPCDecision is a durable commit/abort decision for one prepared
// transaction. Version is the global version a commit was assigned
// (0 for aborts); recovery uses it to detect a decision whose record
// frames were torn off the log.
type TwoPCDecision struct {
	Commit  bool
	Version int64
}

// TxnJournal is the optional two-phase-commit extension of Journal: a
// write-ahead log that can journal prepares, decisions and forgets.
// AppendDecision writes the decision frame and, for commits, the
// decided record's writeset and commit marker in ONE write — with the
// decision frame first, so a torn tail can lose the record but never
// the decision (recovery re-commits from the prepared writeset; see
// RestoreTwoPC). All three return a sequence for Journal.Sync.
type TxnJournal interface {
	AppendPrepare(p PreparedTxn) (seq int64, err error)
	AppendDecision(txn string, commit bool, version int64, recs []Record) (seq int64, err error)
	AppendForget(txn string) (seq int64, err error)
}

// twoPCValue is the Paxos encoding of a 2PC operation on a replicated
// certifier. It deliberately embeds the Record fields: a decide-commit
// value IS the committed record (Version > 0), so every pre-2PC
// decoder — Recover, ReconcileLog, foldLocked — treats it as an
// ordinary log entry, while prepares and aborts carry Version 0 and
// are skipped by those paths. Op distinguishes the operations for the
// 2PC-aware recovery pass.
type twoPCValue struct {
	Version  int64
	Writeset writeset.Writeset
	Txn      string
	Op       string // "prepare" | "decide" | "forget"
	Commit   bool
	Coord    int64
	Snapshot int64
}

func encodeTwoPC(v twoPCValue) (paxos.Value, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("certifier: encode 2pc: %w", err)
	}
	return paxos.Value(b), nil
}

// decodeTwoPC extracts the 2PC operation from a Paxos value, ok=false
// for ordinary records, batches and noops.
func decodeTwoPC(v paxos.Value) (twoPCValue, bool) {
	if v == "" || v == noopValue || len(v) > maxEncodedRecord || v[0] != '{' {
		return twoPCValue{}, false
	}
	var t twoPCValue
	if err := json.Unmarshal([]byte(v), &t); err != nil || t.Op == "" {
		return twoPCValue{}, false
	}
	return t, true
}

// ensureTwoPCLocked lazily allocates the 2PC state (most certifiers
// never see a cross-shard transaction).
func (c *Certifier) ensureTwoPCLocked() {
	if c.prepared == nil {
		c.prepared = make(map[string]PreparedTxn)
		c.prepIndex = make(map[writeset.Key]string)
		c.decisions = make(map[string]TwoPCDecision)
	}
}

// prepConflictLocked reports whether ws overlaps a key locked by a
// prepared transaction other than id. Such an overlap blocks both
// ordinary certification and competing prepares: the prepared fragment
// holds a binding yes-vote and nothing may certify past its lock until
// the decision lands.
func (c *Certifier) prepConflictLocked(id string, ws writeset.Writeset) bool {
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

// lockLocked installs a prepared transaction and its key locks.
func (c *Certifier) lockLocked(p PreparedTxn) {
	c.ensureTwoPCLocked()
	c.prepared[p.ID] = p
	for _, e := range p.Writeset.Entries {
		c.prepIndex[e.Key] = p.ID
	}
}

// unlockLocked releases a prepared transaction's key locks.
func (c *Certifier) unlockLocked(id string) {
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
// is idempotent on id. A replicated certifier proposes the prepare to
// its Paxos group first, so a promoted backup inherits the lock.
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
	// The vote is not cast until our own value is chosen: a folded
	// competing value redoes the conflict test.
	_, err = c.proposeLocked(func() bool {
		var conflict bool
		conflict, conflictWith = c.conflictLocked(p.Snapshot, p.Writeset)
		// A concurrent in-doubt fragment holding one of the keys blocks
		// the vote too.
		vote = !conflict && !c.prepConflictLocked(p.ID, p.Writeset)
		return vote
	}, func() (paxos.Value, error) {
		return encodeTwoPC(twoPCValue{
			Txn: p.ID, Op: "prepare", Coord: p.Coord,
			Snapshot: p.Snapshot, Writeset: p.Writeset,
		})
	})
	if err != nil {
		c.mu.Unlock()
		return false, 0, err
	}
	if !vote {
		c.aborts++
		c.mu.Unlock()
		return false, conflictWith, nil
	}
	var j Journal
	var seq int64
	if tj, ok := c.journal.(TxnJournal); ok {
		if j, seq, err = c.journaledLocked(tj.AppendPrepare(p)); err != nil {
			c.mu.Unlock()
			return false, 0, fmt.Errorf("certifier: journal prepare: %w", err)
		}
	}
	c.lockLocked(p)
	c.mu.Unlock()
	if _, err := c.syncJournal(j, seq, 0); err != nil {
		// The vote's durability is unknown: refuse it. The lock stays
		// held; the coordinator's abort decision (or recovery's Resolve)
		// will release it.
		return false, 0, fmt.Errorf("certifier: journal sync (vote outcome unknown): %w", err)
	}
	return true, 0, nil
}

// Decide applies the coordinator's decision to a prepared transaction.
// Commit assigns the next global version and routes the fragment
// through the ordinary record log (journal, Paxos, Since) so every
// downstream consumer sees a normal commit; abort releases the locks.
// The decision is journaled durably before Decide returns, and the
// call is idempotent — a duplicate returns the recorded outcome.
// Deciding commit for a transaction this certifier never prepared is
// an error (the prepare's durability was the vote's whole point).
func (c *Certifier) Decide(id string, commit bool) (version int64, err error) {
	c.mu.Lock()
	c.ensureTwoPCLocked()
	if d, ok := c.decisions[id]; ok {
		c.mu.Unlock()
		if d.Commit != commit {
			return 0, fmt.Errorf("certifier: txn %s already decided %v", id, d.Commit)
		}
		return d.Version, nil
	}
	p, prepared := c.prepared[id]
	if !prepared && commit {
		c.mu.Unlock()
		return 0, fmt.Errorf("certifier: commit decision for unknown txn %s", id)
	}
	// A commit stages its record at the log tail. No conflict recheck
	// after a fold: the prepared locks guarantee nothing conflicting
	// certified since the vote, so only the version shifts. The quorum
	// must learn the decision: a promoted backup that lost the leader's
	// memory still answers Resolve correctly. A decide-commit value
	// doubles as the record itself (Version > 0), so pre-2PC recovery
	// paths fold it like any commit.
	_, err = c.proposeLocked(func() bool {
		if commit {
			version = c.version + 1
			c.appendLocked(Record{Version: version, Writeset: p.Writeset})
		}
		return true
	}, func() (paxos.Value, error) {
		return encodeTwoPC(twoPCValue{
			Version: version, Writeset: p.Writeset,
			Txn: id, Op: "decide", Commit: commit,
		})
	})
	if err != nil {
		c.unstageLocked()
		c.mu.Unlock()
		return 0, err
	}
	staged := c.stagedLocked()
	var j Journal
	var seq int64
	if c.journal != nil {
		tj, txn := c.journal.(TxnJournal)
		switch {
		case txn:
			j, seq, err = c.journaledLocked(tj.AppendDecision(id, commit, version, staged))
		case commit:
			j, seq, err = c.journaledLocked(c.journal.Append(staged))
		}
		if err != nil {
			c.unstageLocked()
			c.mu.Unlock()
			return 0, fmt.Errorf("certifier: journal decision: %w", err)
		}
	}
	c.unlockLocked(id)
	c.publishLocked(staged)
	if !commit {
		c.aborts++
	}
	c.decisions[id] = TwoPCDecision{Commit: commit, Version: version}
	c.mu.Unlock()
	if _, err := c.syncJournal(j, seq, version); err != nil {
		return 0, fmt.Errorf("certifier: journal sync (decision outcome unknown): %w", err)
	}
	return version, nil
}

// Resolve answers a recovering participant's in-doubt inquiry at the
// coordinator group: the recorded decision if one exists, otherwise
// PRESUMED ABORT — and the abort is written down (journaled, and
// proposed when replicated) before it is answered, so a delayed
// commit decision for the same transaction can never contradict it.
func (c *Certifier) Resolve(id string) (commit bool, err error) {
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

// Forget discards a fully acknowledged transaction's decision record —
// the coordinator calls it once every participant has applied the
// decision, bounding the decisions map. Presumed abort makes
// forgetting aborts safe immediately.
func (c *Certifier) Forget(id string) error {
	c.mu.Lock()
	c.ensureTwoPCLocked()
	var j Journal
	var seq int64
	if _, known := c.decisions[id]; known {
		if tj, ok := c.journal.(TxnJournal); ok {
			var err error
			if j, seq, err = c.journaledLocked(tj.AppendForget(id)); err != nil {
				c.mu.Unlock()
				return fmt.Errorf("certifier: journal forget: %w", err)
			}
		}
	}
	delete(c.decisions, id)
	c.unlockLocked(id)
	c.mu.Unlock()
	if _, err := c.syncJournal(j, seq, 0); err != nil {
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
		out = append(out, p)
	}
	return out
}

// Decided returns the recorded decision for a transaction, if any —
// the fast path Resolve consults, exposed for status tooling.
func (c *Certifier) Decided(id string) (TwoPCDecision, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d, ok := c.decisions[id]
	return d, ok
}

// RestoreTwoPC reinstates recovered 2PC state after NewFromRecords:
// decisions are re-recorded, undecided prepares re-lock their keys
// (in doubt until resolved), and a commit decision whose record frames
// were torn off the log — Version above the recovered history — is
// re-committed from the prepared writeset at that same version. The
// journal, if any, must be attached first so the re-commit is
// re-journaled.
func (c *Certifier) RestoreTwoPC(prepared []PreparedTxn, decisions map[string]TwoPCDecision) error {
	c.mu.Lock()
	defer c.mu.Unlock()
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
			rec := Record{Version: d.Version, Writeset: p.Writeset}
			if c.journal != nil {
				if _, err := c.journal.Append([]Record{rec}); err != nil {
					return fmt.Errorf("certifier: re-journal recovered decision: %w", err)
				}
			}
			c.applyLocked(rec)
		}
		// Decided (commit landed, or abort): nothing to reinstate.
	}
	c.durable = c.version
	return nil
}

// restoreTwoPCFromLog rebuilds 2PC state from a recovered Paxos log's
// 2PC values, applied in slot order — the failover twin of
// RestoreTwoPC. Called with c.mu held.
func (c *Certifier) restoreTwoPCFromLogLocked(log map[int]paxos.Value) {
	slots := make([]int, 0, len(log))
	for s := range log {
		slots = append(slots, s)
	}
	// Slot order = decision order.
	for i := 0; i < len(slots); i++ {
		for j := i + 1; j < len(slots); j++ {
			if slots[j] < slots[i] {
				slots[i], slots[j] = slots[j], slots[i]
			}
		}
	}
	c.ensureTwoPCLocked()
	for _, s := range slots {
		t, ok := decodeTwoPC(log[s])
		if !ok {
			continue
		}
		switch t.Op {
		case "prepare":
			if _, decided := c.decisions[t.Txn]; !decided {
				c.lockLocked(PreparedTxn{
					ID: t.Txn, Coord: t.Coord,
					Snapshot: t.Snapshot, Writeset: t.Writeset,
				})
			}
		case "decide":
			c.unlockLocked(t.Txn)
			c.decisions[t.Txn] = TwoPCDecision{Commit: t.Commit, Version: t.Version}
		case "forget":
			c.unlockLocked(t.Txn)
			delete(c.decisions, t.Txn)
		}
	}
}

// RestoreTwoPCFromLog rebuilds prepared locks and decisions from a
// recovered Paxos log — Promote and Campaign callers invoke it after
// Recover/ReconcileLog so a promoted backup inherits every in-doubt
// lock and can answer Resolve for decided transactions. Commit records
// themselves were already folded by the record pass (a decide-commit
// value doubles as a record).
func (c *Certifier) RestoreTwoPCFromLog(log map[int]paxos.Value) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.restoreTwoPCFromLogLocked(log)
}
