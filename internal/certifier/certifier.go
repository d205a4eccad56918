// Package certifier implements the paper's certification service
// (§5.1): a lightweight stateful service that maintains committed
// writesets with their versions and decides update-transaction
// commits under generalized snapshot isolation.
//
// A request carries the transaction's writeset and the version of its
// snapshot. The certifier compares the writeset against the writesets
// of all transactions that committed after that version; any overlap
// is a system-wide write-write conflict and the transaction aborts,
// otherwise it commits and receives the next global version.
// Certification is deterministic, and an update transaction is
// durably committed once its writeset is persistent at the certifier —
// in this implementation, once a Paxos majority (leader + two backups,
// §6.1) has accepted the log entry.
//
// The conflict test is backed by an inverted index mapping each row
// key to the newest committed version that wrote it, maintained
// incrementally on commit and pruned on GC. Certification therefore
// costs O(|writeset|) regardless of how long the retained log is —
// the property §6.3 relies on when it argues the certifier is never
// the cluster bottleneck. CertifyBatch and Batcher additionally
// amortize one Paxos round over many concurrent requests, the way the
// paper's certifier logs batches of writesets.
package certifier

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/paxos"
	"repro/internal/writeset"
)

// NotLeaderError reports a certification request sent to a deposed
// leader: a newer epoch exists and this node must stop acknowledging
// commits. Callers redirect to the new leader (identified by the
// epoch's proposer id) and retry.
type NotLeaderError struct {
	// Leader is the paxos proposer id of the deposing epoch.
	Leader int
	// Epoch is the ballot that deposed this node.
	Epoch paxos.Ballot
}

func (e NotLeaderError) Error() string {
	return fmt.Sprintf("certifier: not leader (deposed by node %d, epoch %s)", e.Leader, e.Epoch)
}

// noopValue fills recovered log holes; DecodeRecord(s) skip it.
const noopValue paxos.Value = "noop"

// Record is one certified (committed) update transaction.
type Record struct {
	Version  int64
	Writeset writeset.Writeset
}

// Outcome reports a certification decision.
type Outcome struct {
	// Committed is true when no write-write conflict was found.
	Committed bool
	// Version is the global version assigned to the transaction
	// (valid only when Committed).
	Version int64
	// ConflictWith identifies the newest committed version that caused
	// an abort (valid only when !Committed).
	ConflictWith int64
}

// Request is one certification request, as submitted in a batch.
type Request struct {
	Snapshot int64
	Writeset writeset.Writeset
}

// Result pairs a certification outcome with a per-request error (an
// empty writeset).
type Result struct {
	Outcome Outcome
	Err     error
}

// Journal is the durability hook a write-ahead log implements: Append
// stages freshly certified records (called under the certification
// lock, so the journal receives them in version order — the property
// recovery's dense-prefix guarantee rests on) and returns a sequence
// token; Sync blocks until everything staged at or before the token is
// durable. Sync is called outside the lock, which is what lets one
// fsync group-commit every certification that raced into the same
// window. recs is a view of the certifier's log: Append copies what it
// keeps.
type Journal interface {
	Append(recs []Record) (seq int64, err error)
	Sync(seq int64) error
}

// Certifier orders and certifies update transactions. It is safe for
// concurrent use; certification requests serialize, which is what
// makes the decision deterministic.
type Certifier struct {
	mu      sync.Mutex
	records []Record // ascending versions, possibly pruned below lowWater
	// logBuf is the whole array records is a window at the end of: the
	// slots before records are the head GC pruned, which appendLocked
	// reuses instead of growing.
	logBuf []Record
	index  map[writeset.Key]int64
	// overlay is a batch's conflict index over its own earlier commits,
	// kept between batches so group commit reuses its buckets.
	overlay  map[writeset.Key]int64
	lowWater int64 // all versions <= lowWater have been pruned
	version  int64

	// Replication (optional): the certification log is proposed to a
	// Paxos group before a commit is acknowledged.
	proposer *paxos.Proposer

	// journal (optional): certified records are staged under mu and
	// synced before the commit is acknowledged. durable is the newest
	// version whose journal sync has completed: records above it exist
	// in memory but are withheld from Since, so a peer can never
	// replicate a commit that a power loss could still erase here —
	// the version would be reassigned on recovery and the peer, having
	// already applied the old record at that version, would silently
	// skip the new one forever.
	//
	// With a proposer attached the roles invert: the Paxos majority is
	// the durability authority (a commit is durable once accepted by a
	// quorum) and the journal is a best-effort local cache that speeds
	// up restart. A journal failure then detaches the journal (recorded
	// in journalErr) instead of failing the commit, and Since never
	// withholds — every applied record is already majority-durable.
	journal    Journal
	journalErr error
	durable    int64

	// stageObs (optional) receives the duration of each internal
	// certification sub-stage, for commit-path tracing.
	stageObs func(stage string, versions []int64, d time.Duration)

	// Two-phase commit state (twopc.go), allocated lazily: in-doubt
	// prepared fragments, their key locks, and recorded decisions.
	prepared  map[string]PreparedTxn
	prepIndex map[writeset.Key]string
	decisions map[string]TwoPCDecision

	commits int64
	aborts  int64
}

// New creates an unreplicated certifier, useful for tests and the
// single-master design (which needs none).
func New() *Certifier {
	return &Certifier{index: make(map[writeset.Key]int64)}
}

// SetJournal attaches the durability journal: from now on every
// certified record is staged in j (in version order, under the
// certification lock) and synced before Certify or CertifyBatch
// acknowledges the commit. Attach before serving traffic.
//
// On an unreplicated certifier the journal IS the durability
// authority: a journal failure refuses or withholds the commit. On a
// Paxos-replicated certifier the acceptor majority is the authority —
// a version the quorum accepted can never be reused — so the journal
// is a restart cache: a failure detaches it (see JournalError) and the
// commit is still acknowledged.
func (c *Certifier) SetJournal(j Journal) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.journal = j
	c.journalErr = nil
	c.durable = c.version // recovered history is durable by definition
}

// SetStageObserver attaches a callback invoked with the duration of
// each internal certification sub-stage — "paxos" (proposal rounds),
// "journal" (log append), "fsync" (group-commit sync wait) — and the
// certified versions the duration covers. Some invocations happen
// under the certification lock, so the callback must be fast and
// must never call back into the certifier. Attach before serving
// traffic.
func (c *Certifier) SetStageObserver(f func(stage string, versions []int64, d time.Duration)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stageObs = f
}

// observeStage reports one sub-stage covering the consecutive versions
// first..last to the attached observer, building the version list only
// when one is attached.
func (c *Certifier) observeStage(stage string, first, last int64, d time.Duration) {
	if c.stageObs == nil || last < first {
		return
	}
	vs := make([]int64, 0, last-first+1)
	for v := first; v <= last; v++ {
		vs = append(vs, v)
	}
	c.stageObs(stage, vs, d)
}

// JournalError returns the error that detached the journal of a
// replicated certifier, or nil while the journal is healthy.
func (c *Certifier) JournalError() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.journalErr
}

// detachJournalLocked drops a failing journal on a replicated
// certifier: the Paxos log holds every record, so losing the local
// cache costs a slower restart, not correctness.
func (c *Certifier) detachJournalLocked(err error) {
	c.journal = nil
	c.journalErr = err
}

// journaledLocked applies the journal policy to the result of one
// journal write, made under c.mu so entries reach the journal in log
// order. It returns the journal to sync outside the lock (nil: nothing
// to sync). On an unreplicated certifier the journal is the durability
// authority, so a failed write is returned and the caller applies
// nothing. On a replicated one the Paxos quorum already holds the
// entry: a failure detaches the journal and the caller goes on.
func (c *Certifier) journaledLocked(seq int64, err error) (Journal, int64, error) {
	if err == nil {
		return c.journal, seq, nil
	}
	if c.proposer == nil {
		return nil, 0, err
	}
	c.detachJournalLocked(err)
	return nil, 0, nil
}

// syncJournal waits, outside c.mu, until the entry journaledLocked
// returned is durable, then publishes versions up to v as durable (0:
// the entry carries no record). It returns how long the sync took. A
// failed sync is returned by an unreplicated certifier — the outcome is
// unknown, and the records stay withheld from Since — and detaches a
// replicated certifier's journal.
func (c *Certifier) syncJournal(j Journal, seq, v int64) (time.Duration, error) {
	if j == nil {
		return 0, nil
	}
	start := time.Now()
	err := j.Sync(seq)
	d := time.Since(start)
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case err == nil:
		// Journal appends happen in log order and an fsync covers every
		// byte written before it, so a completed sync for v implies all
		// versions at or below v are durable too.
		c.durable = max(c.durable, v)
	case c.proposer == nil:
		return d, err
	default:
		c.detachJournalLocked(err)
	}
	return d, nil
}

// NewFromRecords rebuilds a certifier from an already-recovered record
// sequence — the WAL replay path, the journaled twin of Recover. base
// is the version the recovered history starts from (the compaction
// snapshot version); it becomes the pruning horizon, so the restarted
// certifier rejects snapshots predating its retained log exactly like
// one that GC'd to the same point.
func NewFromRecords(recs []Record, base int64) *Certifier {
	c := New()
	c.appendLocked(recs...)
	sort.Slice(c.records, func(i, j int) bool { return c.records[i].Version < c.records[j].Version })
	for _, rec := range c.records {
		for _, e := range rec.Writeset.Entries {
			c.index[e.Key] = rec.Version
		}
		if rec.Version > c.version {
			c.version = rec.Version
		}
		c.commits++
	}
	c.lowWater = base
	if c.version < base {
		c.version = base
	}
	return c
}

// LowWater returns the pruning horizon: all versions at or below it
// have been garbage-collected (or compacted away before recovery).
func (c *Certifier) LowWater() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lowWater
}

// NewReplicated creates a certifier whose log is replicated across
// nodes in-process Paxos acceptors (the paper uses a leader and two
// backups, so nodes is typically 3). It returns the certifier and the
// transport, which tests use to inject failures.
func NewReplicated(nodes int) (*Certifier, *paxos.LocalTransport, error) {
	if nodes < 1 {
		return nil, nil, fmt.Errorf("certifier: %d replication nodes", nodes)
	}
	accs := make([]*paxos.Acceptor, nodes)
	ids := make([]int, nodes)
	for i := range accs {
		accs[i] = paxos.NewAcceptor(i)
		ids[i] = i
	}
	tr := paxos.NewLocalTransport(accs...)
	c := New()
	c.proposer = paxos.NewProposer(0, ids, tr)
	return c, tr, nil
}

// NewReplicatedOver creates a certifier replicating through an
// externally supplied transport — the networked deployment, where
// acceptors live inside each replica's server. With fenced true the
// proposer deposes itself on preemption (returning NotLeaderError from
// Certify) instead of outbidding, which is what leader election
// requires: a deposed leader can never ack a commit the new leader did
// not learn.
func NewReplicatedOver(id int, peers []int, tr paxos.Transport, fenced bool) *Certifier {
	c := New()
	p := paxos.NewProposer(id, peers, tr)
	p.SetFenced(fenced)
	c.proposer = p
	return c
}

// Promote elects node id leader of the certification group and
// rebuilds the certifier from the recovered Paxos log — the backup
// promotion path after a leader failure. It returns the promoted
// certifier and its epoch (the winning ballot). The fenced proposer it
// installs guarantees the new leader is itself deposed cleanly when an
// even newer epoch appears.
func Promote(id int, peers []int, tr paxos.Transport) (*Certifier, paxos.Ballot, error) {
	p := paxos.NewProposer(id, peers, tr)
	p.SetFenced(true)
	epoch, log, err := p.Campaign(noopValue)
	if err != nil {
		return nil, paxos.Ballot{}, fmt.Errorf("certifier: promote: %w", err)
	}
	c, err := Recover(log)
	if err != nil {
		return nil, paxos.Ballot{}, err
	}
	c.RestoreTwoPCFromLog(log) // inherit in-doubt locks and decisions
	c.proposer = p
	return c, epoch, nil
}

// Campaign re-elects an existing replicated certifier's proposer —
// the warm-restart path, after the local state was rebuilt from a WAL
// and reconciled with the Paxos log. It returns the new epoch.
func (c *Certifier) Campaign() (paxos.Ballot, error) {
	c.mu.Lock()
	p := c.proposer
	c.mu.Unlock()
	if p == nil {
		return paxos.Ballot{}, fmt.Errorf("certifier: campaign on an unreplicated certifier")
	}
	epoch, log, err := p.Campaign(noopValue)
	if err != nil {
		return paxos.Ballot{}, fmt.Errorf("certifier: campaign: %w", err)
	}
	if err := c.ReconcileLog(log); err != nil {
		return paxos.Ballot{}, err
	}
	c.RestoreTwoPCFromLog(log)
	return epoch, nil
}

// ReconcileLog folds a recovered Paxos log into this certifier,
// applying every record above the locally known version. A restarted
// leader whose WAL lags the acceptor group (it crashed between a
// successful propose and the journal sync) catches up here before
// serving, so it can never reassign a version the quorum already
// decided.
func (c *Certifier) ReconcileLog(log map[int]paxos.Value) error {
	var recs []Record
	for _, v := range log {
		rs, err := DecodeRecords(v)
		if err != nil {
			return err
		}
		for _, rec := range rs {
			if rec.Version != 0 {
				recs = append(recs, rec)
			}
		}
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Version < recs[j].Version })
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, rec := range recs {
		if rec.Version <= c.version {
			continue
		}
		c.applyLocked(rec)
	}
	c.durable = c.version
	return nil
}

// Epoch returns the replicated certifier's current ballot (its epoch
// while it leads), or the zero ballot when unreplicated.
func (c *Certifier) Epoch() paxos.Ballot {
	c.mu.Lock()
	p := c.proposer
	c.mu.Unlock()
	if p == nil {
		return paxos.Ballot{}
	}
	return p.CurrentBallot()
}

// Deposed reports whether this certifier's fenced proposer has been
// preempted by a higher epoch (and by which ballot); always false on
// an unreplicated certifier. A deposed certifier answers every
// certification with NotLeaderError until re-elected via Campaign.
func (c *Certifier) Deposed() (paxos.Ballot, bool) {
	c.mu.Lock()
	p := c.proposer
	c.mu.Unlock()
	if p == nil {
		return paxos.Ballot{}, false
	}
	return p.Deposed()
}

// Version returns the latest committed global version.
func (c *Certifier) Version() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.version
}

// Stats returns the number of committed and aborted certification
// requests.
func (c *Certifier) Stats() (commits, aborts int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.commits, c.aborts
}

// ReplicationSlots returns the number of Paxos log slots this
// certifier has decided, or 0 when unreplicated. Batched commits
// occupy one slot per batch, which is what makes group commit cheap.
func (c *Certifier) ReplicationSlots() int {
	if c.proposer == nil {
		return 0
	}
	return c.proposer.ChosenCount()
}

// Check performs the conflict test without committing: it reports
// whether ws conflicts with any transaction committed after snapshot.
// The replica proxy uses it for early certification of partial
// writesets (§5.1).
func (c *Certifier) Check(snapshot int64, ws writeset.Writeset) (conflict bool, with int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.conflictLocked(snapshot, ws)
}

// conflictLocked consults the inverted index: ws conflicts iff some
// key it writes was last written by a version newer than snapshot. It
// reports the newest such version, matching what a newest-first log
// scan would attribute the abort to.
func (c *Certifier) conflictLocked(snapshot int64, ws writeset.Writeset) (bool, int64) {
	if snapshot < c.lowWater {
		// The commits between snapshot and the pruning horizon are gone
		// from the index, and any of them may have written ws's rows:
		// abort, and the retry runs on a fresh snapshot.
		return true, c.lowWater
	}
	newest := int64(0)
	for _, e := range ws.Entries {
		if v, ok := c.index[e.Key]; ok && v > snapshot && v > newest {
			newest = v
		}
	}
	return newest > 0, newest
}

// admitLocked validates a request against invariants that are errors
// rather than aborts.
func (c *Certifier) admitLocked(ws writeset.Writeset) error {
	if ws.Empty() {
		return fmt.Errorf("certifier: empty writeset (read-only transactions commit locally)")
	}
	return nil
}

// applyLocked installs a recovered record.
func (c *Certifier) applyLocked(rec Record) {
	c.appendLocked(rec)
	c.publishLocked(c.records[len(c.records)-1:])
}

// publishLocked makes records staged at the log tail committed: they
// enter the conflict index, and the version moves to the last of them.
func (c *Certifier) publishLocked(recs []Record) {
	for _, rec := range recs {
		for _, e := range rec.Writeset.Entries {
			c.index[e.Key] = rec.Version
		}
		c.version = rec.Version
		c.commits++
	}
}

// stagedLocked returns the records staged at the log tail: appended
// above the committed version, not yet published. Only a commit in
// progress, which holds c.mu throughout, stages records, so no reader
// ever sees them. The slice is clipped: a journal that appends to it
// cannot write into the log.
func (c *Certifier) stagedLocked() []Record {
	i := len(c.records)
	for i > 0 && c.records[i-1].Version > c.version {
		i--
	}
	return c.records[i:len(c.records):len(c.records)]
}

// unstageLocked drops the records staged at the log tail.
func (c *Certifier) unstageLocked() {
	staged := c.stagedLocked()
	clear(staged)
	c.records = c.records[:len(c.records)-len(staged)]
}

// Certify decides an update transaction: commit (assigning the next
// global version and persisting the writeset) or abort on conflict.
// A snapshot older than the pruning horizon aborts: the certifier can
// no longer certify against the full set of concurrent commits.
// Certify is CertifyBatch with a batch of one, run on stack buffers.
func (c *Certifier) Certify(snapshot int64, ws writeset.Writeset) (Outcome, error) {
	reqs := [1]Request{{Snapshot: snapshot, Writeset: ws}}
	var res [1]Result
	if err := c.certify(reqs[:], res[:]); err != nil {
		return Outcome{}, err
	}
	return res[0].Outcome, res[0].Err
}

// CertifyBatch decides a batch of requests in order, as if each had
// been submitted to Certify back to back, but pays at most one Paxos
// round and one journal write for the whole batch (group commit).
// Later requests in the batch see earlier ones as committed, so
// intra-batch conflicts abort exactly as they would have sequentially.
// Per-request validation failures are reported in the matching Result;
// a replication failure fails the whole batch with no state change, so
// no caller observes a commit that was never made durable.
func (c *Certifier) CertifyBatch(reqs []Request) ([]Result, error) {
	results := make([]Result, len(reqs))
	if err := c.certify(reqs, results); err != nil {
		return nil, err
	}
	return results, nil
}

// certify decides reqs into res, then orders the commits through
// Paxos, journals them and publishes them — the one commit path. With a
// journal attached a commit is acknowledged only after its record is
// durable: the journal write happens under the lock (version order),
// the sync outside it (group commit).
func (c *Certifier) certify(reqs []Request, res []Result) error {
	c.mu.Lock()
	var aborts int64
	paxosTime, err := c.proposeLocked(func() bool {
		aborts = c.stageLocked(reqs, res)
		return len(c.stagedLocked()) > 0
	}, func() (paxos.Value, error) {
		return encodeBatch(c.stagedLocked())
	})
	if err != nil {
		c.unstageLocked()
		c.mu.Unlock()
		return err
	}
	staged := c.stagedLocked()
	first, last := c.version+1, c.version+int64(len(staged))
	if paxosTime > 0 {
		c.observeStage("paxos", first, last, paxosTime)
	}
	var j Journal
	var seq int64
	if len(staged) > 0 && c.journal != nil {
		start := time.Now()
		if j, seq, err = c.journaledLocked(c.journal.Append(staged)); err != nil {
			c.unstageLocked()
			c.mu.Unlock()
			return fmt.Errorf("certifier: journal: %w", err)
		}
		c.observeStage("journal", first, last, time.Since(start))
	}
	c.publishLocked(staged)
	c.aborts += aborts
	c.mu.Unlock()
	if j != nil {
		d, err := c.syncJournal(j, seq, last)
		if err != nil {
			return fmt.Errorf("certifier: journal sync (commit outcome unknown): %w", err)
		}
		c.observeStage("fsync", first, last, d)
	}
	return nil
}

// stageLocked decides reqs in order against the committed log and
// stages each commit at the log tail, dropping whatever an earlier pass
// staged. It fills res and returns the number of aborts.
func (c *Certifier) stageLocked(reqs []Request, res []Result) (aborts int64) {
	c.unstageLocked()
	// A batch conflict-tests against its own earlier commits too; a batch
	// of one has none, and skips the overlay.
	var overlay map[writeset.Key]int64
	if len(reqs) > 1 {
		if c.overlay == nil {
			c.overlay = make(map[writeset.Key]int64)
		}
		overlay = c.overlay
		defer clear(overlay)
	}
	version := c.version
	for i, req := range reqs {
		res[i] = Result{}
		if err := c.admitLocked(req.Writeset); err != nil {
			res[i].Err = err
			continue
		}
		newest := int64(0)
		for _, e := range req.Writeset.Entries {
			if v, ok := overlay[e.Key]; ok && v > req.Snapshot && v > newest {
				newest = v
			}
		}
		if conflict, with := c.conflictLocked(req.Snapshot, req.Writeset); conflict && with > newest {
			newest = with
		}
		if newest > 0 {
			aborts++
			res[i].Outcome = Outcome{Committed: false, ConflictWith: newest}
			continue
		}
		if c.prepConflictLocked("", req.Writeset) {
			// A key is locked by an in-doubt cross-shard fragment; nothing
			// may certify past its binding yes-vote (retry after it decides).
			aborts++
			continue
		}
		version++
		c.appendLocked(Record{Version: version, Writeset: req.Writeset})
		if overlay != nil {
			for _, e := range req.Writeset.Entries {
				overlay[e.Key] = version
			}
		}
		res[i].Outcome = Outcome{Committed: true, Version: version}
	}
	return aborts
}

// maxProposeAttempts bounds how many competing values one proposal
// folds before it gives up.
const maxProposeAttempts = 1000

// proposeLocked runs stage, which decides an operation against the
// current log and reports whether it has anything to persist, and on a
// replicated certifier persists the value it then encodes through
// Paxos before anything is acknowledged. It returns the time the Paxos
// rounds took. A slot may turn out to hold a competing value — a
// deposed leader's in-flight proposal that reached only a minority and
// was resurrected by our prepare. That value is a chosen log entry the
// moment it is adopted, so it is folded into this log (taking the
// versions the staged records were about to use) and stage runs again,
// redoing its checks, before the value retries at the next slot.
// Proposing around it would give two different records the same
// version, which is divergence.
func (c *Certifier) proposeLocked(stage func() bool, encode func() (paxos.Value, error)) (time.Duration, error) {
	if c.proposer == nil {
		stage()
		return 0, nil
	}
	start := time.Now()
	for range maxProposeAttempts {
		if !stage() {
			return time.Since(start), nil
		}
		val, err := encode()
		if err != nil {
			return 0, err
		}
		_, chosen, err := c.proposer.ProposeNext(val)
		if err != nil {
			return 0, replicationError(err)
		}
		if chosen == val {
			return time.Since(start), nil
		}
		if err := c.foldLocked(chosen); err != nil {
			return 0, err
		}
	}
	return 0, errors.New("certifier: proposer starved")
}

// foldLocked installs the records of a competing value chosen at a
// Paxos slot this certifier proposed into (see proposeLocked), after
// dropping the records staged for our own value. They are committed
// log entries exactly as recovery finds them: journaled and applied
// ahead of anything certified afterwards. Noops and records already in
// the log fold to nothing; a version gap is refused, because applying
// around a hole would stall every replica's applier.
func (c *Certifier) foldLocked(v paxos.Value) error {
	recs, err := DecodeRecords(v)
	if err != nil {
		return fmt.Errorf("certifier: fold adopted value: %w", err)
	}
	c.unstageLocked()
	next := c.version + 1
	for _, rec := range recs {
		if rec.Version == 0 || rec.Version < next {
			continue
		}
		if rec.Version != next {
			c.unstageLocked()
			return fmt.Errorf("certifier: adopted value skips versions %d..%d", next, rec.Version-1)
		}
		c.appendLocked(rec)
		next++
	}
	folded := c.stagedLocked()
	if len(folded) > 0 && c.journal != nil {
		// Replicated, so the policy never refuses: a failure detaches.
		_, _, _ = c.journaledLocked(c.journal.Append(folded))
	}
	c.publishLocked(folded)
	return nil
}

// replicationError converts a Propose failure into the caller-facing
// error: a deposal becomes the structured NotLeaderError clients use
// to find the new leader; anything else stays a replication failure.
func replicationError(err error) error {
	var dep paxos.DeposedError
	if errors.As(err, &dep) {
		return NotLeaderError{Leader: dep.By.Proposer, Epoch: dep.By}
	}
	return fmt.Errorf("certifier: replication failed: %w", err)
}

// Since returns the committed records with versions strictly greater
// than v, in version order — the update-propagation feed — in a fresh
// slice.
func (c *Certifier) Since(v int64) []Record { return c.SinceInto(nil, v) }

// SinceInto appends to dst the records Since(v) returns, copied under
// the certification lock, and returns the extended slice; the
// certifier host reads its own log into a stack buffer this way.
// Records are sorted by version, so the suffix is located by binary
// search. With a journal attached to an unreplicated certifier,
// records whose sync has not completed are withheld: propagation must
// never outrun durability. A replicated certifier never withholds —
// every applied record already survived a Paxos quorum.
func (c *Certifier) SinceInto(dst []Record, v int64) []Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	recs := c.records
	if c.journal != nil && c.proposer == nil {
		end := sort.Search(len(recs), func(i int) bool { return recs[i].Version > c.durable })
		recs = recs[:end]
	}
	i := sort.Search(len(recs), func(i int) bool { return recs[i].Version > v })
	return append(dst, recs[i:]...)
}

// GC prunes records with versions at or below upTo. Callers must
// guarantee every replica has applied those versions and no active
// snapshot predates them.
//
// Records are only ever appended at the tail and pruned at the head,
// so pruning trims the head of the window in place instead of copying
// the retained suffix: a horizon that advances once per commit costs
// O(pruned) here, and appendLocked slides the retained log back to the
// front of the same array once the pruned head is as long as it. The
// trimmed prefix is zeroed so the pruned writesets are released to the
// collector, and an array left mostly empty by a large prune is
// reallocated so a long-stalled horizon does not pin its peak size.
func (c *Certifier) GC(upTo int64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if upTo <= c.lowWater {
		return 0
	}
	cut := sort.Search(len(c.records), func(i int) bool { return c.records[i].Version > upTo })
	for _, r := range c.records[:cut] {
		// Drop index entries whose newest writer is itself pruned; a
		// newer record may have overwritten the key, in which case the
		// index entry is still live.
		for _, e := range r.Writeset.Entries {
			if v, ok := c.index[e.Key]; ok && v <= upTo {
				delete(c.index, e.Key)
			}
		}
	}
	clear(c.records[:cut])
	c.records = c.records[cut:]
	if cap(c.logBuf) > 2*len(c.records)+256 {
		c.records = append([]Record(nil), c.records...)
		c.logBuf = c.records[:cap(c.records)]
	}
	c.lowWater = upTo
	return cut
}

// appendLocked appends recs at the log tail. When the window is full
// and GC has pruned a head at least as long as the retained log, the
// log slides to the front of the same array; otherwise the array grows
// to twice the log, which is what lets a steady commit-and-prune cycle
// slide instead of reallocating.
func (c *Certifier) appendLocked(recs ...Record) {
	n := len(c.records)
	if n+len(recs) > cap(c.records) {
		if head := cap(c.logBuf) - cap(c.records); head >= n && cap(c.logBuf) >= n+len(recs) {
			copy(c.logBuf, c.records)
			clear(c.records)
			c.records = c.logBuf[:n]
		} else {
			c.logBuf = make([]Record, 2*n+len(recs))
			c.records = c.logBuf[:copy(c.logBuf, c.records)]
		}
	}
	c.records = append(c.records, recs...)
}

// LogLen returns the number of retained records (after GC).
func (c *Certifier) LogLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.records)
}

// IndexSize returns the number of keys in the inverted index (for
// tests and capacity monitoring).
func (c *Certifier) IndexSize() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.index)
}

// encodeBatch serializes a group-committed batch as a JSON array, one
// Paxos log entry for the whole batch.
func encodeBatch(recs []Record) (paxos.Value, error) {
	b, err := json.Marshal(recs)
	if err != nil {
		return "", fmt.Errorf("certifier: encode batch: %w", err)
	}
	return paxos.Value(b), nil
}

// maxEncodedRecord bounds one Paxos log entry's encoding. Values
// arrive over the network on the election path, so the decoders treat
// anything larger as corruption instead of handing it to the JSON
// parser.
const maxEncodedRecord = 64 << 20

// DecodeRecord parses a Paxos log entry back into a Record. No-op
// recovery fillers decode to an empty record with Version 0.
func DecodeRecord(v paxos.Value) (Record, error) {
	if v == "" || v == noopValue {
		return Record{}, nil
	}
	if len(v) > maxEncodedRecord {
		return Record{}, fmt.Errorf("certifier: decode: %d-byte value exceeds %d", len(v), maxEncodedRecord)
	}
	var r Record
	if err := json.Unmarshal([]byte(v), &r); err != nil {
		return Record{}, fmt.Errorf("certifier: decode: %w", err)
	}
	return r, nil
}

// DecodeRecords parses a Paxos log entry that may hold either a single
// record or a group-committed batch. No-op fillers decode to an empty
// slice.
func DecodeRecords(v paxos.Value) ([]Record, error) {
	if v == "" || v == noopValue {
		return nil, nil
	}
	if len(v) > maxEncodedRecord {
		return nil, fmt.Errorf("certifier: decode: %d-byte value exceeds %d", len(v), maxEncodedRecord)
	}
	if len(v) > 0 && v[0] == '[' {
		var recs []Record
		if err := json.Unmarshal([]byte(v), &recs); err != nil {
			return nil, fmt.Errorf("certifier: decode batch: %w", err)
		}
		return recs, nil
	}
	r, err := DecodeRecord(v)
	if err != nil {
		return nil, err
	}
	return []Record{r}, nil
}

// Recover rebuilds a certifier's state from a recovered Paxos log, the
// backup-promotion path after a leader failure. Entries must be the
// chosen values by slot; no-ops are skipped, and a slot may hold a
// group-committed batch. The pruning horizon is restored from the
// lowest recovered version: a log whose early slots were compacted to
// no-ops recovers lowWater = lowest-1, so the promoted backup rejects
// snapshots predating its retained history the way the failed leader
// did. (Today nothing compacts the Paxos log, so a full log recovers
// lowWater 0 — correct, since the full history is present.)
func Recover(log map[int]paxos.Value) (*Certifier, error) {
	c := New()
	lowest := int64(0)
	for slot := 0; slot < len(log); slot++ {
		v, ok := log[slot]
		if !ok {
			return nil, fmt.Errorf("certifier: recovered log has a hole at slot %d", slot)
		}
		recs, err := DecodeRecords(v)
		if err != nil {
			return nil, err
		}
		for _, rec := range recs {
			if rec.Version == 0 {
				continue // no-op filler
			}
			c.appendLocked(rec)
			if lowest == 0 || rec.Version < lowest {
				lowest = rec.Version
			}
		}
	}
	// Slots are decided in certification order, but sort defensively:
	// the index and Since both rely on ascending versions.
	sort.Slice(c.records, func(i, j int) bool { return c.records[i].Version < c.records[j].Version })
	for _, rec := range c.records {
		for _, e := range rec.Writeset.Entries {
			c.index[e.Key] = rec.Version
		}
		if rec.Version > c.version {
			c.version = rec.Version
		}
		c.commits++
	}
	if lowest > 0 {
		c.lowWater = lowest - 1
	}
	return c, nil
}
