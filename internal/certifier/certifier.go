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
// key to the newest committed version that wrote it, kept per table in
// pages of 64 consecutive row ids (index.go), maintained incrementally
// on commit and pruned on GC. Certification therefore
// costs O(|writeset|) regardless of how long the retained log is —
// the property §6.3 relies on when it argues the certifier is never
// the cluster bottleneck. CertifyBatch and Batcher additionally
// amortize one Paxos round over many concurrent requests, the way the
// paper's certifier logs batches of writesets.
package certifier

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/paxos"
	"repro/internal/writeset"
)

// NotLeaderError reports a certification request sent to a certifier
// whose Paxos term is over: a newer epoch deposed it, or a proposal
// missed its majority. A request whose proposal failed has an unknown
// outcome — the next campaign may yet choose its value. Callers
// redirect to the leader, when one is named, and retry.
type NotLeaderError struct {
	// Leader is the paxos proposer id of the deposing epoch, -1 when
	// no ballot deposed the term.
	Leader int
	// Epoch is the ballot that deposed this node, or with Leader -1 the
	// ballot of its own term that ended.
	Epoch paxos.Ballot
}

func (e NotLeaderError) Error() string {
	if e.Leader < 0 {
		return fmt.Sprintf("certifier: not leader (term %s ended, leader unknown)", e.Epoch)
	}
	return fmt.Sprintf("certifier: not leader (deposed by node %d, epoch %s)", e.Leader, e.Epoch)
}

// noopValue fills recovered log holes; it holds no log entry.
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
	index  conflictIndex
	// overlay is a batch's conflict index over its own earlier commits,
	// kept between batches so group commit reuses its buckets.
	overlay  map[writeset.Key]int64
	lowWater int64 // all versions <= lowWater have been pruned
	version  int64

	// Replication (optional): the certification log is proposed to a
	// Paxos group before a commit is acknowledged. valBuf is the buffer
	// proposals are encoded in, reused across proposals.
	proposer *paxos.Proposer
	valBuf   []byte

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
	prepared  map[codec.TxnID]inDoubt
	prepIndex map[writeset.Key]codec.TxnID
	decisions map[codec.TxnID]TwoPCDecision

	commits int64
	aborts  int64
}

// New creates an unreplicated certifier, useful for tests and the
// single-master design (which needs none).
func New() *Certifier {
	return &Certifier{}
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

// LowWater returns the pruning horizon: all versions at or below it
// have been garbage-collected (or compacted away before recovery).
func (c *Certifier) LowWater() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lowWater
}

// NewReplicated creates a certifier whose log is replicated across
// nodes in-process Paxos acceptors (the paper uses a leader and two
// backups, so nodes is typically 3), led by node 0. It returns the
// certifier and the transport, which tests use to inject failures.
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
	c, _, err := Promote(0, ids, tr)
	return c, tr, err
}

// Promote elects node id leader of the certification group and
// rebuilds the certifier from the recovered Paxos log — the backup
// promotion path after a leader failure. It returns the promoted
// certifier and its epoch (the winning ballot). The proposer it
// installs leads until its first failed proposal ends the term.
func Promote(id int, peers []int, tr paxos.Transport) (*Certifier, paxos.Ballot, error) {
	p := paxos.NewProposer(id, peers, tr)
	epoch, log, err := p.Campaign(noopValue)
	if err != nil {
		return nil, paxos.Ballot{}, fmt.Errorf("certifier: promote: %w", err)
	}
	c, err := Recover(log) // inherits in-doubt locks and decisions too
	if err != nil {
		return nil, paxos.Ballot{}, err
	}
	c.proposer = p
	return c, epoch, nil
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

// TermEnded reports whether this certifier's Paxos term is over, and
// the ballot that deposed it — zero when a proposal missed its
// majority instead; always false on an unreplicated certifier. A
// certifier whose term ended answers every certification with
// NotLeaderError: a node leads again only through a fresh Promote.
func (c *Certifier) TermEnded() (paxos.Ballot, bool) {
	c.mu.Lock()
	p := c.proposer
	c.mu.Unlock()
	if p == nil {
		return paxos.Ballot{}, false
	}
	return p.TermEnded()
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
		if v := c.index.get(e.Key); v > snapshot && v > newest {
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
			c.index.set(e.Key, rec.Version)
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
	aborts := c.stageLocked(reqs, res)
	staged := c.stagedLocked()
	var paxosTime time.Duration
	var err error
	if len(staged) > 0 {
		paxosTime, err = c.proposeLocked(func(b []byte) []byte {
			b, _ = AppendRecords(b, staged)
			return b
		})
	}
	if err != nil {
		c.unstageLocked()
		c.mu.Unlock()
		return err
	}
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
// stages each commit at the log tail. It fills res and returns the
// number of aborts.
func (c *Certifier) stageLocked(reqs []Request, res []Result) (aborts int64) {
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
		if c.prepConflictLocked(codec.TxnID{}, req.Writeset) {
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

// maxValBuf bounds the proposal buffer a certifier keeps between
// proposals, so one huge batch (a bulk load) does not pin its size.
const maxValBuf = 1 << 20

// proposeLocked persists, on a replicated certifier, the value encode
// appends to the buffer it is given (an operation's log frames) through
// Paxos before anything is acknowledged, and returns the time the round
// took; an unreplicated certifier encodes nothing. The leader's
// campaign recovered every value chosen before its term, so the round
// chooses this value or fails: it never meets another leader's.
func (c *Certifier) proposeLocked(encode func(b []byte) []byte) (time.Duration, error) {
	if c.proposer == nil {
		return 0, nil
	}
	start := time.Now()
	b := encode(c.valBuf[:0])
	if cap(b) <= maxValBuf {
		c.valBuf = b
	}
	if _, err := c.proposer.Propose(paxos.Value(b)); err != nil { // the one copy, which the acceptors keep
		return 0, replicationError(err, c.proposer.CurrentBallot())
	}
	return time.Since(start), nil
}

// replicationError converts a Propose failure of the term at ballot
// term into the structured NotLeaderError clients use to find the
// leader: every failed proposal ends the term, and leaves the request's
// outcome unknown. A deposal names the new leader; any other failure
// names none and carries the ended term, which tells a relay the
// request may be in that term's last proposal.
func replicationError(err error, term paxos.Ballot) error {
	var dep paxos.DeposedError
	if errors.As(err, &dep) {
		return NotLeaderError{Leader: dep.By.Proposer, Epoch: dep.By}
	}
	return NotLeaderError{Leader: -1, Epoch: term}
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
		// Clear index slots whose newest writer is itself pruned; a
		// newer record may have overwritten the key, in which case the
		// slot is still live. The pages stay.
		for _, e := range r.Writeset.Entries {
			c.index.prune(e.Key, upTo)
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
	return c.index.live
}
