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

// Log is the certifier's persistence: a static host's write-ahead log,
// or the Paxos group a leader proposes to (Promote). Every operation
// hands AppendFrames its log frames (log.go) exactly once, under the
// certification lock, so the log receives them in version order — the
// property recovery's dense-prefix guarantee rests on. top is the
// highest version the frames commit, 0 when they commit none.
// AppendFrames returns a sequence token, or 0 when the frames are
// durable at return (a Paxos round: the acceptors persisted them
// before voting). Sync blocks until everything appended at or before
// the token is durable; it is called outside the lock, which is what
// lets one fsync group-commit every certification that raced into the
// same window. frames is the certifier's buffer: AppendFrames copies
// what it keeps.
type Log interface {
	AppendFrames(frames []byte, top int64) (seq int64, err error)
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

	// log (nil: volatile) persists every operation before it is
	// acknowledged; frames is the buffer operations are encoded in,
	// reused across them. durable is the newest version the log holds
	// durably: records above it exist in memory but are withheld from
	// Since, so a peer can never replicate a commit that a power loss
	// could still erase here — the version would be reassigned on
	// recovery and the peer, having already applied the old record at
	// that version, would silently skip the new one forever.
	log     Log
	frames  []byte
	durable int64

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

// maxFrames bounds the frame buffer a certifier keeps between
// operations, so one huge batch (a bulk load) does not pin its size.
const maxFrames = 1 << 20

// logLocked encodes one operation's frames, which commit versions up to
// top (0: none), and appends them to the log. It returns the token to
// sync outside c.mu (syncLog) and how long the append took. An append
// durable at return — a Paxos round, or no log at all — returns token 0
// and publishes top as durable here, under the same lock; without a log
// nothing is encoded and the append takes no time.
func (c *Certifier) logLocked(top int64, encode func(b []byte) []byte) (seq int64, took time.Duration, err error) {
	if c.log != nil {
		start := time.Now()
		b := encode(c.frames[:0])
		if cap(b) <= maxFrames {
			c.frames = b
		}
		if seq, err = c.log.AppendFrames(b, top); err != nil {
			return 0, 0, err
		}
		took = time.Since(start)
	}
	if seq == 0 {
		c.durable = max(c.durable, top)
	}
	return seq, took, nil
}

// syncLog waits, outside c.mu, until the log entry at seq is durable
// (0: it already is), then publishes versions up to top as durable. It
// returns how long the sync took. A failed sync is returned — the
// outcome is unknown, and the records stay withheld from Since.
func (c *Certifier) syncLog(seq, top int64) (time.Duration, error) {
	if seq == 0 {
		return 0, nil
	}
	start := time.Now()
	err := c.log.Sync(seq)
	d := time.Since(start)
	if err != nil {
		return d, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	// Appends happen in log order and a sync covers every byte written
	// before it, so a completed sync for top implies all versions at or
	// below top are durable too.
	c.durable = max(c.durable, top)
	return d, nil
}

// LowWater returns the pruning horizon: all versions at or below it
// have been garbage-collected (or compacted away before recovery).
func (c *Certifier) LowWater() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lowWater
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
// been submitted to Certify back to back, but pays at most one log
// append — one Paxos round, or one journal write — for the whole batch
// (group commit).
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

// certify decides reqs into res, then logs the commits and publishes
// them — the one commit path. A commit is acknowledged only once its
// record is durable: the append happens under the lock (version order),
// a sync it needs outside it (group commit). A log durable at append is
// a Paxos round, reported as the "paxos" stage; any other append is the
// "journal" stage, and its sync the "fsync" stage.
func (c *Certifier) certify(reqs []Request, res []Result) error {
	c.mu.Lock()
	aborts := c.stageLocked(reqs, res)
	staged := c.stagedLocked()
	first, last := c.version+1, c.version+int64(len(staged))
	var seq int64
	if len(staged) > 0 {
		var took time.Duration
		var err error
		seq, took, err = c.logLocked(last, func(b []byte) []byte {
			b, _ = AppendRecords(b, staged)
			return b
		})
		if err != nil {
			c.unstageLocked()
			c.mu.Unlock()
			return err
		}
		if took > 0 {
			stage := "journal"
			if seq == 0 {
				stage = "paxos"
			}
			c.observeStage(stage, first, last, took)
		}
	}
	c.publishLocked(staged)
	c.aborts += aborts
	c.mu.Unlock()
	if seq != 0 {
		d, err := c.syncLog(seq, last)
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

// Since returns the committed records with versions strictly greater
// than v, in version order — the update-propagation feed — in a fresh
// slice.
func (c *Certifier) Since(v int64) []Record { return c.SinceInto(nil, v) }

// SinceInto appends to dst the records Since(v) returns, copied under
// the certification lock, and returns the extended slice; the
// certifier host reads its own log into a stack buffer this way.
// Records are sorted by version, so the suffix is located by binary
// search. Records whose log sync has not completed are withheld:
// propagation must never outrun durability.
func (c *Certifier) SinceInto(dst []Record, v int64) []Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	recs := c.records
	end := sort.Search(len(recs), func(i int) bool { return recs[i].Version > c.durable })
	recs = recs[:end]
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
