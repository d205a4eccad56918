package server

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/certifier"
	"repro/internal/client"
	"repro/internal/codec"
	"repro/internal/elastic"
	"repro/internal/obs/events"
	"repro/internal/paxos"
	"repro/internal/repl"
	"repro/internal/repl/pipeline"
	"repro/internal/sidb"
	"repro/internal/wal"
	"repro/internal/wire"
	"repro/internal/writeset"
)

// errUnsupported marks operations this node does not serve.
var errUnsupported = errors.New("server: operation not supported by this node")

// errNotHost is the role gate's refusal on a node that does not host
// the certifier and runs no Paxos (a Paxos backup redirects instead).
var errNotHost = fmt.Errorf("%w: it does not host the certifier (under sm, the master)", errUnsupported)

// pollInterval is the long-poll window of the propagation loop; it
// bounds both shutdown latency and the staleness detection of a dead
// primary.
const pollInterval = 250 * time.Millisecond

// syncLongPoll is the long-poll window for commit-path catch-up
// fetches (the ring's Since). Shorter than pollInterval because
// these run inside client-visible operations, but long enough that a
// caught-up replica parks on the primary instead of spinning wait=0
// round trips.
const syncLongPoll = 25 * time.Millisecond

// certService is the certification surface a transaction depends on:
// commit-time certification carrying its cross-node trace id, the
// eager conflict probe, and the prepare of a cross-shard fragment. The
// certifier host serves it from a pipeline.HostCert; every other node
// reaches the host through its client.LeaderRing.
type certService interface {
	// CertifyTraced submits a commit-time certification request; trace
	// is the transaction's cross-node trace id (0 untraced).
	CertifyTraced(snapshot int64, ws writeset.Writeset, trace uint64) (certifier.Outcome, error)
	// Check probes a partial writeset for an already-certain conflict
	// (eager certification, §5.1) without committing anything.
	Check(snapshot int64, ws writeset.Writeset) (conflict bool, with int64)
	// PrepareTxn runs the first 2PC phase for one fragment.
	PrepareTxn(p certifier.PreparedTxn) (vote bool, conflictWith int64, err error)
}

var (
	_ certService = (*pipeline.HostCert)(nil)
	_ certService = (*remoteCert)(nil)
)

// remoteCert instruments the ring to the certifier host with the local
// certification-latency histogram (which then measures the full
// network round trip).
type remoteCert struct {
	svc *client.LeaderRing
	m   *metrics
	t   *pipeline.Tracer
}

// CertifyTraced forwards the transaction's trace id over the wire so
// the certifier host can stitch its certify/paxos/journal/fsync spans
// under the same id.
func (r *remoteCert) CertifyTraced(snapshot int64, ws writeset.Writeset, trace uint64) (certifier.Outcome, error) {
	return r.certify(snapshot, ws, trace, true)
}

func (r *remoteCert) certify(snapshot int64, ws writeset.Writeset, trace uint64, span bool) (certifier.Outcome, error) {
	start := time.Now()
	out, err := r.svc.CertifyTraced(snapshot, ws, trace)
	r.m.observeCert(time.Since(start))
	if span && err == nil && out.Committed {
		// The commit span at a non-host node: the certify stage spans
		// the full network round trip to the certifier host. The trace
		// id binds locally too; the authoritative commit timestamp
		// arrives later with the propagated record.
		done := time.Now()
		r.t.NoteCommitMeta(out.Version, trace, 0)
		r.t.CommitSpan(out.Version, len(ws.Entries), start, done)
	}
	return out, err
}

func (r *remoteCert) Check(snapshot int64, ws writeset.Writeset) (bool, int64) {
	return r.svc.Check(snapshot, ws)
}

func (r *remoteCert) PrepareTxn(p certifier.PreparedTxn) (bool, int64, error) {
	return r.svc.PrepareTxn(p)
}

// engine is one replica node (§5): a local snapshot-isolated database
// whose proxy extracts writesets, certifies them with the
// certification service — hosted here (node 0, or the Paxos leader) or
// reached over a client.LeaderRing — and applies certified writesets
// in version order. The commit/apply machinery — certify stage, apply
// stage, peer cursors, journal — all comes from internal/repl/pipeline;
// this engine wires the stages together and runs the role loop.
//
// Under generalized snapshot isolation a transaction's snapshot is the
// latest version this node has applied — possibly older than the
// globally latest — so it is available without communication; the
// certifier closes the gap at commit time.
//
// Both designs run on it. Multi-master (§5.1) accepts updates on every
// node. Single-master (§5.2) is the same certified log with one update
// site: the node hosting the certifier runs every update, schema and
// load, and the slaves only apply its log. A master that certifies
// against its own log aborts exactly the transactions its
// first-committer-wins check would (§2).
type engine struct {
	db *sidb.DB
	ap *pipeline.Applier // the local replica's apply stage
	// eager certifies partial writesets on every write, aborting doomed
	// transactions early (§5.1).
	eager bool
	// async acknowledges a commit once its writeset is certified,
	// leaving its application to the role loop like every other record
	// — the paper's commit rule. Every node but the static certifier
	// host runs this way, so a commit does not re-download the backlog
	// the role loop is already fetching; the next transaction on the
	// same node may not yet see the commit (GSI allows that).
	async bool
	// multiMaster makes every node an update site (§5.1). Without it
	// (single-master, §5.2) only the node hosting the certifier accepts
	// update transactions, schema and load; see updateSite.
	multiMaster bool
	ddlMu       sync.Mutex // serializes createTable's existence check and commit

	stop     <-chan struct{}
	cursors  *pipeline.PeerCursors // non-nil on a node that may host the certifier
	dur      *pipeline.Durability  // non-nil when the node runs a WAL
	resumed  int64                 // version recovered from the WAL at start
	resumeOK bool

	// host is the hosted certification service: non-nil on the static
	// certifier host (node 0 without Paxos), and on whichever node
	// currently leads under Paxos. Read through hostCert().
	host atomic.Pointer[pipeline.HostCert]

	// ring reaches the certifier host from every node that may not host
	// it: it holds only Primary without Paxos, and every member with
	// Paxos, whose transport reaches the peers' acceptors over the
	// ring's links. remote is the ring instrumented for the commit
	// path. Both are nil on the static host.
	ring   *client.LeaderRing
	remote *remoteCert

	// Replicated certification (nil without Options.Paxos): the
	// embedded acceptor and its transport, and the node's view of who
	// leads.
	px          *paxosNode
	m           *metrics
	groupCommit bool

	// membership is the primary's authoritative member registry
	// (nil on non-primary nodes); staleAfter is the liveness grace
	// before a silent elastic member is evicted.
	membership *elastic.Membership
	staleAfter time.Duration

	// apply and ingest hand fetched records to the apply stage: catch-up
	// and the role loop pass them to every fetch, bound once here so a
	// fetch allocates no closure. The records are the fetch's scratch,
	// valid only while the callback runs (see client.Link.FetchSince);
	// the apply stage keeps only their value strings.
	apply, ingest func([]certifier.Record)
}

func newEngine(opts Options, m *metrics, stop <-chan struct{}) (*engine, error) {
	e := &engine{
		db:    sidb.New(),
		eager: opts.EagerCert,
		// Only the static certifier host applies its commits before
		// acknowledging them; everywhere else the role loop applies
		// them, and a commit must not re-fetch the backlog it is fetching.
		async:       opts.Paxos || opts.ID > 0,
		multiMaster: opts.Design == "mm",
		stop:        stop,
		staleAfter:  opts.StaleAfter,
		m:           m,
		groupCommit: opts.GroupCommit,
	}
	e.ap = pipeline.NewApplier(e.db)
	e.ap.SetTracer(m.tracer)
	e.apply = func(recs []certifier.Record) { e.ap.Apply(recs) }
	e.ingest = func(recs []certifier.Record) {
		// Propagation-side span, sampled once per fetched batch.
		last := recs[len(recs)-1]
		m.tracer.PropagateSpan(last.Version, len(last.Writeset.Entries), time.Now())
		e.ap.Apply(recs)
	}
	var w *wal.WAL
	var rec *wal.Recovered
	if opts.WALDir != "" {
		var err error
		if w, rec, err = openDurability(opts); err != nil {
			return nil, err
		}
		e.dur = pipeline.NewDurability(w, walCompactBytes)
		e.dur.OnCompact = m.compactEvent
	}
	switch {
	case opts.Paxos:
		// Replicated certification: this node hosts a Paxos acceptor
		// and starts as a backup; leadership comes only from winning an
		// election in the role loop (node 0 campaigns immediately on a
		// cold cluster). Until then the commit path follows the leader
		// ring, and certification requests answer NotLeader.
		e.ring = client.NewLeaderRing(opts.Members, opts.Design, opts.ID)
		e.px = newPaxosNode(opts, e.ring, w, rec)
		e.membership = elastic.NewMembership()
		e.membership.SeedStatic(opts.Members)
		e.cursors = pipeline.NewPeerCursors(func() int {
			return e.membership.Peers()
		}, int64(opts.GCLag))
	case opts.ID == 0:
		// The certification log recovers from the WAL: the restarted
		// certifier resumes at the last durably logged version, with
		// the compaction base as its pruning horizon, and with its
		// in-doubt 2PC fragments locked and its decisions recorded.
		rp, from := &certifier.Replay{}, int64(0)
		if rec != nil {
			rp, from = &rec.Replay, rec.Base
		}
		var j certifier.Journal
		if e.dur != nil {
			j = e.dur.W
		}
		base, err := certifier.Restore(rp, from, j)
		if err != nil {
			e.dur.W.Close() // only a WAL's replay can fail
			return nil, fmt.Errorf("server: restore certifier: %w", err)
		}
		e.host.Store(e.newHost(base))
		e.membership = elastic.NewMembership()
		switch {
		case len(opts.Members) > 0:
			e.membership.SeedStatic(opts.Members)
		case opts.Replicas > 0:
			// Addresses unknown (pre-elastic boot): reserve the ids so
			// joiners get fresh ones and the peer count still gates GC.
			e.membership.SeedStatic(make([]string, opts.Replicas))
		default:
			// Unknown cluster size: the primary alone, pruning disabled.
			e.membership.SeedStatic(make([]string, 1))
		}
		gcDisabled := opts.Replicas <= 0 && len(opts.Members) == 0
		e.cursors = pipeline.NewPeerCursors(func() int {
			if gcDisabled {
				return -1
			}
			return e.membership.Peers()
		}, int64(opts.GCLag))
	default:
		e.ring = client.NewLeaderRing([]string{opts.Primary}, opts.Design, opts.ID)
	}
	if e.ring != nil {
		// Records fetched through the ring carry the host's trace id
		// and commit timestamp; feed them to the tracer so replication
		// lag is measured against the host's clock.
		e.ring.OnRecordMeta(m.tracer.NoteCommitMeta)
		e.remote = &remoteCert{svc: e.ring, m: m, t: m.tracer}
	}
	if rec != nil {
		// Rebuild the local database from the log (snapshot + records),
		// then — and only then — attach the journal hook, so replay does
		// not journal its own restoration. The recovered version seeds
		// the propagation position: a restarted replica resumes
		// FetchSince from here instead of transferring a snapshot.
		d := e.dur
		err := e.ap.Reset(func(int64) (int64, error) {
			if err := rec.Restore(e.db); err != nil {
				return 0, err
			}
			e.db.SetJournal(d.W.AppendRecord)
			return rec.LastVersion(), nil
		})
		if err != nil {
			d.W.Close()
			return nil, fmt.Errorf("server: wal replay: %w", err)
		}
		if v := rec.LastVersion(); v > 0 {
			e.resumed, e.resumeOK = v, true
		}
	}
	return e, nil
}

// newHost builds the hosted certification service over cert: the
// stage tracer, group commit when configured, latency observation and
// long-poll wakeups. The static host builds it once; a Paxos node
// builds one on every election it wins.
func (e *engine) newHost(cert *certifier.Certifier) *pipeline.HostCert {
	cert.SetStageObserver(e.m.tracer.CertStages())
	var batcher *certifier.Batcher
	if e.groupCommit {
		batcher = certifier.NewBatcher(cert, 0)
	}
	return &pipeline.HostCert{Base: cert, Batcher: batcher, Notify: pipeline.NewNotify(), Observe: e.m.observeCert, Tracer: e.m.tracer}
}

// hostCert returns the hosted certification service, nil while this
// node does not host the certifier.
func (e *engine) hostCert() *pipeline.HostCert { return e.host.Load() }

// hosted is the role gate in front of every request only the
// certifier host serves: it returns the hosted service, or the refusal
// a node that does not host it answers with — a NotLeader redirect
// under Paxos, errNotHost otherwise. The refused request was not acted
// on, so a redirect naming no leader names no ended term either.
func (e *engine) hosted() (*pipeline.HostCert, error) {
	if h := e.hostCert(); h != nil {
		return h, nil
	}
	if e.px != nil {
		_, leader, epoch := e.leaderView()
		if leader < 0 {
			epoch = paxos.Ballot{}
		}
		return nil, certifier.NotLeaderError{Leader: leader, Epoch: epoch}
	}
	return nil, errNotHost
}

// updateSite refuses an update transaction, schema or load on a node
// that is not an update site: under sm only the certifier host is one.
func (e *engine) updateSite() error {
	if e.multiMaster {
		return nil
	}
	_, err := e.hosted()
	return err
}

// certService returns the certification service the commit path uses
// now: the hosted certifier while this node hosts it, the ring to the
// host otherwise. A call in flight when the role changes finishes
// against the service it started on; a host whose term ended answers
// it with NotLeaderError, which is exactly the fencing contract.
func (e *engine) certService() certService {
	if h := e.hostCert(); h != nil {
		return h
	}
	return e.remote
}

// resume reports the version durable state was recovered to at start
// (ok false when the node has no WAL or the log was fresh).
func (e *engine) resume() (int64, bool) { return e.resumed, e.resumeOK }

// epochInfo reports the certifier election epoch (Paxos ballot round,
// 0 when unreplicated) and whether this node currently hosts the
// certification service — the /metrics failover gauges.
func (e *engine) epochInfo() (int64, bool) {
	if e.px != nil {
		leading, _, epoch := e.leaderView()
		return int64(epoch.Round), leading
	}
	return 0, e.hostCert() != nil
}

// begin opens a transaction in t, which must be zero or finished, at
// this node's applied snapshot. GSI: no communication with the
// certifier is needed. Taking the applied cursor and the local
// snapshot under the apply lock pins them to the same point in the
// version order — a writeset applied a moment later must count as
// concurrent.
func (e *engine) begin(readOnly bool, t *txn) error {
	if !readOnly {
		if err := e.updateSite(); err != nil {
			return err
		}
	}
	t.e, t.readOnly, t.version, t.trace, t.done = e, readOnly, 0, 0, false
	e.ap.Pin(func(applied int64) {
		t.snapshot = applied
		e.db.BeginInto(&t.inner)
	})
	return nil
}

// createTable commits the table's schema writeset (writeset.Schema)
// through certification, so every replica — present, joining or
// recovering — creates it from the log like any commit. It refuses a
// table this node already has once caught up; ddlMu makes that check
// and the commit one step for concurrent callers.
func (e *engine) createTable(name string) error {
	if err := e.updateSite(); err != nil {
		return err
	}
	e.ddlMu.Lock()
	defer e.ddlMu.Unlock()
	e.catchUp()
	if slices.Contains(e.db.Tables(), name) {
		return fmt.Errorf("server: table %q already exists", name)
	}
	if err := e.certifyWriteset(writeset.Schema(name)); err != nil {
		return err
	}
	e.catchUp()
	return nil
}

// loadChunk certifies values[i] at (table, rows[i]) as one record:
// the load takes versions and propagates exactly like commits do.
func (e *engine) loadChunk(table string, rows []int64, values []string) error {
	if err := e.updateSite(); err != nil {
		return err
	}
	return e.certifyWriteset(writeset.Rows(table, rows, values))
}

// certifyWriteset certifies ws outside any transaction, at this node's
// applied snapshot. A catalog record is no client's commit: no
// acknowledgement closes a span for it, so none is opened.
func (e *engine) certifyWriteset(ws writeset.Writeset) error {
	var out certifier.Outcome
	var err error
	if h := e.hostCert(); h != nil {
		out, err = h.CertifyPeer(e.ap.Applied(), ws, 0)
	} else {
		out, err = e.remote.certify(e.ap.Applied(), ws, 0, false)
	}
	if err != nil {
		return err
	}
	if !out.Committed {
		return &repl.AbortedError{ConflictWith: out.ConflictWith}
	}
	return nil
}

// catchUp applies every certified writeset past the applied version.
// The fetch happens outside the application lock: on a non-host node
// it is a network round trip, and holding the apply lock across it
// would stall every begin for the duration (the applier's version
// guards make the unlocked window safe against concurrent appliers).
// The lock order is fetch, then apply: the apply lock is taken inside
// the callback, while the host's scratch or the link's connection is
// held, and nothing that holds the apply lock (Pin, Reset) fetches.
func (e *engine) catchUp() {
	if h := e.hostCert(); h != nil {
		h.Since(e.ap.Applied(), e.apply)
		return
	}
	// Long-poll, so a caught-up node parks on the host instead of
	// spinning wait=0 fetches.
	e.ring.Since(e.ap.Applied(), syncLongPoll, e.apply)
}

func (e *engine) dump(table string) (map[int64]string, error) { return e.db.Dump(table) }

// sync drains the certify stage into the apply stage (one pull); the
// wire Sync handlers and the propagation loop both land here, so all
// application serializes on the pipeline applier's lock.
func (e *engine) sync() { e.catchUp() }

func (e *engine) applied() int64 { return e.ap.Applied() }

func (e *engine) applyStats() pipeline.ApplyStats {
	if h := e.hostCert(); h != nil {
		e.ap.Observe(h.Base.Version())
	}
	return e.ap.Stats()
}

// certify and check serve a peer's certification requests; only the
// node hosting the certifier answers them. trace is the submitting
// transaction's cross-node trace id (0 untraced). The peer serves the
// transaction, so the commit's span is the peer's, not this node's.
func (e *engine) certify(snapshot int64, ws writeset.Writeset, trace uint64) (certifier.Outcome, error) {
	h, err := e.hosted()
	if err != nil {
		return certifier.Outcome{}, err
	}
	return h.CertifyPeer(snapshot, ws, trace)
}

func (e *engine) check(snapshot int64, ws writeset.Writeset) (bool, int64, error) {
	h, err := e.hosted()
	if err != nil {
		return false, 0, err
	}
	conflict, with := h.Check(snapshot, ws)
	return conflict, with, nil
}

// prepareTxn, decideTxn, resolveTxn and forgetTxn serve the 2PC verbs
// sent to the group's certifier host; the leader's log is the only
// authority. (A transaction open on a connection prepares through
// certService instead, wherever it runs.)
func (e *engine) prepareTxn(p certifier.PreparedTxn) (bool, int64, error) {
	h, err := e.hosted()
	if err != nil {
		return false, 0, err
	}
	return h.PrepareTxn(p)
}

// decideTxn applies the coordinator's decision at this group. A commit
// enters the record log like any certified writeset; the static host
// applies it before acking so the fragment is immediately readable.
func (e *engine) decideTxn(id codec.TxnID, commit bool, retire []codec.TxnID) (int64, error) {
	h, err := e.hosted()
	if err != nil {
		return 0, err
	}
	version, err := h.DecideTxn(id, commit, retire)
	if err == nil && commit && !e.async {
		e.catchUp()
	}
	return version, err
}

func (e *engine) resolveTxn(id codec.TxnID) (bool, error) {
	h, err := e.hosted()
	if err != nil {
		return false, err
	}
	return h.ResolveTxn(id)
}

func (e *engine) forgetTxn(ids []codec.TxnID) error {
	h, err := e.hosted()
	if err != nil {
		return err
	}
	return h.ForgetTxn(ids)
}

// twoPC reports the hosted certifier's in-doubt fragments and recorded
// decisions: zero on a node that does not host it, and on an unsharded
// group, which never prepares.
func (e *engine) twoPC() (inDoubt, decisions int) {
	if h := e.hostCert(); h != nil {
		return h.TwoPC()
	}
	return 0, 0
}

// inDoubtAge reports how long the hosted certifier's oldest in-doubt
// fragment has been locked: 0 with none, and on a node that does not
// host the certifier.
func (e *engine) inDoubtAge() time.Duration {
	if h := e.hostCert(); h != nil {
		return h.OldestInDoubt()
	}
	return 0
}

func (e *engine) logLen() int {
	h := e.hostCert()
	if h == nil {
		return 0
	}
	return h.Base.LogLen()
}

func (e *engine) rowVersions() int64 { return e.db.Versions() }

// fetchSince serves a peer's propagation pull, appending the records
// to dst; it fails unless this node hosts the certifier. peer is the
// requester's replica id (negative for non-peer clients): long-poll
// cursors are tracked per replica so the host can garbage-collect what
// everyone applied.
func (e *engine) fetchSince(peer int64, v int64, wait time.Duration, dst []certifier.Record) ([]certifier.Record, error) {
	h, err := e.hosted()
	if err != nil {
		return nil, err
	}
	if wait > 0 {
		// Long polls come from the dedicated propagation links, one
		// per peer replica: their cursors tell the host what everyone
		// has applied, which bounds certification-log GC. They also
		// prove the peer is alive, deferring stale-member eviction.
		// Only current members get a cursor — an evicted or departed
		// peer that keeps polling must not be able to stand in for a
		// missing expected peer in the GC horizon count.
		if e.membership.Contains(peer) {
			e.cursors.Update(peer, v)
			e.membership.Touch(peer, time.Now())
		}
		e.maybeGC()
		h.Notify.WaitBeyond(v, wait, e.stop)
	}
	return h.Base.SinceInto(dst, v), nil
}

// peerGone drops a peer's propagation cursor when its connection dies
// (the next long poll re-adds it).
func (e *engine) peerGone(peer int64) {
	if e.cursors != nil {
		e.cursors.Drop(peer)
	}
}

// join admits a new replica (primary only): it is registered before
// the snapshot is taken, so the certification log cannot be pruned
// past anything the joiner will need — the joiner's expected cursor
// blocks GC until its first long poll arrives (see docs/ELASTICITY.md
// for the ordering argument).
func (e *engine) join(addr string) (*wire.JoinOK, error) {
	if e.px != nil {
		// The Paxos group's membership is fixed at boot: elastic joins
		// would have to change the acceptor set, which this deployment
		// does not support.
		return nil, fmt.Errorf("%w: elastic join is not supported with a replicated certifier", errUnsupported)
	}
	if _, err := e.hosted(); err != nil {
		return nil, err
	}
	id, epoch, members := e.membership.Join(addr, time.Now())
	e.m.events.Emit(events.MemberJoined,
		fmt.Sprintf("admitted replica %d at %s (epoch %d)", id, addr, epoch),
		map[string]string{"replica": strconv.FormatInt(id, 10), "addr": addr, "epoch": strconv.FormatInt(epoch, 10)})
	return &wire.JoinOK{ID: id, Epoch: epoch, Members: members}, nil
}

// leave deregisters a replica (primary only): its cursor stops gating
// GC and clients drop it on their next membership poll.
func (e *engine) leave(id int64) error {
	if e.px != nil {
		return fmt.Errorf("%w: the replicated-certifier group is fixed at boot", errUnsupported)
	}
	if _, err := e.hosted(); err != nil {
		return err
	}
	if id == 0 {
		return errors.New("server: the primary cannot leave the cluster")
	}
	e.membership.Leave(id)
	e.cursors.Drop(id)
	e.m.events.Emit(events.MemberLeft,
		fmt.Sprintf("replica %d deregistered", id),
		map[string]string{"replica": strconv.FormatInt(id, 10)})
	return nil
}

func (e *engine) members() (int64, []wire.Member, error) {
	if e.membership == nil {
		return 0, nil, errNotHost
	}
	epoch, members := e.membership.Snapshot()
	return epoch, members, nil
}

// snapshot captures a consistent full-state snapshot (version plus all
// tables) for a joiner's state transfer.
func (e *engine) snapshot() (int64, map[string]map[int64]string, error) {
	if _, err := e.hosted(); err != nil {
		return 0, nil, err
	}
	return consistentDump(e.db)
}

// touch records liveness proof from peer: a snapshot chunk request
// counts like a long poll, so a joiner mid-transfer is not evicted as
// stale.
func (e *engine) touch(peer int64) {
	if e.membership != nil {
		e.membership.Touch(peer, time.Now())
	}
}

// installSnapshot is the joiner-side inverse of snapshot: under the
// apply lock the database is restored from the snapshot exactly as a
// recovering node restores its log's snapshot (every table created,
// the rows installed as one writeset at the snapshot version), and the
// applied cursor moves there so catch-up resumes from it. Version 0 is
// the empty log: no table exists before the first record.
//
// With a WAL the snapshot is journaled first, as a snapshot frame on
// the joiner's empty log (Compact writes and syncs it before
// returning). The install then finds its version already in the log
// and journals no record for it, and a restart resumes past it.
func (e *engine) installSnapshot(version int64, tables map[string]map[int64]string) error {
	if e.dur != nil {
		if err := e.dur.W.Compact(version, version, tables); err != nil {
			return err
		}
	}
	return e.ap.Reset(func(int64) (int64, error) {
		snap := &wal.Recovered{Snapshot: tables, SnapVersion: version}
		return version, snap.Restore(e.db)
	})
}

// evictStale evicts elastic members that stopped proving liveness and
// drops their cursors, journaling each eviction.
func (e *engine) evictStale() {
	for _, id := range e.membership.EvictStale(time.Now(), e.staleAfter) {
		e.cursors.Drop(id)
		e.m.events.Emit(events.MemberEvicted,
			fmt.Sprintf("evicted silent replica %d after %s", id, e.staleAfter),
			map[string]string{"replica": strconv.FormatInt(id, 10)})
	}
}

// maybeGC prunes the certification log up to what every replica
// (including this one) has applied, minus the safety lag.
func (e *engine) maybeGC() {
	hc := e.hostCert()
	if hc == nil {
		return
	}
	if h, ok := e.cursors.Horizon(e.applied()); ok {
		hc.Base.GC(h)
	}
}

// maybeCompactDurable rewrites the WAL around a fresh consistent
// snapshot once the segment outgrows its bound. Only the background
// loops call it: on the wire Sync request path a full-segment rewrite
// (dump, rewrite, fsync, rename) would stall one unlucky client for
// the whole of it. Only the node hosting the certifier keeps records
// for its peers: a Paxos backup's cursors are never updated (its peers
// fetch from the leader), so it compacts to its snapshot like any
// other replica.
func (e *engine) maybeCompactDurable() {
	if e.dur == nil {
		return
	}
	e.dur.MaybeCompact(func() (int64, int64, map[string]map[int64]string, error) {
		var cursors *pipeline.PeerCursors
		if e.hostCert() != nil {
			cursors = e.cursors
		}
		return compactCapture(e.db, cursors)
	})
}

// retryInterval paces the role loop after a failed poll of the host.
const retryInterval = 50 * time.Millisecond

// run is the role loop. A node hosting the certifier applies its own
// log on commit wakeups, compacts, and evicts stale members; under
// Paxos it first checks that its term has not ended. Any other node
// long-polls the host through the ring, one attempt per pass: a failed
// poll moves the ring's guess, so the next pass asks the next member.
// Under Paxos the node campaigns once no leader has answered for
// electAfter. On a cold cluster node 0's first campaign fires
// immediately, which is what elects the first leader; a node 0 whose
// acceptor restarted with a promise rejoins a group that may already
// have a leader, so it waits like everyone else rather than depose it.
func (e *engine) run(stop <-chan struct{}) {
	answered := time.Now() // when a host last answered a poll
	if e.px != nil && e.px.id == 0 {
		if e.px.acc.Promised() == (paxos.Ballot{}) {
			answered = answered.Add(-e.px.electAfter)
		}
	}
	for {
		select {
		case <-stop:
			return
		default:
		}
		if h := e.hostCert(); h != nil {
			if e.px != nil && e.stepDownIfEnded(h) {
				answered = time.Now()
				continue
			}
			h.Notify.WaitBeyond(e.applied(), pollInterval, stop)
			e.catchUp()
			e.maybeCompactDurable()
			// Evict elastic members that stopped proving liveness — a
			// joiner that crashed mid-state-transfer, or a replica that
			// died without a Leave. Their ghost cursors would otherwise
			// block certification-log GC forever.
			e.evictStale()
			continue
		}
		n, err := e.ring.FetchSinceOnce(e.applied(), pollInterval, e.ingest)
		if n > 0 {
			// Compact whenever records arrived, even if a client's
			// wire Sync handler won the race to apply them —
			// otherwise a replica whose applies are always won that
			// way would never compact.
			e.maybeCompactDurable()
		}
		if err == nil {
			answered = time.Now()
			continue
		}
		if e.px != nil && time.Since(answered) >= e.px.electAfter {
			// Whether or not the campaign wins, restart the timer: a
			// partitioned minority node must not spin on elections.
			_ = e.promoteSelf()
			answered = time.Now()
			continue
		}
		select {
		case <-stop:
			return
		case <-time.After(retryInterval):
		}
	}
}

// disconnect closes the ring's links to the primary and peers (the
// Paxos transport's among them), failing any in-flight RPC immediately
// so run can observe stop. It must precede close: run may still be
// ingesting records when disconnect returns, but it no longer can
// after it exits.
func (e *engine) disconnect() {
	if e.ring != nil {
		e.ring.Close()
	}
}

// close releases the node's WAL, its Paxos acceptor's store among
// it. Only safe once run and every connection handler have returned —
// closing the WAL under an in-flight apply panics the pipeline.
func (e *engine) close() {
	if e.dur != nil {
		e.dur.W.Close()
	}
}

// paxosPrepare and paxosAccept serve the embedded Paxos acceptor;
// errUnsupported unless this node runs one.
func (e *engine) paxosPrepare(b paxos.Ballot, from int) (paxos.PrepareReply, error) {
	if e.px == nil {
		return paxos.PrepareReply{}, errUnsupported
	}
	return e.px.acc.Prepare(b, from)
}

func (e *engine) paxosAccept(b paxos.Ballot, slot int, v paxos.Value) (paxos.AcceptReply, error) {
	if e.px == nil {
		return paxos.AcceptReply{}, errUnsupported
	}
	return e.px.acc.Accept(b, slot, v)
}

// leaderAddr maps a paxos id to its replica address for NotLeader
// redirects ("" when unknown or Paxos is disabled).
func (e *engine) leaderAddr(id int) string {
	if e.px == nil {
		return ""
	}
	return e.px.addrOf(id)
}

// txn is a client transaction proxied onto this node's database. Each
// connection holds one by value and begins every transaction in it
// (connState.tx), so serving a transaction allocates neither it nor
// its sidb.Txn. Nothing may keep a *txn once it has committed,
// aborted or prepared, or once its connection has died: the next
// Begin on that connection reuses it.
type txn struct {
	e        *engine
	inner    sidb.Txn
	snapshot int64 // global (certifier) version of the GSI snapshot
	version  int64 // global version assigned at commit (0 until then)
	// trace is the cross-node trace id (0 untraced); the commit path
	// forwards it to the certification service so spans stitch end to
	// end.
	trace    uint64
	readOnly bool
	done     bool
}

func (t *txn) Read(table string, row int64) (string, bool, error) {
	return t.inner.Read(table, row)
}

// Write stages a write. With eager certification the partial writeset
// is checked against the certifier immediately and a doomed transaction
// aborts early with repl.ErrAborted.
func (t *txn) Write(table string, row int64, value string) error {
	if t.readOnly {
		return repl.ErrReadOnlyTxn
	}
	if err := t.inner.Write(table, row, value); err != nil {
		return err
	}
	if t.e.eager {
		partial := writeset.Writeset{Entries: []writeset.Entry{
			{Key: writeset.Key{Table: table, Row: row}, Value: value},
		}}
		if conflict, with := t.e.certService().Check(t.snapshot, partial); conflict {
			return &repl.AbortedError{ConflictWith: with}
		}
	}
	return nil
}

func (t *txn) Delete(table string, row int64) error {
	if t.readOnly {
		return repl.ErrReadOnlyTxn
	}
	return t.inner.Delete(table, row)
}

// Commit: a read-only transaction commits locally (§5.1); an update
// transaction extracts its writeset and certifies it with its snapshot
// version, and is acknowledged once the writeset is durable at the
// certifier. The writeset then applies here in commit order — at once
// on the static certifier host, through the propagation loop elsewhere.
func (t *txn) Commit() error {
	if t.done {
		return sidb.ErrTxnDone
	}
	t.done = true
	ws := t.inner.Writeset()
	if ws.Empty() {
		_, _, err := t.inner.Commit()
		return err
	}
	svc := t.e.certService()
	outcome, err := svc.CertifyTraced(t.snapshot, ws, t.trace)
	// The local speculative state is discarded whatever the verdict: a
	// certified writeset installs through the apply stage in version
	// order.
	t.inner.Abort()
	releaseIfSent(svc, &t.inner)
	if err != nil {
		return err
	}
	if !outcome.Committed {
		return &repl.AbortedError{ConflictWith: outcome.ConflictWith}
	}
	t.version = outcome.Version
	if !t.e.async {
		t.e.catchUp()
	}
	return nil
}

// Prepare runs the first 2PC phase for this transaction's writeset as
// one fragment of cross-shard transaction id, coordinated by shard
// group coord. The local speculative state is discarded either way — on
// a yes-vote the fragment lives on, locked and journaled, in the
// group's certifier until the coordinator's decision arrives through
// decideTxn. An empty writeset votes yes with nothing to lock.
func (t *txn) Prepare(id codec.TxnID, coord int64) (vote bool, conflictWith int64, err error) {
	if t.done {
		return false, 0, sidb.ErrTxnDone
	}
	t.done = true
	ws := t.inner.Writeset()
	t.inner.Abort()
	if ws.Empty() {
		return true, 0, nil
	}
	svc := t.e.certService()
	vote, conflictWith, err = svc.PrepareTxn(certifier.PreparedTxn{
		ID: id, Coord: coord, Snapshot: t.snapshot, Writeset: ws,
	})
	releaseIfSent(svc, &t.inner)
	return vote, conflictWith, err
}

// releaseIfSent lets the connection's next transaction reuse inner's
// write array when its writeset went to the remote certification
// service: the request was encoded and the exchange is over, so nothing
// holds the array. On the certifier host the log keeps a committed
// writeset and a prepared fragment keeps its own, so the array is
// never released there.
func releaseIfSent(svc certService, inner *sidb.Txn) {
	if _, remote := svc.(*remoteCert); remote {
		inner.ReleaseWrites()
	}
}

func (t *txn) Abort() {
	if t.done {
		return
	}
	t.done = true
	t.inner.Abort()
}
