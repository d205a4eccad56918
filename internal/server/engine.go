package server

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/certifier"
	"repro/internal/client"
	"repro/internal/elastic"
	"repro/internal/obs/events"
	"repro/internal/paxos"
	"repro/internal/repl"
	"repro/internal/repl/pipeline"
	"repro/internal/repl/sm"
	"repro/internal/sidb"
	"repro/internal/wal"
	"repro/internal/wire"
	"repro/internal/writeset"
)

// errUnsupported marks operations this node does not serve (e.g.
// certification on a non-host replica).
var errUnsupported = errors.New("server: operation not supported by this node")

// engine is the design-specific node behind a replica server: it owns
// the local database, knows how to reach the primary, and serves the
// verbs both designs implement. The verbs only the multi-master design
// serves (certification, 2PC, elastic membership, Paxos) are plain
// *mmEngine methods that Server.dispatchMM calls.
type engine interface {
	// begin opens a transaction for one connection.
	begin(readOnly bool) (repl.Txn, error)
	// createTable and loadRows commit schema and rows as records of the
	// group's log (refused where updates cannot run); dump is the
	// convergence path.
	createTable(name string) error
	loadRows(table string, rows []int64, values []string) error
	dump(table string) (map[int64]string, error)
	// sync applies everything committed so far (one pull).
	sync()
	// applied is this node's applied version (global for mm, master
	// version for sm).
	applied() int64
	// applyStats snapshots the apply stage (throughput, queue depth
	// and lag) for /metrics and the wire Stats reply.
	applyStats() pipeline.ApplyStats
	// logLen is the number of writesets retained for propagation
	// (certification log on the mm host, sm.Log on the sm master).
	logLen() int
	// rowVersions is the number of row versions the local database
	// holds (sidb.DB.Versions): live rows plus what open snapshots pin.
	rowVersions() int64
	// fetchSince serves a peer's propagation pull; it fails unless this
	// node is the primary. peer is the requester's replica id (negative
	// for non-peer clients): long-poll cursors are tracked per replica
	// so the primary can garbage-collect what everyone applied.
	fetchSince(peer int64, v int64, wait time.Duration) ([]certifier.Record, error)
	// peerGone drops a peer's propagation cursor when its connection
	// dies (the next long poll re-adds it).
	peerGone(peer int64)
	// epochInfo reports the certifier election epoch (Paxos ballot
	// round, 0 when unreplicated) and whether this node currently
	// hosts the certification service (the sm master counts) — the
	// /metrics failover gauges.
	epochInfo() (int64, bool)
	// resume reports the version durable state was recovered to at
	// start (ok false when the node has no WAL or the log was fresh).
	resume() (version int64, ok bool)
	// run is the background propagation loop (the peer link); it
	// returns when stop closes.
	run(stop <-chan struct{})
	// disconnect closes the network links to the primary and peers,
	// failing any in-flight RPC immediately so run can observe stop.
	// It must precede close: run may still be ingesting records when
	// disconnect returns, but it no longer can after it exits.
	disconnect()
	// close releases local durable resources (WAL, paxos store). Only
	// safe once run and every connection handler have returned —
	// closing the WAL under an in-flight apply panics the pipeline.
	close()
}

// pollInterval is the long-poll window of the propagation loop; it
// bounds both shutdown latency and the staleness detection of a dead
// primary.
const pollInterval = 250 * time.Millisecond

// syncLongPoll is the long-poll window for commit-path catch-up
// fetches (Link.Since, ring Since, smEngine.sync). Shorter than
// pollInterval because these run inside client-visible operations, but
// long enough that a caught-up replica parks on the primary instead of
// spinning wait=0 round trips.
const syncLongPoll = 25 * time.Millisecond

// certService is the certification surface the multi-master commit
// path depends on: commit-time certification carrying the
// transaction's cross-node trace id, the eager conflict probe, and
// writeset retrieval for propagation. The certifier host serves it
// from a pipeline.HostCert; other nodes reach the host through a
// client.Link, or follow the leader through a client.LeaderRing under
// Paxos.
type certService interface {
	// CertifyTraced submits a commit-time certification request; trace
	// is the transaction's cross-node trace id (0 untraced).
	CertifyTraced(snapshot int64, ws writeset.Writeset, trace uint64) (certifier.Outcome, error)
	// Check probes a partial writeset for an already-certain conflict
	// (eager certification, §5.1) without committing anything.
	Check(snapshot int64, ws writeset.Writeset) (conflict bool, with int64)
	// Since returns every certified record with version > v in
	// ascending version order.
	Since(v int64) []certifier.Record
}

// twoPCService is the cross-shard two-phase commit surface
// (pipeline.HostCert on the host, client.Link elsewhere).
type twoPCService interface {
	PrepareTxn(p certifier.PreparedTxn) (vote bool, conflictWith int64, err error)
	DecideTxn(id string, commit bool) (version int64, err error)
	ResolveTxn(id string) (commit bool, err error)
	ForgetTxn(id string) error
}

var (
	_ certService  = (*pipeline.HostCert)(nil)
	_ certService  = (*client.Link)(nil)
	_ certService  = (*client.LeaderRing)(nil)
	_ certService  = (*remoteCert)(nil)
	_ certService  = (*switchCert)(nil)
	_ twoPCService = (*pipeline.HostCert)(nil)
	_ twoPCService = (*client.Link)(nil)
)

// remoteCert instruments a remote certification service (a Link to
// the certifier host, or a LeaderRing under Paxos) with the local
// certification-latency histogram (which then measures the full
// network round trip).
type remoteCert struct {
	svc certService
	m   *metrics
	t   *pipeline.Tracer
}

// CertifyTraced forwards the transaction's trace id over the wire so
// the certifier host can stitch its certify/paxos/journal/fsync spans
// under the same id.
func (r *remoteCert) CertifyTraced(snapshot int64, ws writeset.Writeset, trace uint64) (certifier.Outcome, error) {
	start := time.Now()
	out, err := r.svc.CertifyTraced(snapshot, ws, trace)
	r.m.observeCert(time.Since(start))
	if err == nil && out.Committed {
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

func (r *remoteCert) Since(v int64) []certifier.Record { return r.svc.Since(v) }

// mmEngine is one multi-master node (§5.1): a local snapshot-isolated
// database whose proxy extracts writesets, certifies them with the
// certification service — hosted here (node 0, or the Paxos leader) or
// reached over a Link — and applies certified writesets in version
// order. The commit/apply machinery — certify stage, apply stage,
// propagation pull loop, peer cursors, journal — all comes from
// internal/repl/pipeline; this engine only wires the stages together.
//
// Under generalized snapshot isolation a transaction's snapshot is the
// latest version this node has applied — possibly older than the
// globally latest — so it is available without communication; the
// certifier closes the gap at commit time.
type mmEngine struct {
	db   *sidb.DB
	ap   *pipeline.Applier // the local replica's apply stage
	cert certService
	// eager certifies partial writesets on every write, aborting doomed
	// transactions early (§5.1).
	eager bool
	// async acknowledges a commit once its writeset is certified,
	// leaving its application to the propagation loop like every other
	// record — the paper's commit rule. Every node but the static
	// certifier host runs this way, so a commit does not re-download
	// the backlog its puller is already fetching; the next transaction
	// on the same node may not yet see the commit (GSI allows that).
	async bool
	ddlMu sync.Mutex // serializes createTable's existence check and commit

	stop     <-chan struct{}
	cursors  *pipeline.PeerCursors // non-nil on the certifier host
	link     *client.Link          // non-nil elsewhere: the commit path's link
	puller   *client.Link          // non-nil elsewhere: the propagation link
	dur      *pipeline.Durability  // non-nil when the node runs a WAL
	resumed  int64                 // version recovered from the WAL at start
	resumeOK bool

	// host is the hosted certification service: non-nil on the static
	// certifier host (node 0 without Paxos), and on whichever node
	// currently leads under Paxos. hostMu guards the role swaps; read
	// through hostCert().
	hostMu sync.RWMutex
	host   *pipeline.HostCert

	// Replicated certification (nil without Options.Paxos): the
	// embedded acceptor + transport + leader ring, the switchable
	// certification service the node commits through, and what
	// promoteSelf needs to rebuild a host.
	px          *paxosNode
	sw          *switchCert
	m           *metrics
	groupCommit bool

	// membership is the primary's authoritative member registry
	// (nil on non-primary nodes); staleAfter is the liveness grace
	// before a silent elastic member is evicted.
	membership *elastic.Membership
	staleAfter time.Duration
}

func newMMEngine(opts Options, m *metrics, stop <-chan struct{}) (*mmEngine, error) {
	e := &mmEngine{
		db:         sidb.New(),
		eager:      opts.EagerCert,
		stop:       stop,
		staleAfter: opts.StaleAfter,
		m:          m,
	}
	e.ap = pipeline.NewApplier(e.db)
	e.ap.SetTracer(m.tracer)
	var rec *wal.Recovered
	if opts.WALDir != "" {
		var err error
		if e.dur, rec, err = openDurability(opts); err != nil {
			return nil, err
		}
		e.dur.OnCompact = m.compactEvent
	}
	if opts.Paxos {
		// Replicated certification: this node hosts a Paxos acceptor
		// and starts as a backup; leadership comes only from winning an
		// election in the role loop (node 0 campaigns immediately on a
		// cold cluster). Until then the commit path follows the leader
		// ring, and certification requests answer NotLeader.
		px, err := newPaxosNode(opts)
		if err != nil {
			if e.dur != nil {
				e.dur.W.Close()
			}
			return nil, err
		}
		e.px = px
		e.groupCommit = opts.GroupCommit
		e.membership = elastic.NewMembership()
		e.membership.SeedStatic(opts.Members)
		e.cursors = pipeline.NewDynamicPeerCursors(func() int {
			return e.membership.Peers()
		}, int64(opts.GCLag))
		e.sw = &switchCert{}
		e.sw.set(&remoteCert{svc: px.ring, m: m, t: m.tracer})
		e.cert = e.sw
		// Backup-side propagation decodes the leader's trace id and
		// commit timestamp per record; feed them to the tracer so
		// replication lag is measured against the leader's clock.
		px.ring.OnRecordMeta(m.tracer.NoteCommitMeta)
		// Backup catch-up rides Since(); long-poll so a caught-up backup
		// parks on the leader instead of spinning wait=0 fetches.
		px.ring.SetSinceWait(syncLongPoll)
		// The role loop applies the log (as leader) or pulls it (as
		// backup); commits must not synchronously re-fetch the backlog.
		e.async = true
	} else if opts.ID == 0 {
		// The certification log recovers from the WAL: the restarted
		// certifier resumes at the last durably logged version, with
		// the compaction base as its pruning horizon.
		base := certifier.New()
		if rec != nil {
			base = certifier.NewFromRecords(rec.Records, rec.Base)
		}
		if e.dur != nil {
			base.SetJournal(e.dur.W)
		}
		base.SetStageObserver(m.tracer.CertStages())
		var batcher *certifier.Batcher
		if opts.GroupCommit {
			batcher = certifier.NewBatcher(base, 0)
		}
		e.host = &pipeline.HostCert{Base: base, Batcher: batcher, Notify: pipeline.NewNotify(), Observe: m.observeCert, Tracer: m.tracer}
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
		e.cursors = pipeline.NewDynamicPeerCursors(func() int {
			if gcDisabled {
				return -1
			}
			return e.membership.Peers()
		}, int64(opts.GCLag))
		e.cert = e.host
	} else {
		e.link = client.NewLink(opts.Primary, opts.Design, opts.ID, opts.DialTimeout)
		e.link.SetSinceWait(syncLongPoll)
		e.puller = client.NewLink(opts.Primary, opts.Design, opts.ID, opts.DialTimeout)
		e.puller.OnRecordMeta(m.tracer.NoteCommitMeta)
		e.cert = &remoteCert{svc: e.link, m: m, t: m.tracer}
		// The propagation loop applies writesets here; re-fetching the
		// backlog synchronously on every commit would double the
		// traffic for nothing.
		e.async = true
	}
	if rec != nil {
		// Rebuild the local database from the apply stream, then (and
		// only then) attach the journal hook — replay must not journal
		// its own restoration. The recovered cursor seeds the
		// propagation position: a restarted replica resumes FetchSince
		// from here instead of transferring a snapshot.
		d := e.dur
		err := e.ap.Reset(func(cur int64) (int64, error) {
			if err := rec.Restore(e.db); err != nil {
				return 0, err
			}
			e.db.SetJournal(d.ApplyHook())
			return max(cur, rec.Cursor), nil
		})
		if err != nil {
			d.W.Close()
			return nil, fmt.Errorf("server: wal replay: %w", err)
		}
		if rec.Cursor > 0 || len(rec.Applies) > 0 || len(rec.Records) > 0 {
			e.resumed, e.resumeOK = rec.Cursor, true
		}
	}
	return e, nil
}

func (e *mmEngine) resume() (int64, bool) { return e.resumed, e.resumeOK }

func (e *mmEngine) epochInfo() (int64, bool) {
	if e.px != nil {
		leading, _, epoch := e.px.view()
		return int64(epoch.Round), leading
	}
	return 0, e.hostCert() != nil
}

// begin opens a transaction at this node's applied snapshot. GSI: no
// communication with the certifier is needed. Taking the applied
// cursor and the local snapshot under the apply lock pins them to the
// same point in the version order — a writeset applied a moment later
// must count as concurrent.
func (e *mmEngine) begin(readOnly bool) (repl.Txn, error) {
	t := &mmTxn{e: e, readOnly: readOnly}
	e.ap.Pin(func(applied int64) {
		t.snapshot = applied
		t.inner = e.db.Begin()
	})
	return t, nil
}

// createTable commits the table's schema writeset (writeset.Schema)
// through certification, so every replica — present, joining or
// recovering — creates it from the log like any commit. It refuses a
// table this node already has once caught up; ddlMu makes that check
// and the commit one step for concurrent callers.
func (e *mmEngine) createTable(name string) error {
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

// loadRows certifies values[i] at (table, rows[i]), one record per
// repl.Chunks chunk: the load takes versions and propagates exactly
// like commits do.
func (e *mmEngine) loadRows(table string, rows []int64, values []string) error {
	return repl.Chunks(rows, values, func(rows []int64, values []string) error {
		return e.certifyWriteset(writeset.Rows(table, rows, values))
	})
}

// certifyWriteset certifies ws outside any transaction, at this node's
// applied snapshot.
func (e *mmEngine) certifyWriteset(ws writeset.Writeset) error {
	out, err := e.cert.CertifyTraced(e.ap.Applied(), ws, 0)
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
// Since is a network round trip, and holding the apply lock across it
// would stall every begin for the duration (the applier's version
// guards make the unlocked window safe against concurrent appliers).
func (e *mmEngine) catchUp() {
	e.ap.Apply(e.cert.Since(e.ap.Applied()))
}

func (e *mmEngine) dump(table string) (map[int64]string, error) { return e.db.Dump(table) }

// sync drains the certify stage into the apply stage (one pull); the
// wire Sync handlers and the propagation loop both land here, so all
// application serializes on the pipeline applier's lock.
func (e *mmEngine) sync() {
	e.catchUp()
	e.noteApplied()
}

func (e *mmEngine) applied() int64 { return e.ap.Applied() }

func (e *mmEngine) applyStats() pipeline.ApplyStats {
	if h := e.hostCert(); h != nil {
		e.ap.Observe(h.Base.Version())
	}
	return e.ap.Stats()
}

// certify and check serve a peer's certification requests; only the
// node hosting the certifier answers them (a Paxos backup redirects).
// trace is the submitting transaction's cross-node trace id (0
// untraced).
func (e *mmEngine) certify(snapshot int64, ws writeset.Writeset, trace uint64) (certifier.Outcome, error) {
	h := e.hostCert()
	if h == nil {
		if e.px != nil {
			return certifier.Outcome{}, e.px.notLeaderErr()
		}
		return certifier.Outcome{}, errUnsupported
	}
	return h.CertifyTraced(snapshot, ws, trace)
}

func (e *mmEngine) check(snapshot int64, ws writeset.Writeset) (bool, int64, error) {
	h := e.hostCert()
	if h == nil {
		if e.px != nil {
			return false, 0, e.px.notLeaderErr()
		}
		return false, 0, errUnsupported
	}
	conflict, with := h.Check(snapshot, ws)
	return conflict, with, nil
}

// twoPC resolves where the 2PC verbs run: on the certifier host the
// hosted certifier itself (and a commit decision applies locally before
// acking, like any commit); on a plain non-primary node the link to the
// primary, so a sharded client may address any member of a group.
// Under Paxos the leader serves from its hosted certifier and everyone
// else redirects — the leader's log is the only authority.
func (e *mmEngine) twoPC() (twoPCService, error) {
	if h := e.hostCert(); h != nil {
		return h, nil
	}
	if e.px != nil {
		return nil, e.px.notLeaderErr()
	}
	return e.link, nil
}

func (e *mmEngine) prepareTxn(p certifier.PreparedTxn) (bool, int64, error) {
	s, err := e.twoPC()
	if err != nil {
		return false, 0, err
	}
	return s.PrepareTxn(p)
}

// decideTxn applies the coordinator's decision at this group. A commit
// enters the record log like any certified writeset; the static host
// applies it before acking so the fragment is immediately readable.
func (e *mmEngine) decideTxn(id string, commit bool) (int64, error) {
	s, err := e.twoPC()
	if err != nil {
		return 0, err
	}
	version, err := s.DecideTxn(id, commit)
	if err == nil && commit && !e.async {
		e.catchUp()
	}
	return version, err
}

func (e *mmEngine) resolveTxn(id string) (bool, error) {
	s, err := e.twoPC()
	if err != nil {
		return false, err
	}
	return s.ResolveTxn(id)
}

func (e *mmEngine) forgetTxn(id string) error {
	s, err := e.twoPC()
	if err != nil {
		return err
	}
	return s.ForgetTxn(id)
}

func (e *mmEngine) logLen() int {
	h := e.hostCert()
	if h == nil {
		return 0
	}
	return h.Base.LogLen()
}

func (e *mmEngine) rowVersions() int64 { return e.db.Versions() }

func (e *mmEngine) fetchSince(peer int64, v int64, wait time.Duration) ([]certifier.Record, error) {
	h := e.hostCert()
	if h == nil {
		if e.px != nil {
			return nil, e.px.notLeaderErr()
		}
		return nil, errUnsupported
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
	return h.Since(v), nil
}

func (e *mmEngine) peerGone(peer int64) {
	if e.cursors != nil {
		e.cursors.Drop(peer)
	}
}

// join admits a new replica (primary only): it is registered before
// the snapshot is taken, so the certification log cannot be pruned
// past anything the joiner will need — the joiner's expected cursor
// blocks GC until its first long poll arrives (see docs/ELASTICITY.md
// for the ordering argument).
func (e *mmEngine) join(addr string) (*wire.JoinOK, error) {
	if e.px != nil {
		// The Paxos group's membership is fixed at boot: elastic joins
		// would have to change the acceptor set, which this deployment
		// does not support.
		return nil, fmt.Errorf("%w: elastic join is not supported with a replicated certifier", errUnsupported)
	}
	if e.hostCert() == nil {
		return nil, errUnsupported
	}
	id, epoch, members := e.membership.Join(addr, time.Now())
	e.m.events.Emit(events.MemberJoined,
		fmt.Sprintf("admitted replica %d at %s (epoch %d)", id, addr, epoch),
		map[string]string{"replica": strconv.FormatInt(id, 10), "addr": addr, "epoch": strconv.FormatInt(epoch, 10)})
	return &wire.JoinOK{ID: id, Epoch: epoch, Members: members}, nil
}

// leave deregisters a replica (primary only): its cursor stops gating
// GC and clients drop it on their next membership poll.
func (e *mmEngine) leave(id int64) error {
	if e.px != nil {
		return fmt.Errorf("%w: the replicated-certifier group is fixed at boot", errUnsupported)
	}
	if e.hostCert() == nil {
		return errUnsupported
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

func (e *mmEngine) members() (int64, []wire.Member, error) {
	if e.membership == nil {
		return 0, nil, errUnsupported
	}
	epoch, members := e.membership.Snapshot()
	return epoch, members, nil
}

// snapshot captures a consistent full-state snapshot (applied version
// plus all tables) for a joiner's state transfer.
func (e *mmEngine) snapshot() (int64, map[string]map[int64]string, error) {
	if e.hostCert() == nil {
		return 0, nil, errUnsupported
	}
	applied, _, tables, err := e.pinnedDump()
	return applied, tables, err
}

// pinnedDump captures, atomically with writeset application, the
// applied global version, the local database version and every table's
// contents: the joiner's state transfer and the WAL compaction image.
func (e *mmEngine) pinnedDump() (applied, local int64, tables map[string]map[int64]string, err error) {
	e.ap.Pin(func(v int64) {
		applied = v
		local, tables, err = consistentDump(e.db)
	})
	return applied, local, tables, err
}

// touch records liveness proof from peer: a snapshot chunk request
// counts like a long poll, so a joiner mid-transfer is not evicted as
// stale.
func (e *mmEngine) touch(peer int64) {
	if e.membership != nil {
		e.membership.Touch(peer, time.Now())
	}
}

// installSnapshot is the joiner-side inverse of snapshot: under the
// apply lock the tables are created and their contents installed as one
// writeset at the snapshot version (so the local database version
// equals the global one), and the applied cursor moves there so
// catch-up resumes from it. Version 0 is the empty log: no table exists
// before the first record.
func (e *mmEngine) installSnapshot(version int64, tables map[string]map[int64]string) error {
	err := e.ap.Reset(func(int64) (int64, error) {
		var entries []writeset.Entry
		for name, rows := range tables {
			if err := e.db.CreateTable(name); err != nil {
				return 0, err
			}
			for row, value := range rows {
				entries = append(entries, writeset.Entry{
					Key:   writeset.Key{Table: name, Row: row},
					Value: value,
				})
			}
		}
		if version > 0 {
			if err := e.db.ApplyWriteset(writeset.New(entries), version); err != nil {
				return 0, err
			}
		}
		return version, nil
	})
	if err != nil {
		return err
	}
	if e.dur != nil {
		// The installed rows were journaled through the apply hook;
		// record the table set and the cursor so a restart resumes
		// past the snapshot. One fsync at the end covers the whole
		// install before it is acknowledged (not one Table call per
		// name, which would fsync once per table).
		for name := range tables {
			if err := e.dur.W.AppendTable(name); err != nil {
				return err
			}
		}
		e.dur.Cursor(version)
		if err := e.dur.Sync(); err != nil {
			return err
		}
	}
	return nil
}

// evictStale evicts elastic members that stopped proving liveness and
// drops their cursors, journaling each eviction.
func (e *mmEngine) evictStale() {
	for _, id := range e.membership.EvictStale(time.Now(), e.staleAfter) {
		e.cursors.Drop(id)
		e.m.events.Emit(events.MemberEvicted,
			fmt.Sprintf("evicted silent replica %d after %s", id, e.staleAfter),
			map[string]string{"replica": strconv.FormatInt(id, 10)})
	}
}

// maybeGC prunes the certification log up to what every replica
// (including this one) has applied, minus the safety lag.
func (e *mmEngine) maybeGC() {
	hc := e.hostCert()
	if hc == nil {
		return
	}
	if h, ok := e.cursors.Horizon(e.applied()); ok {
		hc.Base.GC(h)
	}
}

// ingest hands fetched records to the apply stage and journals the
// cursor when any landed — the puller's sink.
func (e *mmEngine) ingest(recs []certifier.Record) {
	if len(recs) > 0 {
		// Propagation-side span, sampled once per fetched batch.
		last := recs[len(recs)-1]
		e.m.tracer.PropagateSpan(last.Version, len(last.Writeset.Entries), time.Now())
	}
	if e.ap.Apply(recs) > 0 {
		e.noteApplied()
	}
}

// noteApplied journals the propagation cursor after applies landed —
// a cheap append. Compaction is deliberately NOT triggered here:
// noteApplied runs on the wire Sync request path, and a full-segment
// rewrite (dump, rewrite, fsync, rename) would stall one unlucky
// client for the whole of it. The background run loop compacts within
// one poll interval instead (maybeCompactDurable).
func (e *mmEngine) noteApplied() {
	if e.dur == nil {
		return
	}
	e.dur.Cursor(e.applied())
}

// maybeCompactDurable rewrites the WAL around a fresh consistent
// snapshot once the segment outgrows its bound (background loops
// only; see noteApplied). The capture and rewrite go through
// durability.maybeCompact, which serializes them as one unit so
// racing callers cannot regress the log.
func (e *mmEngine) maybeCompactDurable() {
	if e.dur == nil {
		return
	}
	e.dur.MaybeCompact(func() (int64, int64, int64, int64, map[string]map[int64]string, error) {
		applied, local, state, err := e.pinnedDump()
		if err != nil {
			return 0, 0, 0, 0, nil, err
		}
		// On the certifier host, drop certified history only up to the
		// peer-cursor GC horizon: a disconnected replica's pending
		// records must survive compaction so it can still FetchSince its
		// way back.
		base := applied
		if e.cursors != nil {
			h, ok := e.cursors.Horizon(applied)
			if !ok {
				h = 0
			}
			base = h
		}
		return base, applied, local, local, state, nil
	})
}

// run is the writeset propagation loop. The certifier host applies
// from its local log on commit wakeups; other nodes long-poll the host
// over their dedicated peer link.
func (e *mmEngine) run(stop <-chan struct{}) {
	if e.px != nil {
		e.runPaxos(stop)
		return
	}
	if e.host != nil {
		for {
			select {
			case <-stop:
				return
			default:
			}
			e.host.Notify.WaitBeyond(e.applied(), pollInterval, stop)
			if e.catchUp(); e.dur != nil {
				e.noteApplied()
				e.maybeCompactDurable()
			}
			// Evict elastic members that stopped proving liveness — a
			// joiner that crashed mid-state-transfer, or a replica
			// that died without a Leave. Their ghost cursors would
			// otherwise block certification-log GC forever.
			e.evictStale()
		}
	}
	p := &pipeline.Puller{
		Interval: pollInterval,
		Cursor:   e.applied,
		Fetch:    e.puller.FetchSince,
		Ingest: func(recs []certifier.Record) {
			e.ingest(recs)
			// Compact whenever records arrived, even if a client's wire
			// Sync handler won the race to apply them — otherwise a
			// replica whose applies are always won that way would never
			// compact.
			e.maybeCompactDurable()
		},
	}
	p.Run(stop)
}

func (e *mmEngine) disconnect() {
	if e.link != nil {
		e.link.Close()
	}
	if e.puller != nil {
		e.puller.Close()
	}
	if e.px != nil {
		e.px.disconnect()
	}
}

func (e *mmEngine) close() {
	if e.px != nil {
		e.px.close()
	}
	if e.dur != nil {
		e.dur.W.Close()
	}
}

// paxosPrepare, paxosAccept and paxosLearn serve the embedded Paxos
// acceptor; errUnsupported unless this node runs one.
func (e *mmEngine) paxosPrepare(b paxos.Ballot, slot int) (paxos.PrepareReply, error) {
	if e.px == nil {
		return paxos.PrepareReply{}, errUnsupported
	}
	return e.px.acc.Prepare(b, slot)
}

func (e *mmEngine) paxosAccept(b paxos.Ballot, slot int, v paxos.Value) (paxos.AcceptReply, error) {
	if e.px == nil {
		return paxos.AcceptReply{}, errUnsupported
	}
	return e.px.acc.Accept(b, slot, v)
}

func (e *mmEngine) paxosLearn() (paxos.LearnReply, error) {
	if e.px == nil {
		return paxos.LearnReply{}, errUnsupported
	}
	maxSlot, promised := e.px.acc.Status()
	return paxos.LearnReply{MaxSlot: maxSlot, Promised: promised}, nil
}

// leaderAddr maps a paxos id to its replica address for NotLeader
// redirects ("" when unknown or Paxos is disabled).
func (e *mmEngine) leaderAddr(id int) string {
	if e.px == nil {
		return ""
	}
	return e.px.addrOf(id)
}

// mmTxn is a client transaction proxied onto this node's database.
type mmTxn struct {
	e        *mmEngine
	inner    *sidb.Txn
	snapshot int64  // global (certifier) version of the GSI snapshot
	version  int64  // global version assigned at commit (0 until then)
	trace    uint64 // cross-node trace id (0 untraced)
	readOnly bool
	done     bool
}

var _ repl.Txn = (*mmTxn)(nil)

// SetTrace attaches the transaction's cross-node trace id; the commit
// path forwards it to the certification service so spans stitch
// end-to-end. Call before Commit.
func (t *mmTxn) SetTrace(trace uint64) { t.trace = trace }

func (t *mmTxn) Read(table string, row int64) (string, bool, error) {
	return t.inner.Read(table, row)
}

// Write stages a write. With eager certification the partial writeset
// is checked against the certifier immediately and a doomed transaction
// aborts early with repl.ErrAborted.
func (t *mmTxn) Write(table string, row int64, value string) error {
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
		if conflict, with := t.e.cert.Check(t.snapshot, partial); conflict {
			return &repl.AbortedError{ConflictWith: with}
		}
	}
	return nil
}

func (t *mmTxn) Delete(table string, row int64) error {
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
func (t *mmTxn) Commit() error {
	if t.done {
		return sidb.ErrTxnDone
	}
	t.done = true
	ws := t.inner.Writeset()
	if ws.Empty() {
		_, _, err := t.inner.Commit()
		return err
	}
	outcome, err := t.e.cert.CertifyTraced(t.snapshot, ws, t.trace)
	// The local speculative state is discarded whatever the verdict: a
	// certified writeset installs through the apply stage in version
	// order.
	t.inner.Abort()
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

// HasWrites reports whether the transaction has staged any writes —
// the router's test for whether this group is a real participant of a
// cross-shard commit or just a read-side bystander.
func (t *mmTxn) HasWrites() bool {
	if t.done || t.readOnly {
		return false
	}
	return !t.inner.Writeset().Empty()
}

// Prepare runs the first 2PC phase for this transaction's writeset as
// one fragment of cross-shard transaction id, coordinated by shard
// group coord. The local speculative state is discarded either way — on
// a yes-vote the fragment lives on, locked and journaled, in the
// group's certifier until the coordinator's decision arrives through
// decideTxn. An empty writeset votes yes with nothing to lock.
func (t *mmTxn) Prepare(id string, coord int64) (vote bool, conflictWith int64, err error) {
	if t.done {
		return false, 0, sidb.ErrTxnDone
	}
	t.done = true
	ws := t.inner.Writeset()
	t.inner.Abort()
	if ws.Empty() {
		return true, 0, nil
	}
	return t.e.prepareTxn(certifier.PreparedTxn{
		ID: id, Coord: coord, Snapshot: t.snapshot, Writeset: ws,
	})
}

// CommitVersion returns the global version a successful update commit
// was assigned, or 0 for read-only transactions and before Commit.
func (t *mmTxn) CommitVersion() int64 { return t.version }

func (t *mmTxn) Abort() {
	if t.done {
		return
	}
	t.done = true
	t.inner.Abort()
}

// smEngine is one single-master node: the master executes updates
// under first-committer-wins snapshot isolation and feeds a
// propagation log; slaves are read-only caches whose pipeline apply
// stage installs the master's writesets in commit order over the peer
// link.
type smEngine struct {
	db       *sidb.DB
	isMaster bool
	stop     <-chan struct{}
	dur      *pipeline.Durability // non-nil when the node runs a WAL
	resumed  int64                // version recovered from the WAL at start
	resumeOK bool

	// master state
	wlog    *sm.Log
	notify  *pipeline.Notify
	cursors *pipeline.PeerCursors

	// slave state
	ap     *pipeline.Applier // the slave's apply stage
	link   *client.Link      // sync pulls
	puller *client.Link      // propagation loop

	m *metrics // node instruments (stage tracer)
}

func newSMEngine(opts Options, m *metrics, stop <-chan struct{}) (*smEngine, error) {
	e := &smEngine{db: sidb.New(), isMaster: opts.ID == 0, stop: stop, m: m}
	var rec *wal.Recovered
	if opts.WALDir != "" {
		var err error
		if e.dur, rec, err = openDurability(opts); err != nil {
			return nil, err
		}
		e.dur.OnCompact = m.compactEvent
		if err := rec.Restore(e.db); err != nil {
			e.dur.W.Close()
			return nil, fmt.Errorf("server: wal replay: %w", err)
		}
		e.db.SetJournal(e.dur.ApplyHook())
		if v := e.db.Version(); v > 0 {
			e.resumed, e.resumeOK = v, true
		}
	}
	if e.isMaster {
		e.wlog = sm.NewLog()
		e.notify = pipeline.NewNotify()
		e.cursors = pipeline.NewPeerCursors(opts.Replicas-1, int64(opts.GCLag))
		if rec != nil {
			// Rebuild the propagation log so restarted slaves resume
			// their FetchSince cursors. Master versions are absolute,
			// so the recovered apply stream is the log verbatim.
			for _, a := range rec.Applies {
				e.wlog.Append(a.Local, a.WS)
			}
		}
	} else {
		// The slave cursor is the master version, which the local
		// database version tracks exactly: every change, schema and load
		// included, arrives as a master commit applied in commit order.
		e.ap = pipeline.NewApplier(e.db)
		e.ap.SetTracer(m.tracer)
		if err := e.ap.Reset(func(int64) (int64, error) { return e.db.Version(), nil }); err != nil {
			return nil, err
		}
		e.link = client.NewLink(opts.Primary, opts.Design, opts.ID, opts.DialTimeout)
		e.puller = client.NewLink(opts.Primary, opts.Design, opts.ID, opts.DialTimeout)
		e.puller.OnRecordMeta(m.tracer.NoteCommitMeta)
	}
	return e, nil
}

func (e *smEngine) epochInfo() (int64, bool) { return 0, e.isMaster }

func (e *smEngine) begin(readOnly bool) (repl.Txn, error) {
	if !readOnly && !e.isMaster {
		// The slave proxy is the only source of updates to its
		// database (§5.2); the client driver routes updates to the
		// master, so reaching this is a routing bug, not a race.
		return nil, fmt.Errorf("%w: updates must run on the master", errUnsupported)
	}
	return &smTxn{e: e, inner: e.db.Begin(), readOnly: readOnly}, nil
}

// createTable and loadRows commit on the master (sm.Install), so
// slaves receive schema and rows from the propagation log; the master
// refuses a table it already has.
func (e *smEngine) createTable(name string) error {
	if e.isMaster {
		if err := e.db.CreateTable(name); err != nil {
			return err
		}
	}
	return e.commit(writeset.Schema(name))
}

func (e *smEngine) loadRows(table string, rows []int64, values []string) error {
	return e.commit(writeset.Rows(table, rows, values))
}

// commit installs ws on the master outside any transaction and
// publishes it; slaves refuse.
func (e *smEngine) commit(ws writeset.Writeset) error {
	if !e.isMaster {
		return fmt.Errorf("%w: updates must run on the master", errUnsupported)
	}
	version, err := sm.Install(e.db, ws)
	if err != nil {
		return err
	}
	return e.publish(version, ws, 0)
}

// publish gates a master commit on the group fsync (with a WAL) and
// hands it to the propagation log, waking the slaves' long polls.
func (e *smEngine) publish(version int64, ws writeset.Writeset, trace uint64) error {
	if d := e.dur; d != nil {
		// The writeset was journaled by the database's apply hook inside
		// the install; block on the group fsync before the commit is
		// acknowledged or propagated (fail-stop on real disk failures,
		// ambiguous outcome on a clean-shutdown race — see
		// sm.SyncCommit).
		syncStart := time.Now()
		if err := sm.SyncCommit(d.W, version); err != nil {
			return err
		}
		e.m.tracer.ObserveStage(pipeline.StageFsync, time.Since(syncStart), 1)
	}
	e.wlog.Append(version, ws)
	e.m.tracer.NoteCommitMeta(version, trace, time.Now().UnixNano())
	e.notify.Bump(version)
	return nil
}

// maybeCompact rewrites the WAL around a consistent dump once the
// segment outgrows its bound. Master versions are absolute, so the
// snapshot's local version doubles as the global one; on the master
// the drop horizon additionally respects the slave cursors, exactly
// like propagation-log GC. The capture and rewrite go through
// durability.maybeCompact so racing callers cannot regress the log.
func (e *smEngine) maybeCompact() {
	if e.dur == nil {
		return
	}
	e.dur.MaybeCompact(func() (int64, int64, int64, int64, map[string]map[int64]string, error) {
		local, state, err := consistentDump(e.db)
		if err != nil {
			return 0, 0, 0, 0, nil, err
		}
		base := local
		if e.isMaster && e.cursors != nil {
			h, ok := e.cursors.Horizon(local)
			if !ok {
				h = 0
			}
			base = h
		}
		// The master's apply stream doubles as the propagation log: keep
		// applies above the slave horizon, not just above the snapshot.
		return base, local, local, base, state, nil
	})
}

func (e *smEngine) dump(table string) (map[int64]string, error) { return e.db.Dump(table) }

// sync drains the master's propagation feed into the slave's apply
// stage (one pull); wire Sync handlers and the propagation loop both
// land on the pipeline applier's lock.
func (e *smEngine) sync() {
	if e.isMaster {
		return // the master is always current
	}
	// Long-poll instead of wait=0: a caught-up slave pinged by a
	// client's Sync loop parks briefly on the master rather than
	// burning a round trip per ping.
	recs, err := e.link.FetchSince(e.applied(), syncLongPoll)
	if err != nil {
		return
	}
	e.ap.Apply(recs)
}

func (e *smEngine) applied() int64 {
	if e.isMaster {
		return e.db.Version()
	}
	return e.ap.Applied()
}

func (e *smEngine) applyStats() pipeline.ApplyStats {
	if e.isMaster {
		// The master applies nothing; its commits land through its own
		// concurrency control.
		return pipeline.ApplyStats{Applied: e.db.Version()}
	}
	return e.ap.Stats()
}

func (e *smEngine) logLen() int {
	if !e.isMaster {
		return 0
	}
	return e.wlog.Len()
}

func (e *smEngine) rowVersions() int64 { return e.db.Versions() }

func (e *smEngine) fetchSince(peer int64, v int64, wait time.Duration) ([]certifier.Record, error) {
	if !e.isMaster {
		return nil, errUnsupported
	}
	if wait > 0 {
		// A slave's long-poll cursor is the master version it has
		// applied; the minimum across all slaves bounds log pruning.
		e.cursors.Update(peer, v)
		if h, ok := e.cursors.Horizon(e.db.Version()); ok {
			e.wlog.GCBelow(h)
		}
		e.notify.WaitBeyond(v, wait, e.stop)
	}
	return e.wlog.SinceDense(v), nil
}

func (e *smEngine) peerGone(peer int64) {
	if e.cursors != nil {
		e.cursors.Drop(peer)
	}
}

func (e *smEngine) resume() (int64, bool) { return e.resumed, e.resumeOK }

func (e *smEngine) run(stop <-chan struct{}) {
	if e.isMaster {
		if e.dur == nil {
			return
		}
		// The master has no propagation loop; poll only for compaction.
		for {
			select {
			case <-stop:
				return
			case <-time.After(pollInterval):
				e.maybeCompact()
			}
		}
	}
	p := &pipeline.Puller{
		Interval: pollInterval,
		Cursor:   e.applied,
		Fetch:    e.puller.FetchSince,
		Ingest: func(recs []certifier.Record) {
			if len(recs) > 0 {
				last := recs[len(recs)-1]
				e.m.tracer.PropagateSpan(last.Version, len(last.Writeset.Entries), time.Now())
			}
			e.ap.Apply(recs)
			e.maybeCompact()
		},
	}
	p.Run(stop)
}

func (e *smEngine) disconnect() {
	if e.link != nil {
		e.link.Close()
	}
	if e.puller != nil {
		e.puller.Close()
	}
}

func (e *smEngine) close() {
	if e.dur != nil {
		e.dur.W.Close()
	}
}

// smTxn adapts a sidb transaction to repl.Txn with the master/slave
// proxy rules.
type smTxn struct {
	e        *smEngine
	inner    *sidb.Txn
	version  int64  // master version assigned at commit (0 until then)
	trace    uint64 // cross-node trace id (0 untraced)
	readOnly bool
	done     bool
}

var _ repl.Txn = (*smTxn)(nil)

// SetTrace attaches the transaction's cross-node trace id before
// Commit; the master records it against the assigned version so
// propagated records carry it to the slaves.
func (t *smTxn) SetTrace(trace uint64) { t.trace = trace }

func (t *smTxn) Read(table string, row int64) (string, bool, error) {
	return t.inner.Read(table, row)
}

func (t *smTxn) Write(table string, row int64, value string) error {
	if t.readOnly {
		return repl.ErrReadOnlyTxn
	}
	return t.inner.Write(table, row, value)
}

func (t *smTxn) Delete(table string, row int64) error {
	if t.readOnly {
		return repl.ErrReadOnlyTxn
	}
	return t.inner.Delete(table, row)
}

func (t *smTxn) Commit() error {
	if t.done {
		return sidb.ErrTxnDone
	}
	t.done = true
	ws, version, err := t.inner.Commit()
	if err != nil {
		if errors.Is(err, sidb.ErrConflict) {
			return fmt.Errorf("%w (%v)", repl.ErrAborted, err)
		}
		return err
	}
	if ws.Empty() {
		return nil
	}
	t.version = version
	return t.e.publish(version, ws, t.trace)
}

// CommitVersion returns the master version a successful update commit
// was assigned, or 0 for read-only transactions and before Commit.
func (t *smTxn) CommitVersion() int64 { return t.version }

func (t *smTxn) Abort() {
	if t.done {
		return
	}
	t.done = true
	t.inner.Abort()
}
