// Package server implements the TCP replica server of the networked
// deployment: each process fronts one database replica with the
// replication middleware (a node with a local or remote certifier; a
// single-master slave is one that refuses updates), speaks the
// internal/wire protocol to clients, and maintains peer links to the
// primary for remote certification and writeset propagation — the paper's deployment shape (§5), where
// replicas, the certifier and the clients are separate machines.
//
// Concurrency model: one goroutine per accepted connection with a
// bounded accept loop, one background propagation goroutine (the peer
// link), and an optional HTTP metrics listener. Close is graceful:
// the listener stops, open connections are closed (aborting their
// in-flight transactions), and every goroutine is joined.
package server

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/certifier"
	"repro/internal/client"
	"repro/internal/obs"
	"repro/internal/obs/events"
	"repro/internal/paxos"
	"repro/internal/repl"
	"repro/internal/sidb"
	"repro/internal/wire"
)

// Options configure one replica server process.
type Options struct {
	// Design is the replication design this node serves: "mm" or "sm".
	// It decides one thing: whether a node that does not host the
	// certifier accepts update transactions, schema and load. Under mm
	// every node does (§5.1); under sm only the host does, and it is the
	// master (§5.2). Everything else follows from the node's role.
	Design string
	// ID is this node's replica id. Without Paxos replica 0 is the
	// primary, the certifier host; with Paxos any member may host it.
	ID int
	// Listen is the TCP listen address (host:port; port 0 picks one).
	Listen string
	// Primary is the address of replica 0; required when ID > 0,
	// ignored when ID == 0.
	Primary string
	// MetricsAddr optionally serves /metrics over HTTP.
	MetricsAddr string
	// MaxConns bounds concurrently served connections (default 256);
	// the accept loop stalls at the bound rather than rejecting.
	MaxConns int
	// Replicas is the boot-time replica count of the cluster. On the
	// primary it gates garbage collection of retained writesets: the
	// log is pruned only once all Replicas-1 peers maintain active
	// propagation cursors (0 disables pruning, retaining everything).
	// Elastic joins and leaves adjust the expectation at runtime.
	Replicas int
	// Members lists the boot-time replica addresses indexed by id. The
	// primary publishes them (plus elastic joiners) through the Members
	// message so clients can resize their pools; without it only
	// elastically joined replicas are discoverable. Required with
	// Paxos, where it is the certification group: every member's client
	// address including this node's own, and elections need a
	// reachable majority of it.
	Members []string
	// Join, on a non-primary, asks the primary to admit this node
	// at startup: the primary assigns the replica id (ID is ignored),
	// transfers a consistent snapshot, and the node catches up over
	// the ordinary propagation path before serving.
	Join bool
	// StaleAfter is how long the primary waits before evicting an
	// elastic member that stopped proving liveness (default 5s) — a
	// joiner that crashed mid-state-transfer would otherwise block
	// certification-log GC forever.
	StaleAfter time.Duration
	// GCLag is how many versions below the cluster-wide applied
	// horizon the primary retains anyway, protecting certification
	// requests from transactions that began before the horizon moved
	// (default 256).
	GCLag int
	// GroupCommit batches commit certification on the certifier host
	// (ID 0, or any node with Paxos).
	GroupCommit bool
	// EagerCert enables eager certification on writes (on a node that
	// does not host the certifier every probe is a network round trip).
	EagerCert bool
	// WALDir enables durable commits: the node journals its state into
	// a write-ahead log in this directory, replays it on start, and —
	// on the certifier host — acknowledges commits only once their
	// writesets are logged. A restarted replica resumes propagation
	// from the last version in its log over FetchSince instead of
	// transferring a snapshot. Empty disables durability (the seed's
	// in-memory behavior).
	WALDir string
	// Fsync makes WAL commits wait on a (group) fsync, surviving
	// machine crashes rather than just process kills. Requires WALDir.
	Fsync bool
	// Paxos turns certification into a replicated state machine: this
	// node embeds a Paxos acceptor, the group elects a certification
	// leader with epoch fencing, and leadership fails over automatically
	// when the leader dies (under sm the master moves with it). Composes
	// with WALDir /
	// Fsync — the acceptor state then persists next to the WAL, so a
	// restarted node rejoins with its promises and votes intact. The
	// group is Members.
	Paxos bool
	// ElectTimeout is how long a backup goes without leader progress
	// before campaigning (default 1s); node id waits an extra
	// id*ElectTimeout/2 so elections stagger instead of colliding.
	ElectTimeout time.Duration
	// DisableTrace turns off commit-path stage tracing (span assembly,
	// per-stage histograms, the slow-transaction log). Tracing is on
	// by default; this exists to measure its overhead.
	DisableTrace bool
	// SlowTxn is the slow-transaction threshold for /debug/slowtxns
	// (default pipeline.DefaultSlowTxn).
	SlowTxn time.Duration
	// ShardID / ShardCount place this replica group inside a
	// hash-partitioned deployment: the group owns the keys that
	// internal/router's table-aware hash maps to ShardID out of
	// ShardCount groups. Both default to the unsharded single group
	// (0 of 1). The values are stamped onto JoinOK/MembersOK replies so
	// clients learn the shard map from any member; routing itself
	// happens client-side, the server only answers the per-fragment 2PC
	// verbs for keys it owns.
	ShardID    int
	ShardCount int
}

// shardMapVersion is the version stamped on the published shard map.
// The map is boot-static in this PR (resharding would bump it), so a
// constant marks "a sharded deployment" vs the zero "unsharded".
const shardMapVersion = 1

const (
	// idleTimeout closes connections that send nothing for this long, so
	// half-open peers cannot hold MaxConns slots forever; clients
	// transparently redial pooled connections the server reaped.
	idleTimeout = 5 * time.Minute
	// drainTimeout bounds how long Leave waits for in-flight
	// transactions to finish before giving up on them.
	drainTimeout = 5 * time.Second
	// walCompactBytes is the WAL segment size past which a node
	// compacts its log around a full-state snapshot.
	walCompactBytes = 64 << 20
)

// Validate reports the first rule the options break; New refuses such
// options. Zero values are valid and select the documented defaults.
func (o Options) Validate() error {
	shards := max(o.ShardCount, 1)
	switch {
	case o.Design != "mm" && o.Design != "sm":
		return fmt.Errorf("server: unknown design %q (mm|sm)", o.Design)
	case o.Listen == "":
		return errors.New("server: listen address required")
	case o.ID < 0:
		return fmt.Errorf("server: negative replica id %d", o.ID)
	case len(o.Members) > 0 && o.ID >= len(o.Members):
		return fmt.Errorf("server: replica id %d out of range for %d members", o.ID, len(o.Members))
	case o.Join && o.Primary == "":
		return errors.New("server: elastic join requires the primary's address")
	case o.Paxos && o.Join:
		return errors.New("server: elastic join is not supported with a replicated certifier (the group is fixed at boot)")
	case o.Paxos && len(o.Members) == 0:
		return errors.New("server: a replicated certifier requires the member address list")
	case !o.Join && !o.Paxos && o.ID > 0 && o.Primary == "":
		return errors.New("server: replica id > 0 requires the primary's address")
	case o.GroupCommit && !o.Paxos && (o.ID != 0 || o.Join):
		return errors.New("server: group commit runs only on the certifier host (id 0, or any node with a replicated certifier)")
	case o.Fsync && o.WALDir == "":
		return errors.New("server: fsync requires a WAL directory")
	case o.ShardCount < 0:
		return fmt.Errorf("server: negative shard count %d", o.ShardCount)
	case o.ShardID < 0 || o.ShardID >= shards:
		return fmt.Errorf("server: shard %d out of range for %d shard groups", o.ShardID, shards)
	case o.ElectTimeout < 0:
		return fmt.Errorf("server: negative election timeout %s", o.ElectTimeout)
	case o.SlowTxn < 0:
		return fmt.Errorf("server: negative slow-transaction threshold %s", o.SlowTxn)
	}
	return nil
}

// Server is a running replica server.
type Server struct {
	opts Options
	ln   net.Listener
	eng  *engine
	m    *metrics

	httpLn  net.Listener
	httpSrv *http.Server

	sem      chan struct{}
	stop     chan struct{}
	wg       sync.WaitGroup
	connID   atomic.Int64
	draining atomic.Bool

	connMu sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

// New validates the options, binds the listener(s) and builds the
// node engine. A Join server additionally runs the join protocol
// against the primary (admission, snapshot transfer, catch-up
// cursor), so a non-nil return means a replica that is consistent up
// to its snapshot version and ready to serve once Start launches its
// propagation loop. The server does not accept traffic until Start.
func New(opts Options) (*Server, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.MaxConns <= 0 {
		opts.MaxConns = 256
	}
	if opts.GCLag <= 0 {
		opts.GCLag = 256
	}
	if opts.StaleAfter <= 0 {
		opts.StaleAfter = 5 * time.Second
	}
	if opts.ElectTimeout == 0 {
		opts.ElectTimeout = time.Second
	}

	// The listener binds before a join so the joiner can announce the
	// address clients will reach it at (Listen may carry port 0).
	ln, err := net.Listen("tcp", opts.Listen)
	if err != nil {
		return nil, err
	}
	var snapVersion int64
	var snapTables map[string]map[int64]string
	if opts.Join {
		snapVersion, snapTables, err = runJoin(&opts, ln.Addr().String())
		if err != nil {
			ln.Close()
			return nil, err
		}
	}

	m := newMetrics(opts.Design, opts.ID, opts.DisableTrace, opts.SlowTxn)
	stop := make(chan struct{})
	eng, err := newEngine(opts, m, stop)
	if err != nil {
		ln.Close()
		return nil, err
	}
	m.bindEngine(eng)
	if snapTables != nil {
		if err := eng.installSnapshot(snapVersion, snapTables); err != nil {
			ln.Close()
			eng.disconnect()
			eng.close()
			return nil, fmt.Errorf("server: installing snapshot: %w", err)
		}
	}

	s := &Server{
		opts:  opts,
		ln:    ln,
		eng:   eng,
		m:     m,
		sem:   make(chan struct{}, opts.MaxConns),
		stop:  stop,
		conns: make(map[net.Conn]struct{}),
	}
	if opts.MetricsAddr != "" {
		s.httpLn, err = net.Listen("tcp", opts.MetricsAddr)
		if err != nil {
			ln.Close()
			eng.disconnect()
			eng.close()
			return nil, err
		}
		s.httpSrv = &http.Server{Handler: m.handler()}
	}
	return s, nil
}

// runJoin performs the client half of the join protocol: admission
// (which assigns the replica id and blocks certification-log GC until
// this node starts pulling) followed by the chunked snapshot
// transfer. The ordering matters — because admission precedes the
// snapshot, every writeset certified after the snapshot version is
// still retained when the propagation loop starts fetching from it.
// The snapshot link announces the assigned id, so chunk requests
// count as liveness proof and a transfer longer than StaleAfter does
// not get the joiner evicted as stale.
func runJoin(opts *Options, selfAddr string) (int64, map[string]map[int64]string, error) {
	admit := client.NewLink(opts.Primary, opts.Design, -1, 0)
	jo, err := admit.Join(selfAddr)
	admit.Close()
	if err != nil {
		return 0, nil, fmt.Errorf("server: join rejected by primary: %w", err)
	}
	opts.ID = int(jo.ID)
	snapLink := client.NewLink(opts.Primary, opts.Design, opts.ID, 0)
	defer snapLink.Close()
	version, tables, err := snapLink.Snapshot()
	if err != nil {
		return 0, nil, fmt.Errorf("server: snapshot transfer: %w", err)
	}
	return version, tables, nil
}

// Addr returns the bound listen address (useful with port 0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Leader reports this node's view of the replicated certifier: whether
// it currently leads, its best guess of the leader id (-1 unknown) and
// the highest epoch it has seen. ok is false when the node does not run
// a replicated certifier.
func (s *Server) Leader() (leading bool, leader int, epoch paxos.Ballot, ok bool) {
	if s.eng.px == nil {
		return false, -1, paxos.Ballot{}, false
	}
	leading, leader, epoch = s.eng.leaderView()
	return leading, leader, epoch, true
}

// Resumed reports the version this node's durable state was recovered
// to at start; ok is false when the node has no WAL or started fresh.
func (s *Server) Resumed() (version int64, ok bool) { return s.eng.resume() }

// Registry returns the node's metrics registry. External components
// (the model-residual exporter) register their gauges here so they
// appear on this node's /metrics exposition.
func (s *Server) Registry() *obs.Registry { return s.m.reg }

// Events returns the node's cluster-event journal. External components
// (the autoscaler's decision hook) emit through it so their events
// appear on this node's /debug/events alongside the server's own.
func (s *Server) Events() *events.Journal { return s.m.events }

// MetricsAddr returns the bound metrics address, or "" when disabled.
func (s *Server) MetricsAddr() string {
	if s.httpLn == nil {
		return ""
	}
	return s.httpLn.Addr().String()
}

// Start launches the accept loop, the propagation loop and the
// metrics listener.
func (s *Server) Start() {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.acceptLoop()
	}()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.eng.run(s.stop)
	}()
	if s.httpSrv != nil {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			_ = s.httpSrv.Serve(s.httpLn)
		}()
	}
}

// Leave gracefully departs the cluster: new transactions are refused
// with CodeDraining (clients reroute to surviving replicas),
// in-flight transactions get up to drainTimeout to finish, and the
// node deregisters from the primary so its propagation cursor stops
// gating certification-log GC and clients drop it from their pools.
// Call Close afterwards to release the process state. Leave is
// idempotent; it returns an error if the deregistration failed or the
// drain timed out (remaining transactions are then aborted by Close).
// Only a replica that certifies through the primary can leave: the
// primary and Paxos members refuse without draining.
func (s *Server) Leave() error {
	if s.eng.px != nil || s.eng.ring == nil {
		return fmt.Errorf("%w: only a replica certifying through the primary can leave the cluster", errUnsupported)
	}
	if s.draining.Swap(true) {
		return nil
	}
	// Deregister first: routing stops cluster-wide as soon as clients
	// observe the epoch bump, while the draining flag already refuses
	// anything that races in over existing connections.
	l, err := s.eng.ring.Leader()
	if err == nil {
		err = l.Leave(int64(s.opts.ID))
	}
	deadline := time.Now().Add(drainTimeout)
	for s.m.activeTxns.Load() > 0 {
		if time.Now().After(deadline) {
			drainErr := fmt.Errorf("server: drain timed out with %d transactions in flight", s.m.activeTxns.Load())
			if err == nil {
				err = drainErr
			}
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	return err
}

// Close shuts the server down gracefully and joins every goroutine.
// It is idempotent.
func (s *Server) Close() error {
	s.connMu.Lock()
	if s.closed {
		s.connMu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for nc := range s.conns {
		conns = append(conns, nc)
	}
	s.connMu.Unlock()

	close(s.stop)
	err := s.ln.Close()
	if s.httpSrv != nil {
		_ = s.httpSrv.Close()
	}
	for _, nc := range conns {
		_ = nc.Close()
	}
	// Fail the propagation loop's in-flight RPCs first, then join every
	// goroutine, and only then release the WAL: closing it while the
	// role loop is still ingesting a fetched batch panics the applier.
	s.eng.disconnect()
	s.wg.Wait()
	s.eng.close()
	return err
}

// track registers a live connection; it reports false once the server
// is closing so late accepts are dropped immediately.
func (s *Server) track(nc net.Conn) bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if s.closed {
		return false
	}
	s.conns[nc] = struct{}{}
	return true
}

func (s *Server) untrack(nc net.Conn) {
	s.connMu.Lock()
	delete(s.conns, nc)
	s.connMu.Unlock()
}

// acceptLoop accepts connections, each behind the MaxConns semaphore.
func (s *Server) acceptLoop() {
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		select {
		case s.sem <- struct{}{}:
		case <-s.stop:
			nc.Close()
			return
		}
		if !s.track(nc) {
			nc.Close()
			<-s.sem
			return
		}
		s.m.activeConns.Add(1)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				s.untrack(nc)
				nc.Close()
				s.m.activeConns.Add(-1)
				<-s.sem
			}()
			s.handleConn(nc)
		}()
	}
}

// connState is one connection's serving state: its cursor key, its
// single open transaction, an in-progress snapshot stream, and one
// reusable reply struct per hot reply type. dispatch returns pointers
// to those; handleConn sends each reply before it receives the next
// request, so a reply is always encoded before its struct is refilled.
type connState struct {
	peer int64
	// tx is the connection's transaction, begun anew by every Begin;
	// cur points at it while a transaction is open and is nil
	// otherwise.
	tx       txn
	cur      *txn
	readOnly bool
	txStart  time.Time
	snap     *snapshotStream

	beginOK   wire.BeginOK
	readOK    wire.ReadOK
	commitOK  wire.CommitOK
	certifyOK wire.CertifyOK
	prepareOK wire.PrepareTxnOK
	decideOK  wire.DecideTxnOK
	resolveOK wire.ResolveTxnOK
	// records is the FetchSince reply; it holds at most one replyBudget
	// of writesets until the next fetch refills it. since is the scratch
	// the host's log is read into, cleared once the reply is built.
	records wire.Records
	since   []certifier.Record
}

// snapshotStream is a pinned snapshot being streamed in chunks over
// one connection. The whole state was captured consistently at
// Version; chunking only bounds frame sizes.
type snapshotStream struct {
	version int64
	tables  []wire.TableSnap // remaining contents, consumed front to back
}

// replyBudget bounds the approximate payload of one SnapshotOK chunk
// or Records reply, comfortably under wire.MaxFrame, so join state
// transfer and catch-up work for databases and backlogs of any size (a
// single row or record larger than the remaining budget still goes out
// alone and is only limited by MaxFrame).
const replyBudget = 4 << 20

// capRecords trims a FetchSince reply to the records that fit the
// reply budget; the fetcher asks again from the last one it applied.
func capRecords(recs []certifier.Record) []certifier.Record {
	budget := replyBudget
	for i, r := range recs {
		budget -= 16 + r.Writeset.Bytes()
		if budget < 0 && i > 0 {
			return recs[:i]
		}
	}
	return recs
}

// next builds the next chunk, removing what it takes. More is set
// while contents remain.
func (ss *snapshotStream) next() *wire.SnapshotOK {
	reply := &wire.SnapshotOK{Version: ss.version}
	budget := replyBudget
	for budget > 0 && len(ss.tables) > 0 {
		t := &ss.tables[0]
		take := 0
		for take < len(t.Rows) && budget > 0 {
			budget -= 16 + len(t.Values[take])
			take++
		}
		reply.Tables = append(reply.Tables, wire.TableSnap{
			Name:   t.Name,
			Rows:   t.Rows[:take],
			Values: t.Values[:take],
		})
		budget -= len(t.Name) + 8
		if take == len(t.Rows) {
			ss.tables = ss.tables[1:]
		} else {
			t.Rows = t.Rows[take:]
			t.Values = t.Values[take:]
		}
	}
	reply.More = len(ss.tables) > 0
	return reply
}

// handleConn runs the Hello handshake, then serves one request at
// a time; the connection owns at most one open transaction, which is
// aborted if the connection dies.
func (s *Server) handleConn(nc net.Conn) {
	wc := wire.NewConn(nc)
	_ = nc.SetReadDeadline(time.Now().Add(idleTimeout))
	msg, err := wc.Recv()
	if err != nil {
		return
	}
	hello, ok := msg.(*wire.Hello)
	if !ok {
		_ = wc.Send(&wire.Err{Code: wire.CodeBadRequest, Msg: "expected Hello"})
		return
	}
	if hello.Proto != wire.ProtoVersion {
		_ = wc.Send(&wire.Err{Code: wire.CodeBadRequest,
			Msg: fmt.Sprintf("protocol version %d not supported (want %d)", hello.Proto, wire.ProtoVersion)})
		return
	}
	if err := wc.Send(&wire.HelloOK{Proto: wire.ProtoVersion, Design: s.opts.Design, ID: int64(s.opts.ID)}); err != nil {
		return
	}

	// Peer links announce their replica id; that keys their
	// propagation cursor so reconnects collapse onto one cursor.
	// Ordinary clients (PeerID < 0) get a unique negative key the
	// cursor tracking ignores.
	peer := hello.PeerID
	if peer < 0 {
		peer = -s.connID.Add(1)
	}
	st := &connState{peer: peer}
	defer s.eng.peerGone(peer)
	defer func() {
		if st.cur != nil {
			st.cur.Abort()
			s.m.activeTxns.Add(-1)
		}
	}()
	for {
		_ = nc.SetReadDeadline(time.Now().Add(idleTimeout))
		msg, err := wc.Recv()
		if err != nil {
			return
		}
		reply := s.dispatch(st, msg)
		if err := wc.Send(reply); err != nil {
			return
		}
	}
}

// maxFetchWait and maxSyncWait cap client-requested long polls and
// catch-up waits so a hostile or buggy peer cannot park a connection
// goroutine for arbitrarily long.
const (
	maxFetchWait = 5 * time.Second
	maxSyncWait  = 8 * time.Second
)

// syncThrough serves Sync. Without a target it pulls once: everything
// committed so far. With one it pulls only while this node has applied
// less, until it gets there or the wait (capped at maxSyncWait) ends. A
// pull long-polls the primary when nothing is new; one that fails fast
// (primary unreachable) is retried after the same window, not in a
// tight loop.
func (s *Server) syncThrough(through int64, wait time.Duration) {
	if through <= 0 {
		s.eng.sync()
		return
	}
	deadline := time.Now().Add(min(wait, maxSyncWait))
	for prev := s.eng.applied(); prev < through && time.Now().Before(deadline); {
		s.eng.sync()
		if cur := s.eng.applied(); cur > prev {
			prev = cur
		} else {
			time.Sleep(syncLongPoll)
		}
	}
}

// newTraceID mints a nonzero random cross-node trace id. 64 random
// bits collide with ~10^-9 probability at a million concurrent
// transactions — good enough for an observability correlator, which
// only ever groups spans for display.
func newTraceID() uint64 {
	for {
		if id := rand.Uint64(); id != 0 {
			return id
		}
	}
}

// dispatch executes one request against the node engine and builds
// the reply. st carries the connection's cursor key (the announced
// replica id for peer links, a negative value for clients) and open
// transaction slot.
func (s *Server) dispatch(st *connState, msg wire.Message) wire.Message {
	switch m := msg.(type) {
	case *wire.Begin:
		if st.cur != nil {
			return &wire.Err{Code: wire.CodeBadRequest, Msg: "transaction already open on this connection"}
		}
		if s.draining.Load() {
			return &wire.Err{Code: wire.CodeDraining, Msg: "replica is draining for departure"}
		}
		if err := s.eng.begin(m.ReadOnly, &st.tx); err != nil {
			return s.errReply(err)
		}
		st.cur = &st.tx
		st.readOnly = m.ReadOnly
		st.txStart = time.Now()
		s.m.activeTxns.Add(1)
		// Cross-node trace id: adopt the client's when it pre-assigned
		// one, otherwise mint one here so the id exists even for
		// untraced clients. Read-only transactions never certify or
		// propagate, so they carry no id.
		trace := m.Trace
		if !m.ReadOnly && s.m.tracer != nil {
			if trace == 0 {
				trace = newTraceID()
			}
			st.tx.trace = trace
		}
		st.beginOK = wire.BeginOK{Applied: s.eng.applied(), Trace: trace}
		return &st.beginOK

	case *wire.Read:
		if st.cur == nil {
			return noTxn()
		}
		value, ok, err := st.cur.Read(m.Table, m.Row)
		if err != nil {
			return s.errReply(err)
		}
		st.readOK = wire.ReadOK{OK: ok, Value: value}
		return &st.readOK

	case *wire.Write:
		if st.cur == nil {
			return noTxn()
		}
		if err := st.cur.Write(m.Table, m.Row, m.Value); err != nil {
			return s.errReply(err)
		}
		return &wire.WriteOK{}

	case *wire.Delete:
		if st.cur == nil {
			return noTxn()
		}
		if err := st.cur.Delete(m.Table, m.Row); err != nil {
			return s.errReply(err)
		}
		return &wire.WriteOK{}

	case *wire.Commit:
		if st.cur == nil {
			return noTxn()
		}
		cur := st.cur
		err := cur.Commit()
		st.cur = nil
		s.m.activeTxns.Add(-1)
		switch {
		case err == nil:
			s.m.commits.Add(1)
			s.m.observeTxn(st.readOnly, time.Since(st.txStart))
			// Ack stamp: certification verdict to the client-visible
			// commit acknowledgement.
			s.m.tracer.Ack(cur.version, time.Now())
			st.commitOK = wire.CommitOK{Applied: s.eng.applied()}
			return &st.commitOK
		case errors.Is(err, repl.ErrAborted):
			s.m.aborts.Add(1)
			return &wire.CommitAborted{ConflictWith: repl.ConflictWith(err)}
		default:
			reply := s.errReply(err)
			if _, redirect := reply.(*wire.NotLeader); !redirect {
				// The commit failed without a verdict: the client must
				// treat the outcome as unknown (a redirect is counted
				// separately — the new leader still decides it).
				s.m.unknownOutcomes.Inc()
			}
			return reply
		}

	case *wire.Abort:
		if st.cur != nil {
			st.cur.Abort()
			st.cur = nil
			s.m.activeTxns.Add(-1)
		}
		return &wire.AbortOK{}

	case *wire.Sync:
		s.syncThrough(m.Through, time.Duration(m.WaitMillis)*time.Millisecond)
		return &wire.SyncOK{Applied: s.eng.applied()}

	case *wire.CreateTable:
		if err := s.eng.createTable(m.Name); err != nil {
			return s.errReply(err)
		}
		return &wire.CreateTableOK{}

	case *wire.Load:
		// One record per chunk whatever the frame's size, so every
		// record fits a FetchSince reply; a client's chunk is one
		// chunk here too.
		err := repl.Chunks(m.Rows, m.Values, func(rows []int64, values []string) error {
			return s.eng.loadChunk(m.Table, rows, values)
		})
		if err != nil {
			return s.errReply(err)
		}
		return &wire.LoadOK{}

	case *wire.Dump:
		rows, err := s.eng.dump(m.Table)
		if err != nil {
			return s.errReply(err)
		}
		reply := &wire.DumpOK{Rows: make([]int64, 0, len(rows)), Values: make([]string, 0, len(rows))}
		for r, v := range rows {
			reply.Rows = append(reply.Rows, r)
			reply.Values = append(reply.Values, v)
		}
		return reply

	case *wire.FetchSince:
		wait := time.Duration(m.WaitMillis) * time.Millisecond
		if wait > maxFetchWait {
			wait = maxFetchWait
		}
		recs, err := s.eng.fetchSince(st.peer, m.Version, wait, st.since[:0])
		if err != nil {
			return s.errReply(err)
		}
		clear(st.records.Recs)
		st.records = wire.Records{Recs: st.records.Recs[:0]}
		for _, r := range capRecords(recs) {
			trace, commitNs := s.m.tracer.CommitMeta(r.Version)
			st.records.Recs = append(st.records.Recs, wire.Record{Version: r.Version, WS: r.Writeset, Trace: trace, CommitNs: commitNs})
		}
		clear(recs)
		st.since = recs[:0]
		return &st.records

	case *wire.Stats:
		reply := s.m.statsOK(s.eng)
		reply.ShardID = int64(s.opts.ShardID)
		return reply

	case *wire.Certify:
		out, err := s.eng.certify(m.Snapshot, m.WS, m.Trace)
		if err != nil {
			return s.errReply(err)
		}
		st.certifyOK = wire.CertifyOK{Committed: out.Committed, Version: out.Version, ConflictWith: out.ConflictWith}
		return &st.certifyOK

	case *wire.Check:
		conflict, with, err := s.eng.check(m.Snapshot, m.WS)
		if err != nil {
			return s.errReply(err)
		}
		return &wire.CheckOK{Conflict: conflict, With: with}

	case *wire.PrepareTxn:
		// Two forms. With a transaction open on this connection the verb
		// prepares THAT transaction as one fragment of cross-shard txn
		// m.TxnID — the server already holds its snapshot and writeset,
		// so the frame carries neither (the sharded client's path).
		// Without one it is a raw fragment prepare carrying both, used
		// by coordinator recovery and peer forwarding.
		if st.cur != nil {
			// Prepare consumes the transaction either way: a yes-vote
			// fragment lives on in the certifier, not on this conn.
			vote, with, err := st.cur.Prepare(m.TxnID, m.Coord)
			st.cur = nil
			s.m.activeTxns.Add(-1)
			if err != nil {
				return s.errReply(err)
			}
			st.prepareOK = wire.PrepareTxnOK{Vote: vote, ConflictWith: with}
			return &st.prepareOK
		}
		vote, with, err := s.eng.prepareTxn(certifier.PreparedTxn{
			ID: m.TxnID, Coord: m.Coord, Snapshot: m.Snapshot, Writeset: m.WS,
		})
		if err != nil {
			return s.errReply(err)
		}
		st.prepareOK = wire.PrepareTxnOK{Vote: vote, ConflictWith: with}
		return &st.prepareOK

	case *wire.DecideTxn:
		version, err := s.eng.decideTxn(m.TxnID, m.Commit, m.Retire)
		if err != nil {
			return s.errReply(err)
		}
		st.decideOK = wire.DecideTxnOK{Version: version}
		return &st.decideOK

	case *wire.ResolveTxn:
		commit, err := s.eng.resolveTxn(m.TxnID)
		if err != nil {
			return s.errReply(err)
		}
		st.resolveOK = wire.ResolveTxnOK{Commit: commit}
		return &st.resolveOK

	case *wire.ForgetTxn:
		if err := s.eng.forgetTxn(m.IDs); err != nil {
			return s.errReply(err)
		}
		return &wire.ForgetTxnOK{}

	case *wire.PaxosPrepare:
		rep, err := s.eng.paxosPrepare(paxos.Ballot{Round: int(m.Round), Proposer: int(m.Proposer)}, int(m.From))
		if err != nil {
			return s.errReply(err)
		}
		ok := &wire.PaxosPrepareOK{
			OK:               rep.OK,
			PromisedRound:    int64(rep.Promised.Round),
			PromisedProposer: int64(rep.Promised.Proposer),
			Votes:            make([]wire.PaxosVote, len(rep.Votes)),
			More:             rep.More,
		}
		for i, v := range rep.Votes {
			ok.Votes[i] = wire.PaxosVote{Slot: int64(v.Slot), Round: int64(v.Ballot.Round),
				Proposer: int64(v.Ballot.Proposer), Value: string(v.Value)}
		}
		return ok

	case *wire.PaxosAccept:
		rep, err := s.eng.paxosAccept(paxos.Ballot{Round: int(m.Round), Proposer: int(m.Proposer)}, int(m.Slot), paxos.Value(m.Value))
		if err != nil {
			return s.errReply(err)
		}
		return &wire.PaxosAcceptOK{
			OK:               rep.OK,
			PromisedRound:    int64(rep.Promised.Round),
			PromisedProposer: int64(rep.Promised.Proposer),
		}

	case *wire.Join:
		jo, err := s.eng.join(m.Addr)
		if err != nil {
			return s.errReply(err)
		}
		s.stampShard(&jo.ShardID, &jo.ShardCount, &jo.MapVersion)
		return jo

	case *wire.Leave:
		if err := s.eng.leave(m.ID); err != nil {
			return s.errReply(err)
		}
		return &wire.LeaveOK{}

	case *wire.Members:
		epoch, members, err := s.eng.members()
		if err != nil {
			return s.errReply(err)
		}
		reply := &wire.MembersOK{Epoch: epoch, Members: members}
		s.stampShard(&reply.ShardID, &reply.ShardCount, &reply.MapVersion)
		return reply

	case *wire.SnapshotReq:
		s.eng.touch(st.peer) // a chunk request is liveness proof mid-transfer
		if st.snap == nil {
			version, tables, err := s.eng.snapshot()
			if err != nil {
				return s.errReply(err)
			}
			stream := &snapshotStream{version: version}
			names := make([]string, 0, len(tables))
			for name := range tables {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				rows := tables[name]
				ts := wire.TableSnap{Name: name, Rows: make([]int64, 0, len(rows)), Values: make([]string, 0, len(rows))}
				for r, v := range rows {
					ts.Rows = append(ts.Rows, r)
					ts.Values = append(ts.Values, v)
				}
				stream.tables = append(stream.tables, ts)
			}
			st.snap = stream
		}
		reply := st.snap.next()
		if !reply.More {
			st.snap = nil
		}
		return reply

	default:
		return unexpected(msg)
	}
}

// stampShard writes this group's place in the shard map onto a
// membership reply. Unsharded deployments (ShardCount <= 1 and no
// explicit id) publish all-zero fields.
func (s *Server) stampShard(id, count, mapv *int64) {
	if s.opts.ShardCount <= 1 && s.opts.ShardID == 0 {
		return
	}
	*id = int64(s.opts.ShardID)
	*count = int64(s.opts.ShardCount)
	*mapv = shardMapVersion
}

func unexpected(msg wire.Message) wire.Message {
	return &wire.Err{Code: wire.CodeBadRequest, Msg: fmt.Sprintf("unexpected message %T", msg)}
}

func noTxn() wire.Message {
	return &wire.Err{Code: wire.CodeBadRequest, Msg: "no transaction open on this connection"}
}

// errReply maps engine errors onto the wire, turning not-leader errors
// into structured NotLeader redirects (with the leader's address when
// this node knows it).
func (s *Server) errReply(err error) wire.Message {
	var cnl certifier.NotLeaderError
	var lnl client.NotLeaderError
	switch {
	case errors.As(err, &cnl):
		return s.notLeaderReply(cnl.Leader, int64(cnl.Epoch.Round))
	case errors.As(err, &lnl):
		// A backup relaying through the ring saw a redirect itself;
		// forward it so the client re-aims at the same place.
		return s.notLeaderReply(lnl.Leader, lnl.Epoch)
	case errors.Is(err, client.ErrNoLeader):
		// The relay ran out its redirect budget mid-election: there is
		// no leader to name, but the failure is a leadership gap, not
		// an internal fault — redirect with the leader unknown so a
		// commit caught in the gap counts as unknown-outcome.
		return s.notLeaderReply(-1, 0)
	case errors.As(err, new(*repl.UnknownOutcomeError)):
		// The relay lost the host's answer to a request it may have
		// acted on. A client reads a NotLeader naming no leader at
		// commit or prepare as an unknown outcome; its epoch is the term
		// this node last saw (0 without Paxos).
		epoch, _ := s.eng.epochInfo()
		return s.notLeaderReply(-1, epoch)
	case errors.Is(err, repl.ErrAborted):
		return &wire.CommitAborted{ConflictWith: repl.ConflictWith(err)}
	case errors.Is(err, repl.ErrReadOnlyTxn):
		return &wire.Err{Code: wire.CodeReadOnly, Msg: err.Error()}
	case errors.Is(err, sidb.ErrNoTable):
		return &wire.Err{Code: wire.CodeNoTable, Msg: err.Error()}
	case errors.Is(err, errUnsupported):
		return &wire.Err{Code: wire.CodeUnsupported, Msg: err.Error()}
	default:
		return &wire.Err{Code: wire.CodeInternal, Msg: err.Error()}
	}
}

func (s *Server) notLeaderReply(leader int, epoch int64) wire.Message {
	s.m.notLeaderRedirects.Inc()
	return &wire.NotLeader{Leader: int64(leader), Epoch: epoch, Addr: s.eng.leaderAddr(leader)}
}
