package server

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/certifier"
	"repro/internal/client"
	"repro/internal/obs/events"
	"repro/internal/paxos"
	"repro/internal/paxoslog"
	"repro/internal/repl/pipeline"
	"repro/internal/wal"
	"repro/internal/writeset"
)

// switchCert routes the cluster's certification service to whichever
// role this node currently plays: the hosted replicated certifier
// while leading, a redirect-following LeaderRing while backing up.
// Role changes swap the inner service atomically; in-flight calls
// finish against the service they started on (a deposed host answers
// them with NotLeaderError, which is exactly the fencing contract).
type switchCert struct {
	mu  sync.RWMutex
	svc certService
}

func (s *switchCert) set(svc certService) {
	s.mu.Lock()
	s.svc = svc
	s.mu.Unlock()
}

func (s *switchCert) get() certService {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.svc
}

func (s *switchCert) CertifyTraced(snapshot int64, ws writeset.Writeset, trace uint64) (certifier.Outcome, error) {
	return s.get().CertifyTraced(snapshot, ws, trace)
}

func (s *switchCert) Check(snapshot int64, ws writeset.Writeset) (bool, int64) {
	return s.get().Check(snapshot, ws)
}

func (s *switchCert) Since(v int64) []certifier.Record { return s.get().Since(v) }

// paxosNode is the replicated-certification state of one mm server:
// the Paxos acceptor this process hosts (durable under the WAL
// directory when the node runs one), the wire transport to its peers'
// acceptors, the redirect-following ring it certifies through while a
// backup, and its current view of who leads.
type paxosNode struct {
	id         int
	peerIDs    []int
	addrs      []string // indexed by paxos id
	electAfter time.Duration

	acc   *paxos.Acceptor
	store *paxoslog.Store // nil when the acceptor is volatile
	tr    *client.PaxosTransport
	ring  *client.LeaderRing

	mu      sync.Mutex
	leading bool
	leader  int // best guess of the current leader id, -1 unknown
	epoch   paxos.Ballot
}

// newPaxosNode opens this node's acceptor (restored from its durable
// store when a WAL directory is configured) and dials the peer links.
func newPaxosNode(opts Options) (*paxosNode, error) {
	n := len(opts.Members)
	px := &paxosNode{
		id:     opts.ID,
		addrs:  append([]string(nil), opts.Members...),
		leader: -1,
		// Staggered election timeouts: lower ids campaign first, and
		// each successive id waits a full extra ElectTimeout, giving
		// the winner that long to serve its first ring request before
		// the next candidate's timer can fire. Concurrent elections
		// are therefore rare — and safe when they happen, since
		// ballots still totally order — but a duel deposes a fresh
		// leader and surfaces unknown-outcome commits to clients, so
		// the margin is deliberately generous.
		electAfter: opts.ElectTimeout + time.Duration(opts.ID)*opts.ElectTimeout,
	}
	for i := 0; i < n; i++ {
		px.peerIDs = append(px.peerIDs, i)
	}
	if opts.WALDir != "" {
		fsys, err := wal.DirFS(opts.WALDir)
		if err != nil {
			return nil, fmt.Errorf("server: paxos store: %w", err)
		}
		store, promised, slots, err := paxoslog.Open(fsys, opts.Fsync)
		if err != nil {
			return nil, fmt.Errorf("server: paxos store: %w", err)
		}
		px.store = store
		px.acc = paxos.RestoreAcceptor(opts.ID, store, promised, slots)
	} else {
		px.acc = paxos.NewAcceptor(opts.ID)
	}
	px.tr = client.NewPaxosTransport(opts.ID, px.acc)
	for i, addr := range px.addrs {
		if i == px.id || addr == "" {
			continue
		}
		px.tr.SetPeer(i, client.NewLink(addr, opts.Design, opts.ID, opts.DialTimeout))
	}
	px.ring = client.NewLeaderRing(px.addrs, opts.Design, opts.ID, opts.DialTimeout)
	return px, nil
}

func (px *paxosNode) disconnect() {
	px.tr.Close()
	px.ring.Close()
}

func (px *paxosNode) close() {
	if px.store != nil {
		px.store.Close()
	}
}

func (px *paxosNode) setLeading(epoch paxos.Ballot) {
	px.mu.Lock()
	px.leading, px.leader, px.epoch = true, px.id, epoch
	px.mu.Unlock()
}

func (px *paxosNode) setFollower(leader int, epoch paxos.Ballot) {
	px.mu.Lock()
	px.leading, px.leader = false, leader
	if px.epoch.Less(epoch) {
		px.epoch = epoch
	}
	px.mu.Unlock()
}

// view returns the node's current role and leader guess.
func (px *paxosNode) view() (leading bool, leader int, epoch paxos.Ballot) {
	px.mu.Lock()
	defer px.mu.Unlock()
	return px.leading, px.leader, px.epoch
}

// notLeaderErr builds the structured redirect a non-leader answers
// certification requests with.
func (px *paxosNode) notLeaderErr() error {
	_, leader, epoch := px.view()
	return certifier.NotLeaderError{Leader: leader, Epoch: epoch}
}

func (px *paxosNode) addrOf(id int) string {
	if id < 0 || id >= len(px.addrs) {
		return ""
	}
	return px.addrs[id]
}

// --- mmEngine: replicated-certification role machinery ---

// hostCert returns the currently hosted certification service, nil
// while this node is a backup. Without Paxos the host is fixed at
// construction and this is a plain read.
func (e *mmEngine) hostCert() *pipeline.HostCert {
	e.hostMu.RLock()
	defer e.hostMu.RUnlock()
	return e.host
}

// promoteSelf campaigns for leadership: it elects this node's fenced
// proposer, rebuilds the certifier from the recovered quorum log,
// re-attaches the local journal as a restart cache, and installs the
// host role. On success every in-flight and future certification on
// this node is served locally; the old leader, if it still runs, is
// fenced by the new epoch.
func (e *mmEngine) promoteSelf() error {
	cert, epoch, err := certifier.Promote(e.px.id, e.px.peerIDs, e.px.tr)
	if err != nil {
		return err
	}
	if e.dur != nil {
		cert.SetJournal(e.dur.W)
	}
	cert.SetStageObserver(e.m.tracer.CertStages())
	var batcher *certifier.Batcher
	if e.groupCommit {
		batcher = certifier.NewBatcher(cert, 0)
	}
	h := &pipeline.HostCert{Base: cert, Notify: pipeline.NewNotify(), Batcher: batcher, Observe: e.m.observeCert, Tracer: e.m.tracer}
	e.hostMu.Lock()
	e.host = h
	e.hostMu.Unlock()
	e.sw.set(h)
	e.px.setLeading(epoch)
	e.m.events.Emit(events.LeaderElected,
		fmt.Sprintf("won certifier election at epoch round %d", epoch.Round),
		map[string]string{"epoch": strconv.Itoa(epoch.Round)})
	return nil
}

// stepDown demotes a deposed leader to a backup: the host role is
// dropped, the commit path goes back through the ring (pointed at the
// deposing node), and the election timer restarts. Any call still
// racing into the old host gets NotLeaderError from the fenced
// proposer — never an ack.
func (e *mmEngine) stepDown(by paxos.Ballot) {
	e.hostMu.Lock()
	e.host = nil
	e.hostMu.Unlock()
	e.sw.set(&remoteCert{svc: e.px.ring, m: e.m, t: e.m.tracer})
	e.px.setFollower(by.Proposer, by)
	if addr := e.px.addrOf(by.Proposer); addr != "" {
		e.px.ring.Point(addr)
	}
	e.m.events.Emit(events.LeaderLost,
		fmt.Sprintf("stepped down, deposed by node %d at epoch round %d", by.Proposer, by.Round),
		map[string]string{"epoch": strconv.Itoa(by.Round), "deposed_by": strconv.Itoa(by.Proposer)})
}

// runPaxos is the role loop of a Paxos-enabled node: leaders apply
// their log and watch for deposal, backups pull from the leader and
// campaign after electAfter without progress. Node 0's first campaign
// fires immediately, which is what elects a leader on a cold cluster.
func (e *mmEngine) runPaxos(stop <-chan struct{}) {
	last := time.Now()
	if e.px.id == 0 {
		last = last.Add(-e.px.electAfter)
	}
	for {
		select {
		case <-stop:
			return
		default:
		}
		if h := e.hostCert(); h != nil {
			if by, ok := h.Base.Deposed(); ok {
				e.stepDown(by)
				last = time.Now()
				continue
			}
			// A higher promise on our own acceptor means a newer epoch
			// campaigned through us: step down without waiting to trip
			// over a propose.
			if _, promised := e.px.acc.Status(); h.Base.Epoch().Less(promised) {
				e.stepDown(promised)
				last = time.Now()
				continue
			}
			h.Notify.WaitBeyond(e.applied(), pollInterval, stop)
			e.catchUp()
			if e.dur != nil {
				e.noteApplied()
				e.maybeCompactDurable()
			}
			e.evictStale()
			continue
		}
		// Backup: long-poll the leader for writesets. Any successful
		// round trip counts as leader progress.
		recs, err := e.px.ring.FetchSince(e.applied(), pollInterval)
		if err == nil {
			if len(recs) > 0 {
				e.ingest(recs)
				e.maybeCompactDurable()
			}
			last = time.Now()
			continue
		}
		if time.Since(last) >= e.px.electAfter {
			if err := e.promoteSelf(); err == nil {
				continue
			}
			// Campaign failed (no majority yet): restart the timer so a
			// partitioned minority node does not spin on elections.
			last = time.Now()
			continue
		}
		select {
		case <-stop:
			return
		case <-time.After(50 * time.Millisecond):
		}
	}
}
