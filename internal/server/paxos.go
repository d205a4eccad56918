package server

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/certifier"
	"repro/internal/client"
	"repro/internal/obs/events"
	"repro/internal/paxos"
	"repro/internal/paxoslog"
	"repro/internal/repl/pipeline"
	"repro/internal/wal"
)

// paxosNode is the replicated-certification state of one server, under
// either design: the Paxos acceptor this process hosts (durable under
// the WAL directory when the node runs one) and the wire transport to
// its peers' acceptors. Who leads is read from the acceptor's promise
// (engine.leaderView).
type paxosNode struct {
	id         int
	peerIDs    []int
	addrs      []string // indexed by paxos id
	electAfter time.Duration

	acc   *paxos.Acceptor
	store *paxoslog.Store // nil when the acceptor is volatile
	tr    *client.PaxosTransport
}

// newPaxosNode opens this node's acceptor (restored from its durable
// store when a WAL directory is configured); the transport reaches the
// peers over ring's links.
func newPaxosNode(opts Options, ring *client.LeaderRing) (*paxosNode, error) {
	n := len(opts.Members)
	px := &paxosNode{
		id:    opts.ID,
		addrs: append([]string(nil), opts.Members...),
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
	px.tr = client.NewPaxosTransport(opts.ID, px.acc, ring, px.addrs)
	return px, nil
}

func (px *paxosNode) close() {
	if px.store != nil {
		px.store.Close()
	}
}

func (px *paxosNode) addrOf(id int) string {
	if id < 0 || id >= len(px.addrs) {
		return ""
	}
	return px.addrs[id]
}

// --- engine: replicated-certification role machinery ---

// promoteSelf campaigns for leadership: it elects this node's
// proposer, rebuilds the certifier from the recovered quorum log,
// re-attaches the local journal as a restart cache, and installs the
// host role. On success every in-flight and future certification on
// this node is served locally; the old leader, if it still runs, is
// fenced by the new epoch.
func (e *engine) promoteSelf() error {
	cert, epoch, err := certifier.Promote(e.px.id, e.px.peerIDs, e.px.tr)
	if err != nil {
		return err
	}
	if e.dur != nil {
		// Install the recovered log up to the certifier's version before
		// attaching the journal. The certifier journals only the versions
		// it certifies from here on; the ones below reach the log through
		// the apply path, and only while the log holds nothing above
		// them. Applying them first keeps the log one dense record
		// stream.
		e.ap.Apply(cert.Since(e.ap.Applied()))
		cert.SetJournal(e.dur.W)
	}
	e.host.Store(e.newHost(cert))
	e.m.events.Emit(events.LeaderElected,
		fmt.Sprintf("won certifier election at epoch round %d", epoch.Round),
		map[string]string{"epoch": strconv.Itoa(epoch.Round)})
	return nil
}

// leaderView reports this node's view of the replicated certifier.
// While it hosts the certifier it leads, at the hosted certifier's
// epoch, until the role loop steps it down. Otherwise its epoch is its
// acceptor's promise — every campaign that won through this node
// promised there, and a leader's accepts raise the promise of every
// acceptor they reach — and its leader guess is that epoch's proposer,
// or -1 when the acceptor never promised, or when the epoch is this
// node's own: its campaign lost or its term ended.
func (e *engine) leaderView() (leading bool, leader int, epoch paxos.Ballot) {
	if h := e.hostCert(); h != nil {
		return true, e.px.id, h.Base.Epoch()
	}
	epoch = e.px.acc.Promised()
	leader = epoch.Proposer
	if epoch == (paxos.Ballot{}) || leader == e.px.id {
		leader = -1
	}
	return false, leader, epoch
}

// stepDownIfEnded demotes this leader to a backup once its term is
// over: its proposer's term ended — a higher ballot deposed it, or a
// proposal missed its majority — or a higher promise on our own
// acceptor shows a newer epoch campaigned through us, so it steps down
// without waiting to trip over a propose. The host role is dropped,
// the commit path goes back through the ring, and the election timer
// restarts. A deposing ballot points the ring at its node; a term that
// ended at a missed majority names no leader, and the ring keeps its
// guess. Any call still racing into the old host gets NotLeaderError
// from the proposer, whose term is over — never an ack.
func (e *engine) stepDownIfEnded(h *pipeline.HostCert) bool {
	by, ended := h.Base.TermEnded()
	if promised := e.px.acc.Promised(); by == (paxos.Ballot{}) && h.Base.Epoch().Less(promised) {
		by, ended = promised, true
	}
	if !ended {
		return false
	}
	e.host.Store(nil)
	if by == (paxos.Ballot{}) {
		e.m.events.Emit(events.LeaderLost, "stepped down, a proposal missed its majority", nil)
		return true
	}
	if addr := e.px.addrOf(by.Proposer); addr != "" {
		e.ring.Point(addr)
	}
	e.m.events.Emit(events.LeaderLost,
		fmt.Sprintf("stepped down, deposed by node %d at epoch round %d", by.Proposer, by.Round),
		map[string]string{"epoch": strconv.Itoa(by.Round), "deposed_by": strconv.Itoa(by.Proposer)})
	return true
}
