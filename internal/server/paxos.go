package server

import (
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/certifier"
	"repro/internal/client"
	"repro/internal/obs/events"
	"repro/internal/paxos"
	"repro/internal/wal"
)

// paxosNode is the replicated-certification state of one server, under
// either design: the Paxos acceptor this process hosts (durable in the
// node's WAL when it runs one) and the wire transport to its peers'
// acceptors. Who leads is read from the acceptor's promise
// (engine.leaderView). term is the proposer of the last term this node
// won, stored before the host role it backs; it is nil until then.
type paxosNode struct {
	id         int
	peerIDs    []int
	addrs      []string // indexed by paxos id
	electAfter time.Duration

	acc  *paxos.Acceptor
	tr   *client.PaxosTransport
	term atomic.Pointer[paxos.Proposer]
}

// newPaxosNode builds this node's acceptor — persisting into w and
// restored from rec, its replay, when the node runs a WAL (w nil:
// volatile); the transport reaches the peers over ring's links.
func newPaxosNode(opts Options, ring *client.LeaderRing, w *wal.WAL, rec *wal.Recovered) *paxosNode {
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
	if w != nil {
		px.acc = paxos.RestoreAcceptor(opts.ID, w, rec.Promised, rec.Votes)
	} else {
		px.acc = paxos.NewAcceptor(opts.ID)
	}
	px.tr = client.NewPaxosTransport(opts.ID, px.acc, ring, px.addrs)
	return px
}

func (px *paxosNode) addrOf(id int) string {
	if id < 0 || id >= len(px.addrs) {
		return ""
	}
	return px.addrs[id]
}

// --- engine: replicated-certification role machinery ---

// promoteSelf campaigns for leadership: it elects this node's
// proposer, rebuilds the certifier from the recovered quorum log and
// installs the host role. The certifier logs through the term's
// proposer — the acceptors' votes are its log, and the apply path
// journals what the database installs. On success every in-flight and
// future certification on this node is served locally; the old
// leader, if it still runs, is fenced by the new epoch.
func (e *engine) promoteSelf() error {
	cert, term, err := certifier.Promote(e.px.id, e.px.peerIDs, e.px.tr)
	if err != nil {
		return err
	}
	e.px.term.Store(term)
	e.host.Store(e.newHost(cert))
	epoch := term.CurrentBallot()
	e.m.events.Emit(events.LeaderElected,
		fmt.Sprintf("won certifier election at epoch round %d", epoch.Round),
		map[string]string{"epoch": strconv.Itoa(epoch.Round)})
	return nil
}

// leaderView reports this node's view of the replicated certifier.
// While it hosts the certifier it leads, at its term's epoch, until
// the role loop steps it down. Otherwise its epoch is its
// acceptor's promise — every campaign that won through this node
// promised there, and a leader's accepts raise the promise of every
// acceptor they reach — and its leader guess is that epoch's proposer,
// or -1 when the acceptor never promised, or when the epoch is this
// node's own: its campaign lost or its term ended.
func (e *engine) leaderView() (leading bool, leader int, epoch paxos.Ballot) {
	if e.hostCert() != nil {
		return true, e.px.id, e.px.term.Load().CurrentBallot()
	}
	epoch = e.px.acc.Promised()
	leader = epoch.Proposer
	if epoch == (paxos.Ballot{}) || leader == e.px.id {
		leader = -1
	}
	return false, leader, epoch
}

// stepDownIfEnded demotes this leader to a backup once its term is
// over: its term's proposer reports the term ended — a higher ballot
// deposed it, or a proposal missed its majority — or a higher promise
// on our own acceptor shows a newer epoch campaigned through us, so
// it steps down without waiting to trip over a propose. The host role
// is dropped, the commit path goes back through the ring, and the
// election timer restarts. A deposing ballot points the ring at its
// node; a term that ended at a missed majority names no leader, and
// the ring keeps its guess. Any call still racing into the old host
// gets NotLeaderError from the proposer, whose term is over — never
// an ack.
func (e *engine) stepDownIfEnded() bool {
	term := e.px.term.Load()
	by, ended := term.TermEnded()
	if promised := e.px.acc.Promised(); by == (paxos.Ballot{}) && term.CurrentBallot().Less(promised) {
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
