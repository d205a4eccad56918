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
)

// paxosNode is the replicated-certification state of one server, under
// either design: the Paxos acceptor this process hosts (durable under
// the WAL directory when the node runs one), the wire transport to its
// peers' acceptors, and its current view of who leads.
type paxosNode struct {
	id         int
	peerIDs    []int
	addrs      []string // indexed by paxos id
	electAfter time.Duration

	acc   *paxos.Acceptor
	store *paxoslog.Store // nil when the acceptor is volatile
	tr    *client.PaxosTransport

	mu      sync.Mutex
	leading bool
	leader  int // best guess of the current leader id, -1 unknown
	epoch   paxos.Ballot
}

// newPaxosNode opens this node's acceptor (restored from its durable
// store when a WAL directory is configured); the transport reaches the
// peers over ring's links.
func newPaxosNode(opts Options, ring *client.LeaderRing) (*paxosNode, error) {
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
	px.tr = client.NewPaxosTransport(opts.ID, px.acc, ring, px.addrs)
	return px, nil
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
	e.px.setLeading(epoch)
	e.m.events.Emit(events.LeaderElected,
		fmt.Sprintf("won certifier election at epoch round %d", epoch.Round),
		map[string]string{"epoch": strconv.Itoa(epoch.Round)})
	return nil
}

// stepDown demotes a deposed leader to a backup: the host role is
// dropped, the commit path goes back through the ring (pointed at the
// deposing node), and the election timer restarts. Any call still
// racing into the old host gets NotLeaderError from the deposed
// proposer — never an ack.
func (e *engine) stepDown(by paxos.Ballot) {
	e.host.Store(nil)
	e.px.setFollower(by.Proposer, by)
	if addr := e.px.addrOf(by.Proposer); addr != "" {
		e.ring.Point(addr)
	}
	e.m.events.Emit(events.LeaderLost,
		fmt.Sprintf("stepped down, deposed by node %d at epoch round %d", by.Proposer, by.Round),
		map[string]string{"epoch": strconv.Itoa(by.Round), "deposed_by": strconv.Itoa(by.Proposer)})
}

// stepDownIfDeposed demotes this leader when a newer epoch exists: its
// proposer was preempted, or a higher promise on our own
// acceptor shows a newer epoch campaigned through us — step down
// without waiting to trip over a propose.
func (e *engine) stepDownIfDeposed(h *pipeline.HostCert) bool {
	if by, ok := h.Base.Deposed(); ok {
		e.stepDown(by)
		return true
	}
	if promised := e.px.acc.Promised(); h.Base.Epoch().Less(promised) {
		e.stepDown(promised)
		return true
	}
	return false
}
