package client

import (
	"fmt"
	"sync"

	"repro/internal/paxos"
)

// PaxosTransport is the production paxos.Transport: it delivers
// acceptor calls over the wire protocol's Paxos frames to the
// acceptors embedded in each replica server. Calls addressed to the
// local node short-circuit to the in-process acceptor — the leader's
// own vote never crosses the network, so a single-node quorum check
// or the common fast path costs no RPC.
//
// Peers may be registered and replaced at runtime (the membership
// protocol can move a peer's address); an unregistered peer is
// unreachable, which Paxos tolerates by construction.
type PaxosTransport struct {
	self  int
	local *paxos.Acceptor

	mu    sync.Mutex
	links map[int]*Link
}

// NewPaxosTransport creates a transport for node self whose local
// acceptor is served in-process.
func NewPaxosTransport(self int, local *paxos.Acceptor) *PaxosTransport {
	return &PaxosTransport{self: self, local: local, links: make(map[int]*Link)}
}

// SetPeer registers (or replaces) the link used to reach node id's
// embedded acceptor. A nil link unregisters the peer.
func (t *PaxosTransport) SetPeer(id int, l *Link) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if l == nil {
		delete(t.links, id)
		return
	}
	t.links[id] = l
}

// Close closes every registered peer link.
func (t *PaxosTransport) Close() {
	t.mu.Lock()
	links := make([]*Link, 0, len(t.links))
	for _, l := range t.links {
		links = append(links, l)
	}
	t.links = make(map[int]*Link)
	t.mu.Unlock()
	for _, l := range links {
		l.Close()
	}
}

func (t *PaxosTransport) peer(to int) (*Link, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	l, ok := t.links[to]
	if !ok {
		return nil, fmt.Errorf("%w: no link to node %d", paxos.ErrUnreachable, to)
	}
	return l, nil
}

// Prepare implements paxos.Transport.
func (t *PaxosTransport) Prepare(to int, b paxos.Ballot, slot int) (paxos.PrepareReply, error) {
	if to == t.self {
		return t.local.Prepare(b, slot)
	}
	l, err := t.peer(to)
	if err != nil {
		return paxos.PrepareReply{}, err
	}
	rep, err := l.PaxosPrepare(b, slot)
	if err != nil {
		return paxos.PrepareReply{}, fmt.Errorf("%w: node %d: %v", paxos.ErrUnreachable, to, err)
	}
	return rep, nil
}

// Accept implements paxos.Transport.
func (t *PaxosTransport) Accept(to int, b paxos.Ballot, slot int, v paxos.Value) (paxos.AcceptReply, error) {
	if to == t.self {
		return t.local.Accept(b, slot, v)
	}
	l, err := t.peer(to)
	if err != nil {
		return paxos.AcceptReply{}, err
	}
	rep, err := l.PaxosAccept(b, slot, v)
	if err != nil {
		return paxos.AcceptReply{}, fmt.Errorf("%w: node %d: %v", paxos.ErrUnreachable, to, err)
	}
	return rep, nil
}

// Learn implements paxos.Transport.
func (t *PaxosTransport) Learn(to int) (paxos.LearnReply, error) {
	if to == t.self {
		maxSlot, promised := t.local.Status()
		return paxos.LearnReply{MaxSlot: maxSlot, Promised: promised}, nil
	}
	l, err := t.peer(to)
	if err != nil {
		return paxos.LearnReply{}, err
	}
	rep, err := l.PaxosLearn()
	if err != nil {
		return paxos.LearnReply{}, fmt.Errorf("%w: node %d: %v", paxos.ErrUnreachable, to, err)
	}
	return rep, nil
}
