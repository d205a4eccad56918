package client

import (
	"fmt"

	"repro/internal/paxos"
)

// PaxosTransport is the production paxos.Transport: it delivers
// acceptor calls over the wire protocol's Paxos frames to the
// acceptors embedded in each replica server. Calls addressed to the
// local node short-circuit to the in-process acceptor — the leader's
// own vote never crosses the network, so a single-node quorum check
// or the common fast path costs no RPC.
//
// It owns no connection: a peer is reached over the node's LeaderRing's
// link to the peer's address, so a node dials each peer once for
// certification, catch-up and Paxos alike. A peer with no address, or
// any peer once the ring is closed, is unreachable, which Paxos
// tolerates by construction.
type PaxosTransport struct {
	self  int
	local *paxos.Acceptor
	ring  *LeaderRing
	addrs []string // indexed by paxos id
}

// NewPaxosTransport creates a transport for node self whose local
// acceptor is served in-process and whose peer id reaches addrs[id]
// through ring.
func NewPaxosTransport(self int, local *paxos.Acceptor, ring *LeaderRing, addrs []string) *PaxosTransport {
	return &PaxosTransport{self: self, local: local, ring: ring, addrs: addrs}
}

func (t *PaxosTransport) peer(to int) (*Link, error) {
	if to >= 0 && to < len(t.addrs) && t.addrs[to] != "" {
		if l := t.ring.Link(t.addrs[to]); l != nil {
			return l, nil
		}
	}
	return nil, fmt.Errorf("%w: no link to node %d", paxos.ErrUnreachable, to)
}

// Prepare implements paxos.Transport.
func (t *PaxosTransport) Prepare(to int, b paxos.Ballot, from int) (paxos.PrepareReply, error) {
	if to == t.self {
		return t.local.Prepare(b, from)
	}
	l, err := t.peer(to)
	if err != nil {
		return paxos.PrepareReply{}, err
	}
	rep, err := l.PaxosPrepare(b, from)
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
