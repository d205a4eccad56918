package server

import (
	"net"
	"testing"
	"time"

	"repro/internal/paxos"
)

// TestPaxosNodeDialsEachPeerOnce: a member of a three-node Paxos group
// holds one connection pool per peer address. Its transport's acceptor
// calls ride the same link its ring reaches that peer over, so a
// Prepare sent to a peer counts one round trip on the ring's link to
// it.
func TestPaxosNodeDialsEachPeerOnce(t *testing.T) {
	const n = 3
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	servers := make([]*Server, n)
	for i := range servers {
		s, err := New(Options{
			Design:       "mm",
			ID:           i,
			Listen:       addrs[i],
			Members:      addrs,
			Paxos:        true,
			ElectTimeout: 200 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		s.Start()
		t.Cleanup(func() { s.Close() })
		servers[i] = s
	}
	var lead *Server
	for deadline := time.Now().Add(10 * time.Second); lead == nil; {
		if time.Now().After(deadline) {
			t.Fatal("no certifier leader elected within 10s")
		}
		for _, s := range servers {
			if leading, _, _, _ := s.Leader(); leading {
				lead = s
			}
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The leader serves from its own certifier, so nothing but this
	// test uses its ring's links.
	e := lead.eng
	for peer, addr := range addrs {
		if peer == e.px.id {
			continue
		}
		e.ring.Point(addr)
		l, err := e.ring.Leader()
		if err != nil {
			t.Fatal(err)
		}
		base := l.RoundTrips()
		if _, err := e.px.tr.Prepare(peer, paxos.Ballot{}, 0); err != nil {
			t.Fatalf("prepare at peer %d: %v", peer, err)
		}
		if got := l.RoundTrips() - base; got != 1 {
			t.Fatalf("a Prepare to peer %d made %d round trips on the ring's link to %s, want 1: the transport dials the peer on a pool of its own", peer, got, addr)
		}
	}
}
