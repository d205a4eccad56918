package client

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"

	"repro/internal/wire"
	"repro/internal/writeset"
)

// TestFollowerPolicy runs one redirect table through both callers of
// the follower — the pooled Client (a host request, as a 2PC decide
// sends it) and a replica's LeaderRing (a commit's Certify) — and
// checks each host candidate read the frames the policy sends it. The
// candidates are fake nodes listed in order; a nil answer drops the
// connection after reading the request, and a dead candidate is an
// address nobody listens on.
func TestFollowerPolicy(t *testing.T) {
	type node struct {
		dead   bool
		answer func(addrs []string) wire.Message
	}
	commits := node{answer: func([]string) wire.Message { return &wire.CertifyOK{Committed: true, Version: 1} }}
	type want struct {
		ok        bool    // the request succeeded
		noLead    bool    // the error wraps ErrNoLeader
		reads     []int32 // Certify frames each candidate read
		ringReads []int32 // the ring's reads, where they differ
	}
	rows := []struct {
		name  string
		nodes []node
		want  want
	}{
		{
			name: "redirect with an address",
			nodes: []node{
				{answer: func(a []string) wire.Message { return &wire.NotLeader{Leader: 2, Epoch: 1, Addr: a[2]} }},
				commits,
				commits,
			},
			want: want{ok: true, reads: []int32{1, 0, 1}},
		},
		{
			// Only the client knows replica ids; the ring moves to the
			// next candidate. A server that names a leader always sends
			// its address, so the ring never needs the id.
			name: "redirect with only an id",
			nodes: []node{
				{answer: func([]string) wire.Message { return &wire.NotLeader{Leader: 2, Epoch: 1} }},
				commits,
				commits,
			},
			want: want{ok: true, reads: []int32{1, 0, 1}, ringReads: []int32{1, 1, 0}},
		},
		{
			name:  "unreachable host",
			nodes: []node{{dead: true}, commits},
			want:  want{ok: true, reads: []int32{0, 1}},
		},
		{
			name:  "lost reply is not resent",
			nodes: []node{{answer: func([]string) wire.Message { return nil }}, commits},
			want:  want{reads: []int32{1, 0}},
		},
		{
			// The host's proposal, which may carry the request, missed
			// its majority: the next campaign may yet choose it.
			name: "ended term is not resent",
			nodes: []node{
				{answer: func([]string) wire.Message { return &wire.NotLeader{Leader: -1, Epoch: 2} }},
				commits,
			},
			want: want{reads: []int32{1, 0}},
		},
		{
			name: "non-host refusal",
			nodes: []node{
				{answer: func([]string) wire.Message {
					return &wire.Err{Code: wire.CodeUnsupported, Msg: "not the host"}
				}},
				commits,
			},
			want: want{ok: true, reads: []int32{1, 1}},
		},
		{
			name: "only candidate mid-election",
			nodes: []node{
				{answer: func([]string) wire.Message { return &wire.NotLeader{Leader: -1} }},
			},
			want: want{noLead: true, reads: []int32{maxRedirects + 1}},
		},
		{
			name:  "only candidate down",
			nodes: []node{{dead: true}},
			want:  want{noLead: true, reads: []int32{0}},
		},
	}
	ws := writeset.Rows("t", []int64{1}, []string{"x"})
	callers := []struct {
		name    string
		certify func(t *testing.T, addrs []string) error
	}{
		{"client", func(t *testing.T, addrs []string) error {
			cl, err := New(Options{Servers: addrs, Design: "mm"})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			return cl.doHost(func(w *wconn) wire.Message {
				w.certify = wire.Certify{WS: ws}
				return &w.certify
			}, 0, func(wire.Message) error { return nil })
		}},
		{"ring", func(t *testing.T, addrs []string) error {
			r := NewLeaderRing(addrs, "mm", -1)
			defer r.Close()
			_, err := r.CertifyTraced(0, ws, 0)
			return err
		}},
	}
	for _, row := range rows {
		for _, caller := range callers {
			t.Run(row.name+"/"+caller.name, func(t *testing.T) {
				addrs := make([]string, len(row.nodes))
				counts := make([]*atomic.Int32, len(row.nodes))
				for i, n := range row.nodes {
					if n.dead {
						addrs[i], counts[i] = deadAddr(t), new(atomic.Int32)
						continue
					}
					answer := n.answer
					addrs[i], counts[i] = fakeHost(t, func() wire.Message { return answer(addrs) })
				}
				err := caller.certify(t, addrs)
				if (err == nil) != row.want.ok {
					t.Fatalf("request error = %v, want success %v", err, row.want.ok)
				}
				if got := errors.Is(err, ErrNoLeader); got != row.want.noLead {
					t.Fatalf("request error %v wraps ErrNoLeader = %v, want %v", err, got, row.want.noLead)
				}
				want := row.want.reads
				if caller.name == "ring" && row.want.ringReads != nil {
					want = row.want.ringReads
				}
				for i, c := range counts {
					if got := c.Load(); got != want[i] {
						t.Fatalf("candidate %d read %d Certify frames, want %d (all: %v)", i, got, want[i], want)
					}
				}
			})
		}
	}
}

// deadAddr returns a loopback address nobody listens on.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}
