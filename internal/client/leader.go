package client

import (
	"errors"
	"sync"
	"time"

	"repro/internal/certifier"
	"repro/internal/repl"
	"repro/internal/writeset"
)

// LeaderRing is how a replica that does not host the certifier reaches
// the node that does: every certification RPC goes to the host guess
// of the ring's follower, over an address ring. A redirect's address
// joins the ring if it is new. A static replica's ring holds only its
// primary; a Paxos member's holds every member, and survives failover
// transparently.
//
// The ring keeps one Link per address, which the commit path, the
// FetchSince long poll and the node's Paxos transport share.
type LeaderRing struct {
	design string
	peerID int
	follow follower

	mu    sync.Mutex
	links map[string]*Link // one per address asked
	ring  []string         // candidate addresses, seed order first
	meta  func(version int64, trace uint64, commitNs int64)
	shut  bool
}

// NewLeaderRing creates a ring over the seed addresses. The first seed
// is the initial leader guess. No connection is dialed until first
// use.
func NewLeaderRing(addrs []string, design string, peerID int) *LeaderRing {
	r := &LeaderRing{
		design: design,
		peerID: peerID,
		links:  make(map[string]*Link),
	}
	r.follow.set = r
	for _, a := range addrs {
		if a != "" {
			r.ring = append(r.ring, a)
		}
	}
	return r
}

// Close drops every link in the ring and empties it, so a call that
// races the close fails at once instead of dialing a link nobody
// closes.
func (r *LeaderRing) Close() {
	r.mu.Lock()
	links := make([]*Link, 0, len(r.links))
	for _, l := range r.links {
		links = append(links, l)
	}
	r.links = make(map[string]*Link)
	r.ring = nil
	r.shut = true
	r.mu.Unlock()
	for _, l := range links {
		l.Close()
	}
}

// Leader returns the link to the current leader guess, dialing
// lazily. Requests that need no redirect chasing (Leave) go through it
// directly.
func (r *LeaderRing) Leader() (*Link, error) { return r.at(r.follow.host()) }

// at returns the link to candidate idx.
func (r *LeaderRing) at(idx int) (*Link, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if idx >= len(r.ring) {
		return nil, errNoHosts
	}
	return r.linkLocked(r.ring[idx]), nil
}

// Link returns the ring's one link to addr, dialing lazily, or nil
// once the ring is closed.
func (r *LeaderRing) Link(addr string) *Link {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.shut {
		return nil
	}
	return r.linkLocked(addr)
}

func (r *LeaderRing) linkLocked(addr string) *Link {
	l, ok := r.links[addr]
	if !ok {
		l = NewLink(addr, r.design, r.peerID, dialTimeout)
		l.OnRecordMeta(r.meta)
		r.links[addr] = l
	}
	return l
}

// OnRecordMeta installs a per-record trace-metadata observer on every
// link the ring has dialed or will dial (see Link.OnRecordMeta).
// Install before the propagation loop starts.
func (r *LeaderRing) OnRecordMeta(fn func(version int64, trace uint64, commitNs int64)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.meta = fn
	for _, l := range r.links {
		l.OnRecordMeta(fn)
	}
}

// Point makes addr the leader guess, adding it to the ring if new.
func (r *LeaderRing) Point(addr string) {
	if idx, ok := r.index(addr); ok {
		r.follow.point(idx)
	}
}

// index returns addr's place in the ring, appending it if new; ok is
// false once the ring is closed.
func (r *LeaderRing) index(addr string) (int, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.shut {
		return 0, false
	}
	for i, a := range r.ring {
		if a == addr {
			return i, true
		}
	}
	r.ring = append(r.ring, addr)
	return len(r.ring) - 1, true
}

// named implements hostSet: a redirect is followed by its address.
func (r *LeaderRing) named(nle NotLeaderError) (int, bool) {
	if nle.Addr == "" {
		return 0, false
	}
	return r.index(nle.Addr)
}

// after implements hostSet.
func (r *LeaderRing) after(from int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := len(r.ring); n > 0 {
		return (from + 1) % n
	}
	return from
}

// onLeader runs op through the follower on the link to its guess.
func (r *LeaderRing) onLeader(once bool, op func(l *Link) error) error {
	return r.follow.do(once, func(idx int) error {
		l, err := r.at(idx)
		if err != nil {
			return err
		}
		return op(l)
	})
}

// relay runs a request that must not run twice — a commit's
// certification, a fragment's prepare — through the follower, which
// sends it at most once to a node that may act on it. A failure after
// which that node may have acted — a lost reply above all — comes back
// as repl.UnknownOutcomeError: the relaying server answers its client
// with an unknown outcome, never an internal fault.
func (r *LeaderRing) relay(op func(l *Link) error) error {
	err := r.onLeader(true, op)
	if err == nil || notActed(err) || errors.Is(err, ErrNoLeader) || errors.Is(err, errNoHosts) {
		return err
	}
	return &repl.UnknownOutcomeError{Err: err}
}

// CertifyTraced submits a commit-time certification to the leader,
// carrying the transaction's trace id and following redirects across a
// failover. It relays the request: a lost reply is returned as an
// unknown outcome, never resent, since a copy reaching the leader after
// the first committed would conflict with its own record and report a
// committed transaction aborted.
func (r *LeaderRing) CertifyTraced(snapshot int64, ws writeset.Writeset, trace uint64) (certifier.Outcome, error) {
	var out certifier.Outcome
	err := r.relay(func(l *Link) error {
		o, err := l.CertifyTraced(snapshot, ws, trace)
		if err != nil {
			return err
		}
		out = o
		return nil
	})
	return out, err
}

// PrepareTxn forwards a cross-shard fragment prepare to the leader,
// relayed like CertifyTraced: the vote is binding, so the request goes
// at most once to a node that may act on it.
func (r *LeaderRing) PrepareTxn(p certifier.PreparedTxn) (vote bool, conflictWith int64, err error) {
	err = r.relay(func(l *Link) error {
		var err error
		vote, conflictWith, err = l.PrepareTxn(p)
		return err
	})
	return vote, conflictWith, err
}

// Check probes for an already-certain conflict at the leader.
// Transport failures degrade to "no conflict", like Link.Check.
func (r *LeaderRing) Check(snapshot int64, ws writeset.Writeset) (conflict bool, with int64) {
	_ = r.onLeader(false, func(l *Link) error {
		conflict, with = l.Check(snapshot, ws)
		return nil
	})
	return conflict, with
}

// Since hands apply every certified record with version > v from the
// leader, under Link.FetchSince's contract: the records are valid only
// until apply returns. It returns how many there were, 0 when no
// leader is reachable. wait > 0 long-polls when nothing is new, so a
// caller already at the leader's version parks there instead of busy
// polling.
func (r *LeaderRing) Since(v int64, wait time.Duration, apply func([]certifier.Record)) int {
	n := 0
	_ = r.onLeader(false, func(l *Link) error {
		var err error
		n, err = l.FetchSince(v, wait, apply)
		return err
	})
	return n
}

// FetchSinceOnce hands apply the records with version > v from the
// current leader guess, asked once, under Link.FetchSince's contract:
// on failure it moves the guess for the next call. A backup's election
// timer polls with it, so a dead leader costs one round trip per poll
// instead of the whole redirect budget, and the timer measures how
// long since a leader last answered. wait > 0 long-polls.
func (r *LeaderRing) FetchSinceOnce(v int64, wait time.Duration, apply func([]certifier.Record)) (int, error) {
	n := 0
	err := r.follow.try(func(idx int) error {
		l, err := r.at(idx)
		if err != nil {
			return err
		}
		n, err = l.FetchSince(v, wait, apply)
		return err
	})
	return n, err
}
