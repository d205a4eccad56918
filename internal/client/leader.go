package client

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/certifier"
	"repro/internal/wire"
	"repro/internal/writeset"
)

// NotLeaderError reports that the contacted replica is not (or no
// longer) the certifier leader. It carries the redirect: the paxos id
// of the node the contacted replica believes leads, the epoch round
// that deposed it, and — when the server knows it — the leader's
// address. Addr may be empty (a replica mid-election knows no leader);
// callers then discover the leader through the Members protocol.
type NotLeaderError struct {
	Leader int    // paxos id of the believed leader, -1 when unknown
	Epoch  int64  // round of the deposing ballot, 0 when unknown
	Addr   string // leader address, "" when the server does not know it
}

func (e NotLeaderError) Error() string {
	if e.Leader < 0 {
		return "client: replica is not the certifier leader"
	}
	return fmt.Sprintf("client: not leader (redirect to node %d, epoch round %d)", e.Leader, e.Epoch)
}

// LeaderRing is how a replica that does not host the certifier reaches
// the node that does: every certification RPC goes to the current
// leader guess, and a NotLeaderError moves the guess — to the address
// in the redirect when the deposed node knows it, through the Members
// protocol when it only knows the id, or to the next ring member when
// it knows nothing. Redirect chasing is bounded and backed off with
// jitter, so a cluster mid-election sees polite retries instead of a
// redirect storm. A static replica's ring holds only its primary; a
// Paxos member's holds every member, and survives failover
// transparently.
//
// The ring keeps one Link per address, which the commit path and the
// FetchSince long poll share.
type LeaderRing struct {
	design      string
	peerID      int
	dialTimeout time.Duration

	mu        sync.Mutex
	links     map[string]*Link // one per discovered address
	ring      []string         // candidate addresses, seed order first
	cur       int              // index of the current leader guess
	meta      func(version int64, trace uint64, commitNs int64)
	sinceWait time.Duration // long-poll window for SinceInto
}

// ErrNoLeader reports that the redirect budget ran out without
// reaching a leader — the group is mid-election or partitioned away. A
// server relaying a certification through its ring maps this onto a
// leader-unknown NotLeader redirect, so a client's commit lands in the
// unknown-outcome bucket instead of masquerading as an internal fault.
var ErrNoLeader = errors.New("client: no reachable leader")

// redirect chasing: one loop may follow at most maxRedirects hops,
// sleeping a jittered, doubling delay between hops (bounded by
// dialBackoffMax) to ride out an election in progress.
const maxRedirects = 6

// NewLeaderRing creates a ring over the seed addresses. The first seed
// is the initial leader guess. No connection is dialed until first
// use.
func NewLeaderRing(addrs []string, design string, peerID int, dialTimeout time.Duration) *LeaderRing {
	r := &LeaderRing{
		design:      design,
		peerID:      peerID,
		dialTimeout: dialTimeout,
		links:       make(map[string]*Link),
	}
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
	r.mu.Unlock()
	for _, l := range links {
		l.Close()
	}
}

// Leader returns the link to the current leader guess, dialing
// lazily. Requests that need no redirect chasing (Leave) go through it
// directly.
func (r *LeaderRing) Leader() (*Link, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.ring) == 0 {
		return nil, errEmptyRing
	}
	return r.linkForLocked(r.ring[r.cur]), nil
}

func (r *LeaderRing) linkForLocked(addr string) *Link {
	l, ok := r.links[addr]
	if !ok {
		l = NewLink(addr, r.design, r.peerID, r.dialTimeout)
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

// follow moves the leader guess after a NotLeaderError: directly to
// the redirect address when present, via Members lookup when only the
// id is known, and to the next ring member otherwise.
func (r *LeaderRing) follow(from *Link, nle NotLeaderError) {
	if nle.Addr != "" {
		r.Point(nle.Addr)
		return
	}
	if nle.Leader >= 0 {
		// The deposed node knows who leads but not where; the Members
		// protocol maps the id to an address.
		if _, members, err := from.Members(); err == nil {
			for _, m := range members {
				if m.ID == int64(nle.Leader) && m.Addr != "" {
					r.Point(m.Addr)
					return
				}
			}
		}
	}
	r.rotate()
}

// Point makes addr the leader guess, adding it to the ring if new.
func (r *LeaderRing) Point(addr string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, a := range r.ring {
		if a == addr {
			r.cur = i
			return
		}
	}
	r.ring = append(r.ring, addr)
	r.cur = len(r.ring) - 1
}

// rotate moves the guess to the next ring member.
func (r *LeaderRing) rotate() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := len(r.ring); n > 0 {
		r.cur = (r.cur + 1) % n
	}
}

// do runs op against the current leader guess, following redirects and
// rotating past unreachable nodes, with jittered backoff between hops.
// A request that must not run twice (once) moves on only when the
// contacted node cannot have acted on it: after a NotLeader reply or a
// failed dial. Any other failure — a lost reply above all — returns at
// once, leaving the outcome unknown to the caller.
func (r *LeaderRing) do(once bool, op func(l *Link) error) error {
	var lastErr error
	backoff := dialBackoffMin
	for hop := 0; hop <= maxRedirects; hop++ {
		if hop > 0 {
			time.Sleep(jitter(backoff))
			if backoff < dialBackoffMax {
				backoff *= 2
			}
		}
		err := r.try(op)
		if err == nil {
			return nil
		}
		if errors.Is(err, errEmptyRing) {
			return err
		}
		if _, redirected := asNotLeader(err); once && !redirected && !errors.As(err, new(unsentError)) {
			return err
		}
		lastErr = err
	}
	return fmt.Errorf("%w after %d attempts: %w", ErrNoLeader, maxRedirects+1, lastErr)
}

var errEmptyRing = errors.New("client: leader ring has no addresses")

// try runs op once against the current leader guess. On failure it
// moves the guess for the next attempt: along the redirect of a
// NotLeaderError, or to the next ring member when the guess is
// unreachable or failed outright.
func (r *LeaderRing) try(op func(l *Link) error) error {
	l, err := r.Leader()
	if err != nil {
		return err
	}
	err = op(l)
	if err == nil {
		return nil
	}
	if nle, ok := asNotLeader(err); ok {
		r.follow(l, nle)
	} else {
		r.rotate()
	}
	return err
}

// asNotLeader unwraps a NotLeaderError from an RPC error chain.
func asNotLeader(err error) (NotLeaderError, bool) {
	var nle NotLeaderError
	ok := errors.As(err, &nle)
	return nle, ok
}

// CertifyTraced submits a commit-time certification to the leader,
// carrying the transaction's trace id and following redirects across a
// failover. It sends the request at most once to a node that may act
// on it: a lost reply is returned, never resent, since a copy reaching
// the leader after the first committed would conflict with its own
// record and report a committed transaction aborted.
func (r *LeaderRing) CertifyTraced(snapshot int64, ws writeset.Writeset, trace uint64) (certifier.Outcome, error) {
	var out certifier.Outcome
	err := r.do(true, func(l *Link) error {
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
// following redirects like CertifyTraced: the vote is binding, so the
// request goes at most once to a node that may act on it.
func (r *LeaderRing) PrepareTxn(p certifier.PreparedTxn) (vote bool, conflictWith int64, err error) {
	err = r.do(true, func(l *Link) error {
		var err error
		vote, conflictWith, err = l.PrepareTxn(p)
		return err
	})
	return vote, conflictWith, err
}

// Check probes for an already-certain conflict at the leader.
// Transport failures degrade to "no conflict", like Link.Check.
func (r *LeaderRing) Check(snapshot int64, ws writeset.Writeset) (conflict bool, with int64) {
	_ = r.do(false, func(l *Link) error {
		c, w := l.Check(snapshot, ws)
		conflict, with = c, w
		return nil
	})
	return conflict, with
}

// SetSinceWait makes SinceInto long-poll with the given window instead
// of returning immediately when the leader has nothing new: commit-path
// catch-up runs it in loops, and a caller already at the leader's
// version should park there instead of busy polling. Install before
// the loops that call SinceInto.
func (r *LeaderRing) SetSinceWait(d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sinceWait = d
}

// SinceInto appends to dst every certified record with version > v
// from the leader and returns the extended slice, or dst unchanged
// when no leader is reachable. With a SetSinceWait window installed
// the call long-polls when nothing is new.
func (r *LeaderRing) SinceInto(dst []certifier.Record, v int64) []certifier.Record {
	r.mu.Lock()
	wait := r.sinceWait
	r.mu.Unlock()
	_ = r.do(false, func(l *Link) error {
		var err error
		dst, err = l.FetchSinceInto(dst, v, wait)
		return err
	})
	return dst
}

// FetchSinceOnceInto appends to dst the records with version > v from
// the current leader guess, asked once: on failure it moves the guess
// for the next call. A backup's election timer polls with it, so a
// dead leader costs one round trip per poll instead of the whole
// redirect budget, and the timer measures how long since a leader
// last answered. wait > 0 long-polls.
func (r *LeaderRing) FetchSinceOnceInto(dst []certifier.Record, v int64, wait time.Duration) ([]certifier.Record, error) {
	err := r.try(func(l *Link) error {
		var err error
		dst, err = l.FetchSinceInto(dst, v, wait)
		return err
	})
	return dst, err
}

// Members polls membership from whichever ring member answers first.
func (r *LeaderRing) Members() (epoch int64, members []wire.Member, err error) {
	err = r.do(false, func(l *Link) error {
		e, m, err := l.Members()
		if err != nil {
			return err
		}
		epoch, members = e, m
		return nil
	})
	return epoch, members, err
}
