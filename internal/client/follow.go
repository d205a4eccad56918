package client

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// NotLeaderError reports that the contacted replica is not (or no
// longer) the certifier leader. It carries the redirect: the paxos id
// of the node the contacted replica believes leads, that leader's epoch
// round, and — when the server knows it — the leader's address. A
// server fills Addr from its member list whenever it names a leader, so
// Addr is empty only when it knows no leader (a replica mid-election)
// or no address for it. A redirect naming no leader carries, in Epoch,
// the round of the leader's term that ended at a missed majority, in a
// proposal that may carry the request — the contacted replica's own
// term, or the one its relay reached — and 0 when the request was not
// acted on.
type NotLeaderError struct {
	Leader int    // paxos id of the believed leader, -1 when unknown
	Epoch  int64  // round of the leader's ballot, or of the ended term
	Addr   string // leader address, "" when the server does not know it
}

func (e NotLeaderError) Error() string {
	if e.Leader < 0 {
		return "client: replica is not the certifier leader"
	}
	return fmt.Sprintf("client: not leader (redirect to node %d, epoch round %d)", e.Leader, e.Epoch)
}

// asNotLeader unwraps a NotLeaderError from an RPC error chain.
func asNotLeader(err error) (NotLeaderError, bool) {
	var nle NotLeaderError
	ok := errors.As(err, &nle)
	return nle, ok
}

// ErrNoLeader reports that the redirect budget ran out without
// reaching the certifier host — the group is mid-election, partitioned
// away or its host is down. A server relaying a certification through
// its ring maps this onto a leader-unknown NotLeader redirect, so a
// client's commit lands in the unknown-outcome bucket instead of
// masquerading as an internal fault.
var ErrNoLeader = errors.New("client: no reachable leader")

// maxRedirects bounds one follower loop: at most maxRedirects hops
// after the first attempt, sleeping a jittered, doubling delay between
// hops (bounded by dialBackoffMax) to ride out an election or a host
// restart in progress.
const maxRedirects = 6

// errNoHosts ends a follower loop at once: its owner has no candidate
// left to ask (a ring that was closed or seeded with no address).
var errNoHosts = errors.New("client: no certifier host candidates")

// hostSet is what a follower moves its guess over: the owner's
// candidates for the certifier host, by index.
type hostSet interface {
	// named returns the candidate a redirect names, ok false when it
	// names none this set can reach.
	named(nle NotLeaderError) (idx int, ok bool)
	// after returns the next live candidate after from, wrapping; from
	// itself when it is the only one.
	after(from int) int
}

// follower is the one way this package reaches the certifier host (the
// master under sm): the pooled Client and a replica's LeaderRing each
// keep one. It holds the host guess and moves it by three rules:
//
//   - A NotLeader reply moves the guess to the node it names; one that
//     names none, and any other failure, moves it to the next
//     candidate. With one candidate the guess stays and the loop asks
//     it again after the backoff, so a restarting host is waited out.
//   - A request that must not run twice (once) moves on only when the
//     contacted node cannot have acted on it: a NotLeader reply that
//     names a leader or no epoch, a non-host's refusal
//     (CodeUnsupported) or a request that never left. Any other
//     failure returns at once, leaving the outcome to the caller: a
//     lost reply above all, and a NotLeader naming no leader but an
//     ended term, whose last proposal may carry the request — the
//     next campaign may yet choose it, so a resent copy would conflict
//     with it.
//   - When maxRedirects hops pass without an answer the loop returns
//     the last error wrapped in ErrNoLeader.
type follower struct {
	set   hostSet
	guess atomic.Int64 // index of the host guess in set
}

// host returns the index of the current guess.
func (f *follower) host() int { return int(f.guess.Load()) }

// point makes idx the guess.
func (f *follower) point(idx int) { f.guess.Store(int64(idx)) }

// do runs op against the guess until it succeeds, following the rules
// above, with a jittered, doubling backoff between hops.
func (f *follower) do(once bool, op func(idx int) error) error {
	var err error
	backoff := dialBackoffMin
	for hop := 0; hop <= maxRedirects; hop++ {
		if hop > 0 {
			time.Sleep(jitter(backoff))
			backoff = min(2*backoff, dialBackoffMax)
		}
		if err = f.try(op); err == nil || errors.Is(err, errNoHosts) || once && !notActed(err) {
			return err
		}
	}
	return fmt.Errorf("%w after %d attempts: %w", ErrNoLeader, maxRedirects+1, err)
}

// try runs op once against the guess and, when it fails, moves the
// guess for the next attempt: to the node a NotLeader reply names, or
// to the next candidate. A guess another caller already moved stays
// where that caller put it.
func (f *follower) try(op func(idx int) error) error {
	from := f.host()
	err := op(from)
	if err == nil {
		return nil
	}
	to, ok := 0, false
	if nle, redirected := asNotLeader(err); redirected {
		to, ok = f.set.named(nle)
	}
	if !ok {
		to = f.set.after(from)
	}
	f.guess.CompareAndSwap(int64(from), int64(to))
	return err
}

// notActed reports whether a failed request cannot have been acted on:
// a NotLeader redirect that names a leader or no ended term, a
// non-host's refusal, or a request that never left this process.
func notActed(err error) bool {
	if nle, redirected := asNotLeader(err); redirected {
		return nle.Leader >= 0 || nle.Epoch == 0
	}
	if errors.As(err, new(unsentError)) {
		return true
	}
	var pe *protocolError
	return errors.As(err, &pe) && pe.code == wire.CodeUnsupported
}
