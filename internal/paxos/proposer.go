package paxos

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"sync"
)

// ErrNoMajority reports that a quorum could not be assembled.
var ErrNoMajority = errors.New("paxos: no majority")

// ErrNotLeader reports a proposal from a proposer that leads no term
// and that no ballot deposed: no campaign of its has won, or its last
// phase 2 missed its majority. Campaign opens its next term.
var ErrNotLeader = errors.New("paxos: proposer leads no term")

// DeposedError reports that a leader saw a higher ballot: a new leader
// has been elected and this proposer must stop acking commits. The
// ballot that deposed it identifies the usurper's epoch.
type DeposedError struct {
	By Ballot
}

func (e DeposedError) Error() string {
	return fmt.Sprintf("paxos: proposer deposed by ballot %s", e.By)
}

// maxOutbids bounds how many times one campaign outbids a competing
// ballot before it reports a livelock.
const maxOutbids = 100

// Proposer drives consensus for a replicated log from one node. A
// term has one way in and one way out. It leads once a campaign wins:
// the campaign's one prepare holds a majority's promise for every
// slot, so each proposal after it is phase 2 alone (multi-Paxos). The
// first phase 2 that fails — a higher ballot, or a missed majority —
// ends the term, and it refuses every proposal until it campaigns
// again, so a stale leader can never ack a commit a newer leader did
// not learn.
type Proposer struct {
	mu        sync.Mutex
	id        int
	peers     []int // acceptor ids, including self
	transport Transport

	ballot    Ballot
	leading   bool
	deposedBy Ballot // the ballot that ended the last term; zero when none did

	chosen []Value // the decided log: slot i holds chosen[i]
}

// NewProposer creates a proposer for the given membership. It leads no
// term until its Campaign wins.
func NewProposer(id int, peers []int, tr Transport) *Proposer {
	return &Proposer{
		id:        id,
		peers:     append([]int(nil), peers...),
		transport: tr,
		ballot:    Ballot{Round: 1, Proposer: id},
	}
}

// majority returns the quorum size.
func (p *Proposer) majority() int { return len(p.peers)/2 + 1 }

// CurrentBallot returns the proposer's current ballot — its epoch once
// it leads.
func (p *Proposer) CurrentBallot() Ballot {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ballot
}

// TermEnded reports whether the proposer leads no term — its last one
// ended, or no campaign of its has won — and the ballot that deposed
// it, zero when none did. It refuses every proposal until the next
// Campaign.
func (p *Proposer) TermEnded() (by Ballot, ended bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.deposedBy, !p.leading
}

// Campaign elects this proposer leader. It outbids its own ballot and
// prepares every slot it does not know at once; a rejection, which
// carries a promise in the same round or a later one, outbids that
// round and starts again. With a majority of promises it runs phase 2
// over each page of votes the promises carry — the vote with the
// highest ballot at each slot, a noop in each hole below the highest
// voted one — until no promise holds votes further on. It returns the
// winning ballot — the new epoch — and the recovered log. Campaign is
// the only way a proposer starts leading, and the only way back after
// its term ended.
func (p *Proposer) Campaign(noop Value) (Ballot, map[int]Value, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.leading = false
	p.ballot = Ballot{Round: p.ballot.Round + 1, Proposer: p.id}
	for outbids := 0; ; {
		more, higher, err := p.recoverPageLocked(noop)
		switch {
		case err != nil:
			return Ballot{}, nil, err
		case higher != Ballot{}:
			if outbids++; outbids > maxOutbids {
				return Ballot{}, nil, fmt.Errorf("paxos: livelock: outbid %d times campaigning", maxOutbids)
			}
			p.ballot = Ballot{Round: higher.Round + 1, Proposer: p.id}
		case !more:
			p.leading, p.deposedBy = true, Ballot{}
			return p.ballot, maps.Collect(slices.All(p.chosen)), nil
		}
	}
}

// recoverPageLocked runs one page of a campaign at p.ballot: a prepare,
// then phase 2 for every slot up to the highest vote the page covers.
// It reports whether some promise held votes back, or the higher
// ballot that preempted p.
func (p *Proposer) recoverPageLocked(noop Value) (more bool, higher Ballot, err error) {
	from := len(p.chosen)
	best, end, higher, err := p.prepareLocked()
	if err != nil || higher != (Ballot{}) {
		return false, higher, err
	}
	if end <= from {
		return false, Ballot{}, fmt.Errorf("paxos: a promise's page ends at slot %d, before slot %d", end, from)
	}
	top := from - 1
	for s := range best {
		if s < end {
			top = max(top, s)
		}
	}
	for s := from; s <= top; s++ {
		v := noop
		if b, ok := best[s]; ok {
			v = b.Value
		}
		acks, h := p.acceptLocked(s, v)
		if acks < p.majority() {
			if h != (Ballot{}) {
				return false, h, nil
			}
			return false, Ballot{}, fmt.Errorf("%w: %d/%d accepts for slot %d", ErrNoMajority, acks, len(p.peers), s)
		}
		p.chosen = append(p.chosen, v)
	}
	return end != math.MaxInt, Ballot{}, nil
}

// prepareLocked sends every peer a prepare at p.ballot for the slots
// from the first one p does not know. With a majority of promises it
// returns, per slot, the vote with the highest ballot among them, and
// the slot their page ends at: after the last vote of the shortest
// promise that held votes back, math.MaxInt when none did. Without a
// majority it returns the highest promise a rejection carried, or
// ErrNoMajority when no rejection came.
func (p *Proposer) prepareLocked() (best map[int]Vote, end int, higher Ballot, err error) {
	from := len(p.chosen)
	best, end = make(map[int]Vote), math.MaxInt
	promises := 0
	for _, peer := range p.peers {
		rep, err := p.transport.Prepare(peer, p.ballot, from)
		switch {
		case err != nil:
		case !rep.OK:
			higher = maxBallot(higher, rep.Promised)
		default:
			promises++
			for _, v := range rep.Votes {
				if b, ok := best[v.Slot]; !ok || b.Ballot.Less(v.Ballot) {
					best[v.Slot] = v
				}
			}
			if rep.More {
				end = min(end, rep.Votes[len(rep.Votes)-1].Slot+1)
			}
		}
	}
	switch {
	case promises >= p.majority():
		return best, end, Ballot{}, nil
	case higher != Ballot{}:
		return nil, 0, higher, nil
	}
	return nil, 0, Ballot{}, fmt.Errorf("%w: %d/%d promises from slot %d", ErrNoMajority, promises, len(p.peers), from)
}

// Chosen returns the value decided for slot, if known locally.
func (p *Proposer) Chosen(slot int) (Value, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if slot < 0 || slot >= len(p.chosen) {
		return "", false
	}
	return p.chosen[slot], true
}

// ChosenCount returns the number of slots this proposer knows to be
// decided.
func (p *Proposer) ChosenCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.chosen)
}

// Propose runs phase 2 for v at the next slot under the term's ballot
// and returns the slot v was chosen in. A phase 2 that fails ends the
// term: a rejection carrying a higher ballot deposes the proposer, and
// a missed majority leaves v's fate unknown — the acceptors that took
// it keep it, and the next campaign either chooses it or closes the
// slot with a noop. So no ballot ever carries two values at one slot.
// A proposer that leads no term proposes nothing: it returns
// DeposedError when a ballot ended its term, ErrNotLeader otherwise.
func (p *Proposer) Propose(v Value) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch {
	case p.leading:
	case p.deposedBy != Ballot{}:
		return 0, DeposedError{By: p.deposedBy}
	default:
		return 0, ErrNotLeader
	}
	slot := len(p.chosen)
	acks, higher := p.acceptLocked(slot, v)
	if acks >= p.majority() {
		p.chosen = append(p.chosen, v)
		return slot, nil
	}
	p.leading = false
	if higher != (Ballot{}) {
		p.deposedBy = higher
		return 0, DeposedError{By: higher}
	}
	return 0, fmt.Errorf("%w: %d/%d accepts for slot %d", ErrNoMajority, acks, len(p.peers), slot)
}

// acceptLocked sends phase 2a for v at slot to every peer and returns
// the number of acceptances and the highest promise a rejection
// carried (zero when none did).
func (p *Proposer) acceptLocked(slot int, v Value) (acks int, higher Ballot) {
	for _, peer := range p.peers {
		rep, err := p.transport.Accept(peer, p.ballot, slot, v)
		switch {
		case err != nil:
		case rep.OK:
			acks++
		default:
			higher = maxBallot(higher, rep.Promised)
		}
	}
	return acks, higher
}

// maxBallot returns the later of two ballots.
func maxBallot(a, b Ballot) Ballot {
	if a.Less(b) {
		return b
	}
	return a
}
