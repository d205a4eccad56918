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
// and cannot open one at the proposal: the log holds values it has not
// learned. Campaign learns them.
var ErrNotLeader = errors.New("paxos: proposer has not won a campaign")

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

// Proposer drives consensus for a replicated log from one node. It
// leads once a campaign wins: the campaign's one prepare holds a
// majority's promise for every slot, so each proposal after it is
// phase 2 alone (multi-Paxos). A higher ballot deposes it, and it
// refuses every proposal until it campaigns again, so a stale leader
// can never ack a commit a newer leader did not learn.
type Proposer struct {
	mu        sync.Mutex
	id        int
	peers     []int // acceptor ids, including self
	transport Transport

	ballot    Ballot
	leading   bool
	deposedBy Ballot // the ballot that ended the last term; zero while none did

	chosen []Value // the decided log: slot i holds chosen[i]
}

// NewProposer creates a proposer for the given membership. Its first
// proposal campaigns, and leads only over a log with no values: over
// any other, Campaign learns them first.
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

// Deposed reports whether a higher ballot ended this proposer's term,
// and which. A deposed proposer refuses every propose until the next
// Campaign.
func (p *Proposer) Deposed() (Ballot, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.deposedBy, !p.leading && p.deposedBy != Ballot{}
}

// Campaign elects this proposer leader. It outbids its own ballot and
// prepares every slot it does not know at once; a rejection, which
// carries a promise in the same round or a later one, outbids that
// round and starts again. With a majority of promises it runs phase 2
// over each page of votes the promises carry — the vote with the
// highest ballot at each slot, a noop in each hole below the highest
// voted one — until no promise holds votes further on. It returns the
// winning ballot — the new epoch — and the recovered log. Campaign
// clears a deposed state: it is the only way a deposed proposer comes
// back.
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
// and returns the slot v was chosen in. A rejection carrying a higher
// ballot deposes the proposer; a missing majority leaves it leading
// and the slot free for the next proposal. A fresh proposer's first
// proposal opens its term: over a log with no values, the campaign's
// prepare is all the term needs.
func (p *Proposer) Propose(v Value) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.leading {
		if err := p.openTermLocked(); err != nil {
			return 0, err
		}
	}
	slot := len(p.chosen)
	acks, higher := p.acceptLocked(slot, v)
	switch {
	case acks >= p.majority():
		p.chosen = append(p.chosen, v)
		return slot, nil
	case higher != Ballot{}:
		p.leading, p.deposedBy = false, higher
		return 0, DeposedError{By: higher}
	}
	return 0, fmt.Errorf("%w: %d/%d accepts for slot %d", ErrNoMajority, acks, len(p.peers), slot)
}

// openTermLocked opens a fresh proposer's first term at its first
// proposal. Over a log with no values and no term the prepare is all a
// term needs; over any other it proposes nothing: another leader's
// promise deposes it, and values it has not learned return
// ErrNotLeader.
func (p *Proposer) openTermLocked() error {
	switch {
	case p.deposedBy != Ballot{}:
		return DeposedError{By: p.deposedBy}
	case len(p.chosen) > 0:
		return ErrNotLeader
	}
	p.ballot = Ballot{Round: p.ballot.Round + 1, Proposer: p.id}
	best, _, higher, err := p.prepareLocked()
	switch {
	case err != nil:
		return err
	case higher != Ballot{}:
		p.deposedBy = higher
		return DeposedError{By: higher}
	case len(best) > 0:
		return fmt.Errorf("%w: the log holds values; campaign to learn them", ErrNotLeader)
	}
	p.leading = true
	return nil
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
