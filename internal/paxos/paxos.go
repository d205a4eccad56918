// Package paxos implements single-leader multi-decree Paxos over
// in-process transports. The paper's certifier is "replicated using
// Paxos [Lamport 1998] for fault-tolerance" with a leader and two
// backups (§5.1, §6.1); this package provides that replication: a
// sequence of slots is agreed upon by a majority of acceptors. A leader
// runs phase 1 once per term (classic multi-Paxos): its campaign's
// prepare covers every slot, reads back the acceptors' votes page by
// page, and closes every slot the old leader left open. From then on
// each proposal is phase 2 alone, and the first phase 2 that fails
// ends the term.
//
// The implementation favours clarity over throughput: calls are
// synchronous method invocations through a Transport that tests use to
// sever nodes, which is exactly what the repository needs to show the
// certifier survives the failure of its leader.
package paxos

import (
	"errors"
	"fmt"
	"sync"
)

// Value is the payload agreed on for one slot.
type Value string

// Ballot orders proposal rounds; ties break by proposer id.
type Ballot struct {
	Round    int
	Proposer int
}

// Less orders ballots.
func (b Ballot) Less(o Ballot) bool {
	if b.Round != o.Round {
		return b.Round < o.Round
	}
	return b.Proposer < o.Proposer
}

// String renders "round.proposer".
func (b Ballot) String() string { return fmt.Sprintf("%d.%d", b.Round, b.Proposer) }

// AcceptedSlot is one slot's vote: the ballot it was cast at and the
// value. A durable acceptor store hands the votes back on recovery.
type AcceptedSlot struct {
	Ballot Ballot
	Value  Value
}

// Persister durably records an acceptor's promises and votes BEFORE
// the acceptor replies — the Paxos safety requirement that lets a
// power-cycled acceptor rejoin without violating a promise it already
// let a proposer act on. A persist failure aborts the reply: the
// caller sees a transport-style error and the acceptor's in-memory
// state is unchanged.
type Persister interface {
	// SavePromise persists a raised promise.
	SavePromise(b Ballot) error
	// SaveAccept persists a vote: the slot, its ballot and its value.
	// The ballot doubles as a promise (accepting at b implies
	// promising b), so recovery takes the max over both record kinds.
	SaveAccept(slot int, b Ballot, v Value) error
}

// Acceptor is the persistent voting state of one node. Its one promise
// covers every slot.
type Acceptor struct {
	mu       sync.Mutex
	id       int
	promised Ballot
	slots    map[int]AcceptedSlot
	top      int       // highest voted slot, -1 when none
	persist  Persister // nil: volatile (in-process tests)
}

// NewAcceptor creates a volatile acceptor with the given id.
func NewAcceptor(id int) *Acceptor {
	return RestoreAcceptor(id, nil, Ballot{}, nil)
}

// RestoreAcceptor rebuilds a durable acceptor from its persisted
// state: the highest promise and the per-slot votes a store replayed,
// which the acceptor takes over. Subsequent promises and votes are
// written through p before any reply leaves this node.
func RestoreAcceptor(id int, p Persister, promised Ballot, slots map[int]AcceptedSlot) *Acceptor {
	if slots == nil {
		slots = make(map[int]AcceptedSlot)
	}
	a := &Acceptor{id: id, promised: promised, slots: slots, top: -1, persist: p}
	for s, rec := range slots {
		a.top = max(a.top, s)
		if a.promised.Less(rec.Ballot) {
			a.promised = rec.Ballot
		}
	}
	return a
}

// Promised returns the acceptor's current promise.
func (a *Acceptor) Promised() Ballot {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.promised
}

// Vote is one acceptor vote, as a prepare reply carries it.
type Vote struct {
	Slot   int
	Ballot Ballot
	Value  Value
}

// PrepareReply answers a prepare request.
type PrepareReply struct {
	OK bool
	// Promised is the acceptor's promise after the call (its current
	// promise if the request was rejected).
	Promised Ballot
	// Votes are the acceptor's votes at slots at or above the request's
	// first slot, in slot order; a proposer must adopt them.
	Votes []Vote
	// More reports that the acceptor holds votes past the last one in
	// Votes, which the byte budget held back: the reply covers the
	// slots up to that last vote's, and the next page starts after it.
	More bool
}

// prepareBudget bounds the value bytes, plus voteOverhead per vote, of
// one prepare reply, keeping it well inside the wire's 16 MiB frame.
// A reply always carries at least one vote, so a campaign pages
// through a log of any length.
const (
	prepareBudget = 4 << 20
	voteOverhead  = 32
)

// Prepare handles phase 1a at ballot b for every slot: it promises b
// and returns the votes at slots from on, up to the byte budget. A
// promise moves only to a later round, so each term has a round of
// its own: the epoch. A raised promise is persisted before the reply;
// a persist failure surfaces as an error the caller treats like an
// unreachable node (nothing was promised).
func (a *Acceptor) Prepare(b Ballot, from int) (PrepareReply, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if b != a.promised && b.Round <= a.promised.Round {
		return PrepareReply{OK: false, Promised: a.promised}, nil
	}
	if a.persist != nil && a.promised.Less(b) {
		if err := a.persist.SavePromise(b); err != nil {
			return PrepareReply{}, fmt.Errorf("paxos: acceptor %d persist promise: %w", a.id, err)
		}
	}
	a.promised = b
	rep := PrepareReply{OK: true, Promised: b}
	size := 0
	for s := max(from, 0); s <= a.top; s++ {
		acc, ok := a.slots[s]
		if !ok {
			continue
		}
		if size += len(acc.Value) + voteOverhead; size > prepareBudget && len(rep.Votes) > 0 {
			rep.More = true
			break
		}
		rep.Votes = append(rep.Votes, Vote{Slot: s, Ballot: acc.Ballot, Value: acc.Value})
	}
	return rep, nil
}

// AcceptReply answers an accept request.
type AcceptReply struct {
	OK       bool
	Promised Ballot
}

// Accept handles phase 2a for one slot. The vote is persisted before
// the reply (and doubles as the promise record); a persist failure
// surfaces as an error and leaves the in-memory state unchanged.
func (a *Acceptor) Accept(b Ballot, slot int, v Value) (AcceptReply, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if b.Less(a.promised) {
		return AcceptReply{OK: false, Promised: a.promised}, nil
	}
	if a.persist != nil {
		if err := a.persist.SaveAccept(slot, b, v); err != nil {
			return AcceptReply{}, fmt.Errorf("paxos: acceptor %d persist accept: %w", a.id, err)
		}
	}
	a.promised = b
	a.slots[slot] = AcceptedSlot{Ballot: b, Value: v}
	a.top = max(a.top, slot)
	return AcceptReply{OK: true, Promised: b}, nil
}

// Transport delivers acceptor calls, allowing tests to sever links.
// The production implementation speaks the wire protocol's Paxos
// frames to acceptors embedded in each replica server.
type Transport interface {
	// Prepare sends a prepare at b for the slots from on to the
	// acceptor with the given id.
	Prepare(to int, b Ballot, from int) (PrepareReply, error)
	// Accept sends an accept to the acceptor with the given id.
	Accept(to int, b Ballot, slot int, v Value) (AcceptReply, error)
}

// ErrUnreachable reports a severed link.
var ErrUnreachable = errors.New("paxos: node unreachable")

// LocalTransport connects acceptors in-process with per-node
// reachability switches.
type LocalTransport struct {
	mu        sync.Mutex
	acceptors map[int]*Acceptor
	down      map[int]bool
}

// NewLocalTransport wires the given acceptors together.
func NewLocalTransport(acceptors ...*Acceptor) *LocalTransport {
	t := &LocalTransport{acceptors: make(map[int]*Acceptor), down: make(map[int]bool)}
	for _, a := range acceptors {
		t.acceptors[a.id] = a
	}
	return t
}

// SetDown severs or restores a node.
func (t *LocalTransport) SetDown(id int, down bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.down[id] = down
}

func (t *LocalTransport) get(id int) (*Acceptor, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.down[id] {
		return nil, fmt.Errorf("%w: %d", ErrUnreachable, id)
	}
	a, ok := t.acceptors[id]
	if !ok {
		return nil, fmt.Errorf("%w: unknown node %d", ErrUnreachable, id)
	}
	return a, nil
}

// Prepare implements Transport.
func (t *LocalTransport) Prepare(to int, b Ballot, from int) (PrepareReply, error) {
	a, err := t.get(to)
	if err != nil {
		return PrepareReply{}, err
	}
	return a.Prepare(b, from)
}

// Accept implements Transport.
func (t *LocalTransport) Accept(to int, b Ballot, slot int, v Value) (AcceptReply, error) {
	a, err := t.get(to)
	if err != nil {
		return AcceptReply{}, err
	}
	return a.Accept(b, slot, v)
}
