// Package paxos implements single-leader multi-decree Paxos over
// in-process transports. The paper's certifier is "replicated using
// Paxos [Lamport 1998] for fault-tolerance" with a leader and two
// backups (§5.1, §6.1); this package provides that replication: a
// sequence of slots is agreed upon by a majority of acceptors, a
// stable leader skips the prepare phase (classic multi-Paxos), and a
// new leader's first action is to re-learn and close any slots the old
// leader left open.
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

// accepted is an acceptor's record for one slot.
type accepted struct {
	ballot Ballot
	value  Value
	has    bool
}

// AcceptedSlot is one slot's restored voting record, as a durable
// acceptor store hands it back on recovery.
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

// Acceptor is the persistent voting state of one node.
type Acceptor struct {
	mu       sync.Mutex
	id       int
	promised Ballot
	slots    map[int]accepted
	persist  Persister // nil: volatile (in-process tests)
}

// NewAcceptor creates a volatile acceptor with the given id.
func NewAcceptor(id int) *Acceptor {
	return &Acceptor{id: id, slots: make(map[int]accepted)}
}

// RestoreAcceptor rebuilds a durable acceptor from its persisted
// state: the highest promise and the per-slot votes a store replayed.
// Subsequent promises and votes are written through p before any
// reply leaves this node.
func RestoreAcceptor(id int, p Persister, promised Ballot, slots map[int]AcceptedSlot) *Acceptor {
	a := &Acceptor{id: id, promised: promised, slots: make(map[int]accepted, len(slots)), persist: p}
	for s, rec := range slots {
		a.slots[s] = accepted{ballot: rec.Ballot, value: rec.Value, has: true}
		if a.promised.Less(rec.Ballot) {
			a.promised = rec.Ballot
		}
	}
	return a
}

// PrepareReply answers a prepare request.
type PrepareReply struct {
	OK bool
	// Promised is the acceptor's promise after the call (its current
	// promise if the request was rejected).
	Promised Ballot
	// Accepted reports any value this acceptor already accepted for
	// the slot, which the proposer must adopt.
	AcceptedBallot Ballot
	AcceptedValue  Value
	HasAccepted    bool
}

// Prepare handles phase 1a for one slot. A raised promise is persisted
// before the reply; a persist failure surfaces as an error the caller
// treats like an unreachable node (nothing was promised).
func (a *Acceptor) Prepare(b Ballot, slot int) (PrepareReply, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if b.Less(a.promised) {
		return PrepareReply{OK: false, Promised: a.promised}, nil
	}
	if a.persist != nil && a.promised.Less(b) {
		if err := a.persist.SavePromise(b); err != nil {
			return PrepareReply{}, fmt.Errorf("paxos: acceptor %d persist promise: %w", a.id, err)
		}
	}
	a.promised = b
	acc := a.slots[slot]
	return PrepareReply{
		OK:             true,
		Promised:       a.promised,
		AcceptedBallot: acc.ballot,
		AcceptedValue:  acc.value,
		HasAccepted:    acc.has,
	}, nil
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
	a.slots[slot] = accepted{ballot: b, value: v, has: true}
	return AcceptReply{OK: true, Promised: b}, nil
}

// MaxSlot returns the highest slot this acceptor has voted on, or -1.
func (a *Acceptor) MaxSlot() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	max := -1
	for s := range a.slots {
		if s > max {
			max = s
		}
	}
	return max
}

// Status reports the acceptor's highest voted slot and current
// promise — what a campaigning proposer learns before picking a
// ballot that outbids every live promise.
func (a *Acceptor) Status() (maxSlot int, promised Ballot) {
	a.mu.Lock()
	defer a.mu.Unlock()
	maxSlot = -1
	for s := range a.slots {
		if s > maxSlot {
			maxSlot = s
		}
	}
	return maxSlot, a.promised
}

// LearnReply answers a learn (status) request during an election.
type LearnReply struct {
	// MaxSlot is the highest slot the acceptor voted on, or -1.
	MaxSlot int
	// Promised is the acceptor's current promise.
	Promised Ballot
}

// Transport delivers acceptor calls, allowing tests to sever links.
// The production implementation speaks the wire protocol's Paxos
// frames to acceptors embedded in each replica server.
type Transport interface {
	// Prepare sends a prepare to the acceptor with the given id.
	Prepare(to int, b Ballot, slot int) (PrepareReply, error)
	// Accept sends an accept to the acceptor with the given id.
	Accept(to int, b Ballot, slot int, v Value) (AcceptReply, error)
	// Learn asks the acceptor with the given id for its status (highest
	// voted slot, current promise) — the first step of an election.
	Learn(to int) (LearnReply, error)
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
func (t *LocalTransport) Prepare(to int, b Ballot, slot int) (PrepareReply, error) {
	a, err := t.get(to)
	if err != nil {
		return PrepareReply{}, err
	}
	return a.Prepare(b, slot)
}

// Accept implements Transport.
func (t *LocalTransport) Accept(to int, b Ballot, slot int, v Value) (AcceptReply, error) {
	a, err := t.get(to)
	if err != nil {
		return AcceptReply{}, err
	}
	return a.Accept(b, slot, v)
}

// Learn implements Transport.
func (t *LocalTransport) Learn(to int) (LearnReply, error) {
	a, err := t.get(to)
	if err != nil {
		return LearnReply{}, err
	}
	maxSlot, promised := a.Status()
	return LearnReply{MaxSlot: maxSlot, Promised: promised}, nil
}
