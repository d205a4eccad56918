package certifier

import (
	"errors"
	"fmt"

	"repro/internal/paxos"
)

// NewReplicated creates a certifier whose log is replicated across
// nodes in-process Paxos acceptors (the paper uses a leader and two
// backups, so nodes is typically 3), led by node 0. It returns the
// certifier and the transport, which tests use to inject failures.
func NewReplicated(nodes int) (*Certifier, *paxos.LocalTransport, error) {
	if nodes < 1 {
		return nil, nil, fmt.Errorf("certifier: %d replication nodes", nodes)
	}
	accs := make([]*paxos.Acceptor, nodes)
	ids := make([]int, nodes)
	for i := range accs {
		accs[i] = paxos.NewAcceptor(i)
		ids[i] = i
	}
	tr := paxos.NewLocalTransport(accs...)
	c, _, err := Promote(0, ids, tr)
	return c, tr, err
}

// Promote elects node id leader of the certification group and
// rebuilds the certifier from the recovered Paxos log — the backup
// promotion path after a leader failure. It returns the promoted
// certifier and the proposer of the term it won: the proposer's ballot
// is the epoch, and it reports when the term ends. The certifier logs
// through that proposer until its first failed proposal ends the term.
func Promote(id int, peers []int, tr paxos.Transport) (*Certifier, *paxos.Proposer, error) {
	p := paxos.NewProposer(id, peers, tr)
	_, log, err := p.Campaign(noopValue)
	if err != nil {
		return nil, nil, fmt.Errorf("certifier: promote: %w", err)
	}
	c, err := Recover(log) // inherits in-doubt locks and decisions too
	if err != nil {
		return nil, nil, err
	}
	c.log = paxosLog{p}
	return c, p, nil
}

// paxosLog is a leader's Log: an append is one Paxos proposal of the
// operation's frames, durable at a majority of acceptors once it
// returns, so it returns sequence 0 and there is nothing to sync. The
// leader's campaign recovered every value chosen before its term, so
// the round chooses these frames or fails: it never meets another
// leader's.
type paxosLog struct{ p *paxos.Proposer }

func (l paxosLog) AppendFrames(frames []byte, _ int64) (int64, error) {
	if _, err := l.p.Propose(paxos.Value(frames)); err != nil { // the one copy, which the acceptors keep
		return 0, replicationError(err, l.p.CurrentBallot())
	}
	return 0, nil
}

func (paxosLog) Sync(int64) error { return nil }

// replicationError converts a Propose failure of the term at ballot
// term into the structured NotLeaderError clients use to find the
// leader: every failed proposal ends the term, and leaves the request's
// outcome unknown. A deposal names the new leader; any other failure
// names none and carries the ended term, which tells a relay the
// request may be in that term's last proposal.
func replicationError(err error, term paxos.Ballot) error {
	var dep paxos.DeposedError
	if errors.As(err, &dep) {
		return NotLeaderError{Leader: dep.By.Proposer, Epoch: dep.By}
	}
	return NotLeaderError{Leader: -1, Epoch: term}
}
