package client

import (
	"fmt"
	"time"

	"repro/internal/certifier"
	"repro/internal/paxos"
	"repro/internal/wire"
	"repro/internal/writeset"
)

// Link is a replica server's connection to its primary (the certifier
// host in the mm design, the master in sm): remote certification, the
// eager conflict probe, and writeset retrieval — the certification
// service a non-primary mm server commits through, which is how one
// server process becomes one node of a multi-process cluster.
//
// A Link is safe for concurrent use; each call checks a connection out
// of the underlying pool. A long-polling FetchSince holds its
// connection for the duration of the poll, and concurrent calls check
// out others.
type Link struct {
	pool *connPool
	// meta, when set, observes the per-record trace id and leader
	// commit timestamp during FetchSince decoding (both zero from
	// untraced leaders).
	meta func(version int64, trace uint64, commitNs int64)
}

// linkRPCDeadline bounds ordinary link RPCs so a one-way partition
// (peer unreachable but the TCP connection not torn down) surfaces as
// an error instead of parking the caller forever.
const linkRPCDeadline = 30 * time.Second

// NewLink creates a link from replica peerID to the primary at addr
// serving the given design ("" skips the check). No connection is
// dialed until first use.
func NewLink(addr, design string, peerID int, dialTimeout time.Duration) *Link {
	return &Link{pool: newConnPool(addr, design, int64(peerID), dialTimeout, 4)}
}

// Close drops the link's pooled connections and interrupts in-flight
// polls by invalidating the pool.
func (l *Link) Close() { l.pool.closeAll() }

// OnRecordMeta installs an observer for per-record trace metadata
// decoded from FetchSince replies. Install before the propagation loop
// starts; the Link does not synchronize replacement.
func (l *Link) OnRecordMeta(fn func(version int64, trace uint64, commitNs int64)) {
	l.meta = fn
}

// CertifyTraced submits a commit-time certification request to the
// primary, carrying the submitting transaction's trace id (0
// untraced).
func (l *Link) CertifyTraced(snapshot int64, ws writeset.Writeset, trace uint64) (certifier.Outcome, error) {
	var out certifier.Outcome
	err := l.pool.doOn(func(c *wconn) wire.Message {
		c.certify = wire.Certify{Snapshot: snapshot, WS: ws, Trace: trace}
		return &c.certify
	}, linkRPCDeadline, func(reply wire.Message) error {
		m, ok := reply.(*wire.CertifyOK)
		if !ok {
			return fmt.Errorf("client: unexpected certify reply %T", reply)
		}
		out = certifier.Outcome{Committed: m.Committed, Version: m.Version, ConflictWith: m.ConflictWith}
		return nil
	})
	return out, err
}

// Check probes a partial writeset for an already-certain conflict.
// Transport failures degrade to "no conflict": the probe is an
// optimization, commit-time certification remains authoritative.
func (l *Link) Check(snapshot int64, ws writeset.Writeset) (conflict bool, with int64) {
	_ = l.pool.do(&wire.Check{Snapshot: snapshot, WS: ws}, linkRPCDeadline, func(reply wire.Message) error {
		if m, ok := reply.(*wire.CheckOK); ok {
			conflict, with = m.Conflict, m.With
		}
		return nil
	})
	return conflict, with
}

// PrepareTxn forwards a cross-shard fragment prepare to the primary:
// the raw form carrying snapshot and writeset, used when
// this node is not the certifier host. The primary's vote is binding —
// a transport failure leaves the outcome unknown and must surface as an
// error, never as a silent no-vote.
func (l *Link) PrepareTxn(p certifier.PreparedTxn) (vote bool, conflictWith int64, err error) {
	reply, err := l.pool.rpc(&wire.PrepareTxn{
		TxnID: p.ID, Coord: p.Coord, Snapshot: p.Snapshot, WS: p.Writeset,
	}, linkRPCDeadline)
	if err != nil {
		return false, 0, err
	}
	m, ok := reply.(*wire.PrepareTxnOK)
	if !ok {
		return false, 0, fmt.Errorf("client: unexpected prepare reply %T", reply)
	}
	return m.Vote, m.ConflictWith, nil
}

// RoundTrips returns the cumulative request/reply exchanges this link
// has attempted — the observable a steady-state regression test pins
// to prove catch-up long-polls instead of busy polling.
func (l *Link) RoundTrips() int64 { return l.pool.rpcs.Load() }

// Join asks the primary to admit a new replica listening on addr. It
// returns the assigned replica id, the membership
// epoch and the member list after admission.
func (l *Link) Join(addr string) (*wire.JoinOK, error) {
	reply, err := l.pool.rpc(&wire.Join{Addr: addr}, linkRPCDeadline)
	if err != nil {
		return nil, err
	}
	m, ok := reply.(*wire.JoinOK)
	if !ok {
		return nil, fmt.Errorf("client: unexpected join reply %T", reply)
	}
	return m, nil
}

// Leave deregisters replica id from the primary.
func (l *Link) Leave(id int64) error {
	reply, err := l.pool.rpc(&wire.Leave{ID: id}, linkRPCDeadline)
	if err != nil {
		return err
	}
	if _, ok := reply.(*wire.LeaveOK); !ok {
		return fmt.Errorf("client: unexpected leave reply %T", reply)
	}
	return nil
}

// Snapshot fetches a consistent full-state snapshot from the primary:
// every table at one applied version, streamed in
// chunks. The whole stream runs on ONE checked-out connection — the
// server pins the snapshot per connection, so switching connections
// mid-stream would silently restart it at a different version. The
// caller catches up from the returned version via FetchSince.
func (l *Link) Snapshot() (version int64, tables map[string]map[int64]string, err error) {
	c, _, err := l.pool.get()
	if err != nil {
		return 0, nil, err
	}
	tables = make(map[string]map[int64]string)
	for {
		_ = c.nc.SetDeadline(time.Now().Add(linkRPCDeadline))
		reply, err := roundTrip(c, &wire.SnapshotReq{})
		if err != nil {
			l.pool.discard(c)
			return 0, nil, err
		}
		m, ok := reply.(*wire.SnapshotOK)
		if !ok {
			l.pool.discard(c)
			if e, isErr := reply.(*wire.Err); isErr {
				return 0, nil, fmt.Errorf("client: snapshot refused: %s", e.Msg)
			}
			return 0, nil, fmt.Errorf("client: unexpected snapshot reply %T", reply)
		}
		version = m.Version
		for _, t := range m.Tables {
			rows := tables[t.Name]
			if rows == nil {
				rows = make(map[int64]string, len(t.Rows))
				tables[t.Name] = rows
			}
			for i, r := range t.Rows {
				rows[r] = t.Values[i]
			}
		}
		if !m.More {
			break
		}
	}
	_ = c.nc.SetDeadline(time.Time{})
	l.pool.put(c)
	return version, tables, nil
}

// Members polls the primary's membership.
func (l *Link) Members() (epoch int64, members []wire.Member, err error) {
	reply, err := l.pool.rpc(&wire.Members{}, linkRPCDeadline)
	if err != nil {
		return 0, nil, err
	}
	m, ok := reply.(*wire.MembersOK)
	if !ok {
		return 0, nil, fmt.Errorf("client: unexpected members reply %T", reply)
	}
	return m.Epoch, m.Members, nil
}

// Stats polls a replica's cumulative serving counters.
func (l *Link) Stats() (*wire.StatsOK, error) {
	reply, err := l.pool.rpc(&wire.Stats{}, linkRPCDeadline)
	if err != nil {
		return nil, err
	}
	m, ok := reply.(*wire.StatsOK)
	if !ok {
		return nil, fmt.Errorf("client: unexpected stats reply %T", reply)
	}
	return m, nil
}

// PaxosPrepare relays a Paxos phase-1a request to the acceptor
// embedded in the peer server.
func (l *Link) PaxosPrepare(b paxos.Ballot, slot int) (paxos.PrepareReply, error) {
	reply, err := l.pool.rpc(&wire.PaxosPrepare{
		Round: int64(b.Round), Proposer: int64(b.Proposer), Slot: int64(slot),
	}, linkRPCDeadline)
	if err != nil {
		return paxos.PrepareReply{}, err
	}
	m, ok := reply.(*wire.PaxosPrepareOK)
	if !ok {
		return paxos.PrepareReply{}, fmt.Errorf("client: unexpected prepare reply %T", reply)
	}
	return paxos.PrepareReply{
		OK:             m.OK,
		Promised:       paxos.Ballot{Round: int(m.PromisedRound), Proposer: int(m.PromisedProposer)},
		AcceptedBallot: paxos.Ballot{Round: int(m.AcceptedRound), Proposer: int(m.AcceptedProposer)},
		AcceptedValue:  paxos.Value(m.AcceptedValue),
		HasAccepted:    m.HasAccepted,
	}, nil
}

// PaxosAccept relays a Paxos phase-2a request to the acceptor embedded
// in the peer server.
func (l *Link) PaxosAccept(b paxos.Ballot, slot int, v paxos.Value) (paxos.AcceptReply, error) {
	reply, err := l.pool.rpc(&wire.PaxosAccept{
		Round: int64(b.Round), Proposer: int64(b.Proposer), Slot: int64(slot), Value: string(v),
	}, linkRPCDeadline)
	if err != nil {
		return paxos.AcceptReply{}, err
	}
	m, ok := reply.(*wire.PaxosAcceptOK)
	if !ok {
		return paxos.AcceptReply{}, fmt.Errorf("client: unexpected accept reply %T", reply)
	}
	return paxos.AcceptReply{
		OK:       m.OK,
		Promised: paxos.Ballot{Round: int(m.PromisedRound), Proposer: int(m.PromisedProposer)},
	}, nil
}

// PaxosLearn asks the peer's acceptor for its highest voted slot and
// current promise, the first step of an election.
func (l *Link) PaxosLearn() (paxos.LearnReply, error) {
	reply, err := l.pool.rpc(&wire.PaxosLearn{}, linkRPCDeadline)
	if err != nil {
		return paxos.LearnReply{}, err
	}
	m, ok := reply.(*wire.PaxosLearnOK)
	if !ok {
		return paxos.LearnReply{}, fmt.Errorf("client: unexpected learn reply %T", reply)
	}
	return paxos.LearnReply{
		MaxSlot:  int(m.MaxSlot),
		Promised: paxos.Ballot{Round: int(m.PromisedRound), Proposer: int(m.PromisedProposer)},
	}, nil
}

// FetchSinceInto appends to dst the records with version > v and
// returns the extended slice; wait > 0 long-polls at the primary until
// records arrive or the wait expires. The appended records are valid
// until the caller reuses dst; their writesets are freshly decoded
// and owned by the caller. On error dst comes back unchanged.
func (l *Link) FetchSinceInto(dst []certifier.Record, v int64, wait time.Duration) ([]certifier.Record, error) {
	err := l.pool.doOn(func(c *wconn) wire.Message {
		c.fetch = wire.FetchSince{Version: v}
		if wait > 0 {
			c.fetch.WaitMillis = uint32(wait / time.Millisecond)
		}
		return &c.fetch
	}, wait+linkRPCDeadline, func(reply wire.Message) error {
		m, ok := reply.(*wire.Records)
		if !ok {
			return fmt.Errorf("client: unexpected fetch reply %T", reply)
		}
		for _, r := range m.Recs {
			dst = append(dst, certifier.Record{Version: r.Version, Writeset: r.WS})
			if l.meta != nil && (r.Trace != 0 || r.CommitNs != 0) {
				l.meta(r.Version, r.Trace, r.CommitNs)
			}
		}
		// The reply is the connection's reused decode target: drop its
		// writesets so an idle connection pins none.
		clear(m.Recs)
		return nil
	})
	return dst, err
}
