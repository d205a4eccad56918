package client

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/codec"
	"repro/internal/repl"
	"repro/internal/wire"
)

// This file is the sharded deployment surface of the driver: the
// per-transaction halves of the commit, prepare and decide verbs and
// the cluster-level decision verbs that internal/router needs to treat
// one networked replica group as one shard (router.Group + router.Sub).
// Single-group deployments never touch any of it.

// shardRPCDeadline bounds the 2PC decision verbs. They are short
// metadata exchanges; a partition must surface quickly so the router
// can leave the transaction in doubt rather than park the workload.
const shardRPCDeadline = 30 * time.Second

// HasWrites reports whether this transaction staged any Write/Delete
// operations — the router's test for whether a group is a writing
// participant (2PC) or a read-only bystander (free local commit).
func (t *Txn) HasWrites() bool {
	return !t.done && !t.readOnly && t.wrote
}

// Prepare runs the first 2PC phase for this transaction as one
// fragment of cross-shard transaction id, coordinated by shard group
// coord: SendPrepare, then RecvPrepare.
func (t *Txn) Prepare(id codec.TxnID, coord int64) (bool, int64, error) {
	if err := t.SendPrepare(id, coord); err != nil {
		return false, 0, err
	}
	return t.RecvPrepare()
}

// SendPrepare sends the prepare, the first half of Prepare; RecvPrepare
// reads the vote. Between the halves the connection stays this
// transaction's, so a router can have every group's prepare in flight
// at once. The server holds the transaction's snapshot and writeset,
// so the frame carries only the identifiers; the connection's
// transaction is consumed either way — a yes-vote fragment lives on,
// locked and journaled, in the group's certifier until the decision
// arrives.
//
// A transport failure after the frame may have been sent leaves the
// vote outcome unknown; it surfaces as repl.UnknownOutcomeError and the
// router aborts the fragment explicitly (always safe before the commit
// point) rather than guessing. A failed send ends the transaction, and
// RecvPrepare then reports errDone.
func (t *Txn) SendPrepare(id codec.TxnID, coord int64) error {
	if t.done {
		return errDone
	}
	req := &t.conn.prepare
	*req = wire.PrepareTxn{TxnID: id, Coord: coord}
	if err := t.conn.wc.Send(req); err != nil {
		t.fail(err)
		return &repl.UnknownOutcomeError{Err: err}
	}
	return nil
}

// RecvPrepare reads the vote SendPrepare asked for and ends the
// transaction.
func (t *Txn) RecvPrepare() (bool, int64, error) {
	if t.done {
		return false, 0, errDone
	}
	reply, err := t.conn.wc.Recv()
	if err != nil {
		t.fail(err)
		return false, 0, &repl.UnknownOutcomeError{Err: err}
	}
	// Read the reply before finish releases the connection (see Commit).
	var vote bool
	var with int64
	switch m := reply.(type) {
	case *wire.PrepareTxnOK:
		vote, with = m.Vote, m.ConflictWith
	case *wire.CommitAborted:
		// The server-side prepare lost certification outright.
		with = m.ConflictWith
	case *wire.NotLeader:
		err = &repl.UnknownOutcomeError{Err: NotLeaderError{
			Leader: int(m.Leader), Epoch: m.Epoch, Addr: m.Addr,
		}}
	case *wire.Err:
		err = mapErr(m)
	default:
		return false, 0, t.fail(fmt.Errorf("client: unexpected prepare reply %T", reply))
	}
	t.finish()
	return vote, with, err
}

// SendDecide sends the decision for cross-shard transaction id, which
// this transaction prepared, to its group's certifier host as last
// known — on a pooled host connection, the transaction's own having
// ended with the prepare — and RecvDecide reads the reply. retire
// retires the decision in the same journal write and Paxos value, and
// forget lists earlier decisions retired with it. A failed send, a
// redirect or a failed reply settles nothing the caller can rely on:
// it decides again through the group's DecideTxn, which follows the
// host.
func (t *Txn) SendDecide(id codec.TxnID, commit, retire bool, forget []codec.TxnID) error {
	if !t.done || t.deciding {
		return errNotPrepared
	}
	pool := t.client.rep(t.client.follow.host()).pool
	w, _, err := pool.get()
	if err != nil {
		return err
	}
	req := &w.decide
	req.TxnID, req.Commit = id, commit
	req.Retire = append(req.Retire[:0], forget...)
	if retire {
		req.Retire = append(req.Retire, id)
	}
	_ = w.nc.SetDeadline(time.Now().Add(shardRPCDeadline))
	if err := w.wc.Send(req); err != nil {
		pool.discard(w)
		return err
	}
	t.pool, t.conn, t.deciding = pool, w, true
	return nil
}

// RecvDecide reads the reply to SendDecide.
func (t *Txn) RecvDecide() error {
	if !t.deciding {
		return errNotPrepared
	}
	t.deciding = false
	reply, err := t.conn.wc.Recv()
	if err != nil {
		t.pool.discard(t.conn)
		return err
	}
	_ = t.conn.nc.SetDeadline(time.Time{})
	switch m := reply.(type) {
	case *wire.DecideTxnOK:
	case *wire.NotLeader:
		err = NotLeaderError{Leader: int(m.Leader), Epoch: m.Epoch, Addr: m.Addr}
	case *wire.Err:
		err = &protocolError{code: m.Code, msg: fmt.Sprintf("client: %s: %s", t.pool.addr, m.Msg)}
	default:
		t.pool.discard(t.conn)
		return fmt.Errorf("client: unexpected decide reply %T", reply)
	}
	t.pool.put(t.conn)
	return err
}

// errNotPrepared refuses a decide half out of turn: SendDecide before
// the transaction ended, or RecvDecide with no decide in flight.
var errNotPrepared = errors.New("client: no prepared transaction to decide")

// rpcHost round-trips one request with the group's certifier host —
// where schema and load frames, membership polls and (through doHost)
// the 2PC decision verbs land — following it across a move. The
// request goes at most once to a node that may act on it. A positive
// deadline bounds each exchange.
func (c *Client) rpcHost(req wire.Message, deadline time.Duration) (wire.Message, error) {
	var reply wire.Message
	err := c.follow.do(true, func(idx int) error {
		var err error
		reply, err = c.rep(idx).pool.rpc(req, deadline)
		return err
	})
	return reply, err
}

// doHost is rpcHost for a request built on the checked-out
// connection's scratch and a reply the connection reuses: use reads
// the reply before the connection goes back to its pool (see doOn).
func (c *Client) doHost(req func(*wconn) wire.Message, deadline time.Duration, use func(wire.Message) error) error {
	return c.follow.do(true, func(idx int) error {
		return c.rep(idx).pool.doOn(req, deadline, use)
	})
}

// DecideTxn delivers the coordinator's commit/abort decision for a
// prepared fragment to this group, retiring the decisions in retire in
// the same write (see SendDecide). Implements router.Group.
func (c *Client) DecideTxn(id codec.TxnID, commit bool, retire ...codec.TxnID) (version int64, err error) {
	err = c.doHost(func(w *wconn) wire.Message {
		w.decide.TxnID, w.decide.Commit = id, commit
		w.decide.Retire = append(w.decide.Retire[:0], retire...)
		return &w.decide
	}, shardRPCDeadline, func(reply wire.Message) error {
		m, ok := reply.(*wire.DecideTxnOK)
		if !ok {
			return fmt.Errorf("client: unexpected decide reply %T", reply)
		}
		version = m.Version
		return nil
	})
	return version, err
}

// ResolveTxn asks this group (as coordinator) for the recorded outcome
// of an in-doubt cross-shard transaction. Implements router.Group.
func (c *Client) ResolveTxn(id codec.TxnID) (commit bool, err error) {
	err = c.doHost(func(w *wconn) wire.Message {
		w.resolve = wire.ResolveTxn{TxnID: id}
		return &w.resolve
	}, shardRPCDeadline, func(reply wire.Message) error {
		m, ok := reply.(*wire.ResolveTxnOK)
		if !ok {
			return fmt.Errorf("client: unexpected resolve reply %T", reply)
		}
		commit = m.Commit
		return nil
	})
	return commit, err
}

// ForgetTxn retires fully acknowledged decisions at this group in one
// request. Implements router.Group.
func (c *Client) ForgetTxn(ids ...codec.TxnID) error {
	return c.doHost(func(w *wconn) wire.Message {
		w.forget.IDs = append(w.forget.IDs[:0], ids...)
		return &w.forget
	}, shardRPCDeadline, func(reply wire.Message) error {
		if _, ok := reply.(*wire.ForgetTxnOK); !ok {
			return fmt.Errorf("client: unexpected forget reply %T", reply)
		}
		return nil
	})
}
