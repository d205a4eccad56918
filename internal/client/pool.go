package client

import (
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/certifier"
	"repro/internal/wire"
	"repro/internal/writeset"
)

// Backoff bounds. A pool backs off after a failure that says its
// server may be down (see backoff): it refuses to dial for a step that
// starts at dialBackoffMin and doubles per failure up to
// dialBackoffMax, and a successful dial resets it. While a pool backs
// off, the client routes new transactions around its replica, so a
// dead replica costs one timed-out dial per step instead of one per
// caller.
const (
	dialBackoffMin = 50 * time.Millisecond
	dialBackoffMax = 1 * time.Second
)

// dialTimeout bounds connection establishment for the pooled client
// and a replica's ring.
const dialTimeout = 2 * time.Second

// jitter spreads a delay over [d/2, d] so callers backing off from the
// same failure do not reconverge in lockstep.
func jitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	half := d / 2
	return half + rand.N(half+1)
}

// wconn is one established, handshaken protocol connection, plus one
// reusable request struct per per-transaction, per-update or 2PC verb.
// The caller holding the connection fills one in and sends it;
// wire.Conn.Send encodes synchronously, so the struct is free again
// when Send returns.
type wconn struct {
	nc net.Conn
	wc *wire.Conn

	begin   wire.Begin
	read    wire.Read
	write   wire.Write
	del     wire.Delete
	certify wire.Certify
	check   wire.Check
	fetch   wire.FetchSince
	prepare wire.PrepareTxn
	decide  wire.DecideTxn
	resolve wire.ResolveTxn
	forget  wire.ForgetTxn
	// recs is FetchSince's record scratch, handed to its apply.
	recs []certifier.Record
}

// clearRequests drops what the last exchange left in the connection's
// request scratch: a writeset in certify, check or prepare would pin
// the values, and alias a write array its owner reuses.
func (c *wconn) clearRequests() {
	c.certify.WS = writeset.Writeset{}
	c.check.WS = writeset.Writeset{}
	c.prepare.WS = writeset.Writeset{}
}

func (c *wconn) close() {
	_ = c.nc.Close()
}

// connPool hands out protocol connections to one server address:
// checkout pops an idle connection or dials a new one, checkin returns
// it for reuse. maxIdle only bounds how many idle connections are
// retained; concurrency is naturally bounded by the callers (one
// connection per in-flight transaction or RPC). Checked-out
// connections stay tracked so closeAll can sever in-flight calls —
// without that, a shutdown racing a blocked Recv (e.g. a long poll
// across a one-way partition) would hang forever.
type connPool struct {
	addr        string
	dialTimeout time.Duration
	maxIdle     int
	// wantDesign, when non-empty, is validated against the design the
	// server announces in HelloOK, so a client configured for one
	// design fails loudly at connect time instead of mysteriously
	// mid-run when pointed at a cluster of the other design.
	wantDesign string
	// peerID is sent in the handshake: the replica id when this pool
	// belongs to a server's peer link, -1 for ordinary clients.
	peerID int64

	// rpcs counts the request/reply exchanges attempted, stale
	// connections included, and dials the dials. Tests read them to
	// prove catch-up paths long-poll instead of busy polling and a dead
	// replica is dialed once per backoff step.
	rpcs  atomic.Int64
	dials atomic.Int64
	// retired marks the pool of a replica that left the cluster: the
	// client routes no new transaction to it and put closes what comes
	// back.
	retired atomic.Bool
	// until is when the current backoff step ends, in Unix nanoseconds
	// (0 when the server answered the last dial); the client's routing
	// reads it without taking mu.
	until atomic.Int64

	mu     sync.Mutex
	idle   []*wconn
	active map[*wconn]struct{}
	closed bool
	// step is the length of the current backoff step, 0 when not
	// backing off; probing is set while one caller dials to end it.
	step    time.Duration
	probing bool
	lastErr error
}

func newConnPool(addr, wantDesign string, peerID int64, timeout time.Duration, maxIdle int) *connPool {
	if timeout <= 0 {
		timeout = dialTimeout
	}
	if maxIdle <= 0 {
		maxIdle = 4
	}
	return &connPool{
		addr:        addr,
		wantDesign:  wantDesign,
		peerID:      peerID,
		dialTimeout: timeout,
		maxIdle:     maxIdle,
		active:      make(map[*wconn]struct{}),
	}
}

// get returns a connection and whether it was freshly dialed. Pooled
// connections may have gone stale (the server restarted or died);
// callers retry IO failures on pooled connections and treat failures
// on fresh ones as the server being down. While the pool backs off it
// hands out idle connections but dials only once the step has ended,
// and then from one caller; the others fail fast until that probe
// is done.
func (p *connPool) get() (*wconn, bool, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, false, fmt.Errorf("client: pool for %s is closed", p.addr)
	}
	if n := len(p.idle); n > 0 {
		c := p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.active[c] = struct{}{}
		p.mu.Unlock()
		return c, false, nil
	}
	if p.step > 0 {
		now := time.Now().UnixNano()
		if p.probing || now < p.until.Load() {
			err := p.lastErr
			p.mu.Unlock()
			return nil, true, fmt.Errorf("client: %s backing off after failure: %w", p.addr, err)
		}
		// Routing keeps avoiding the replica while the probe dials.
		p.probing = true
		p.until.Store(now + int64(p.dialTimeout))
	}
	p.mu.Unlock()

	p.dials.Add(1)
	nc, err := net.DialTimeout("tcp", p.addr, p.dialTimeout)
	if err != nil {
		p.backoff(err)
		return nil, true, err
	}
	c := &wconn{nc: nc, wc: wire.NewConn(nc)}
	// A handshake that never ends would hold the probe forever.
	_ = nc.SetDeadline(time.Now().Add(p.dialTimeout))
	if err := handshake(c, p.wantDesign, p.peerID); err != nil {
		c.close()
		p.backoff(err)
		return nil, true, err
	}
	_ = nc.SetDeadline(time.Time{})
	p.mu.Lock()
	p.step, p.probing, p.lastErr = 0, false, nil
	p.until.Store(0)
	if p.closed {
		p.mu.Unlock()
		c.close()
		return nil, true, fmt.Errorf("client: pool for %s is closed", p.addr)
	}
	p.active[c] = struct{}{}
	p.mu.Unlock()
	return c, true, nil
}

// backoff starts a backoff step after err, a failure that says the
// server may be down: a failed dial or handshake, a transport failure
// on a fresh connection or inside a transaction, or a CodeDraining
// refusal. The step doubles per failure, bounded by dialBackoffMax and
// jittered so independent clients spread out. A failure while a step
// runs — another transaction on the same dead server — leaves it be;
// only the probe that ends a step, or a failure after it, starts the
// next.
func (p *connPool) backoff(err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.lastErr = err
	now := time.Now()
	if p.probing || now.UnixNano() >= p.until.Load() {
		p.step = min(max(2*p.step, dialBackoffMin), dialBackoffMax)
		p.until.Store(now.Add(jitter(p.step)).UnixNano())
		p.probing = false
	}
}

// put returns a healthy connection for reuse; surplus ones are closed.
func (p *connPool) put(c *wconn) {
	c.clearRequests()
	p.mu.Lock()
	delete(p.active, c)
	if p.closed || p.retired.Load() || len(p.idle) >= p.maxIdle {
		p.mu.Unlock()
		c.close()
		return
	}
	p.idle = append(p.idle, c)
	p.mu.Unlock()
}

// retire marks the pool for a replica that left the cluster: idle
// connections close now, connections serving an in-flight transaction
// finish it and close on return. Unlike closeAll, retire never severs
// an active connection — the departing server drains those.
func (p *connPool) retire() {
	p.mu.Lock()
	idle := p.idle
	p.idle = nil
	p.retired.Store(true)
	p.mu.Unlock()
	for _, c := range idle {
		c.close()
	}
}

// discard drops a connection whose state is unknown (IO error or
// unexpected reply).
func (p *connPool) discard(c *wconn) {
	p.mu.Lock()
	delete(p.active, c)
	p.mu.Unlock()
	c.close()
}

// closeAll closes idle AND checked-out connections and refuses further
// checkouts; blocked calls on active connections fail immediately.
func (p *connPool) closeAll() {
	p.mu.Lock()
	idle := p.idle
	p.idle = nil
	active := make([]*wconn, 0, len(p.active))
	for c := range p.active {
		active = append(active, c)
	}
	p.closed = true
	p.mu.Unlock()
	for _, c := range idle {
		c.close()
	}
	for _, c := range active {
		c.close()
	}
}

// handshake runs the client side of the Hello exchange: the server
// must speak exactly this build's protocol version and serve the
// design the caller expects.
func handshake(c *wconn, wantDesign string, peerID int64) error {
	if err := c.wc.Send(&wire.Hello{Proto: wire.ProtoVersion, PeerID: peerID}); err != nil {
		return err
	}
	msg, err := c.wc.Recv()
	if err != nil {
		return err
	}
	switch m := msg.(type) {
	case *wire.HelloOK:
		if m.Proto != wire.ProtoVersion {
			return fmt.Errorf("%w: server %d, client %d", wire.ErrVersionMismatch, m.Proto, wire.ProtoVersion)
		}
		if wantDesign != "" && m.Design != wantDesign {
			return fmt.Errorf("client: server replica %d serves design %q, client configured for %q",
				m.ID, m.Design, wantDesign)
		}
		return nil
	case *wire.Err:
		return fmt.Errorf("client: handshake rejected: %s", m.Msg)
	default:
		return fmt.Errorf("client: unexpected handshake reply %T", msg)
	}
}

// rpc runs one request/reply exchange on a pooled connection and
// returns the reply (see do). It refuses a reply the connection reuses
// as a decode target (wire.Reused): once the connection is back in the
// pool, its next caller could overwrite that reply. Such exchanges go
// through do.
func (p *connPool) rpc(req wire.Message, deadline time.Duration) (wire.Message, error) {
	var reply wire.Message
	err := p.do(req, deadline, func(m wire.Message) error {
		if wire.Reused(m) {
			return fmt.Errorf("client: %T reply to %T is a reused frame; exchange it through do", m, req)
		}
		reply = m
		return nil
	})
	return reply, err
}

// do runs one request/reply exchange on a pooled connection (see
// exchange) and hands the reply to use, which runs before the
// connection returns to the pool — the reply may be a decode target the
// connection reuses for its next frame, so use must not retain it.
// A positive deadline bounds the whole exchange (used by long polls so
// a one-way partition cannot park the caller forever).
func (p *connPool) do(req wire.Message, deadline time.Duration, use func(wire.Message) error) error {
	return p.doOn(func(*wconn) wire.Message { return req }, deadline, use)
}

// doOn is do with the request built on the checked-out connection, so
// a per-update verb can send the connection's reusable request struct
// instead of allocating one per call.
func (p *connPool) doOn(req func(c *wconn) wire.Message, deadline time.Duration, use func(wire.Message) error) error {
	c, reply, err := p.exchange(req, deadline)
	if err != nil {
		return err
	}
	err = use(reply)
	p.put(c)
	return err
}

// exchange is the pool's one checkout-and-exchange loop: it checks a
// connection out, sends it req(c) and reads the reply. A pooled
// connection that fails is stale, which says nothing about the server,
// so the next is tried at once; a fresh one that fails puts the pool
// into backoff and ends the loop. A NotLeader reply comes back as a
// NotLeaderError and an Err reply as a *protocolError carrying its
// code, both with the connection back in the pool; any other reply
// comes back with its connection still checked out, for the caller to
// put back or keep.
func (p *connPool) exchange(req func(c *wconn) wire.Message, deadline time.Duration) (*wconn, wire.Message, error) {
	var lastErr error
	// Enough attempts to drain a pool full of stale connections plus
	// one fresh dial.
	for range p.maxIdle + 2 {
		c, fresh, err := p.get()
		if err != nil {
			if lastErr == nil {
				return nil, nil, unsentError{err}
			}
			return nil, nil, err
		}
		if deadline > 0 {
			_ = c.nc.SetDeadline(time.Now().Add(deadline))
		}
		p.rpcs.Add(1)
		reply, err := roundTrip(c, req(c))
		if deadline > 0 {
			_ = c.nc.SetDeadline(time.Time{})
		}
		if err != nil {
			p.discard(c)
			lastErr = err
			if fresh {
				p.backoff(err)
				return nil, nil, err
			}
			continue
		}
		// The reply may be the connection's reused decode target: read
		// it before the connection goes back to the pool.
		switch m := reply.(type) {
		case *wire.NotLeader:
			err = NotLeaderError{Leader: int(m.Leader), Epoch: m.Epoch, Addr: m.Addr}
		case *wire.Err:
			err = &protocolError{code: m.Code, msg: fmt.Sprintf("client: %s: %s", p.addr, m.Msg)}
			if m.Code == wire.CodeDraining {
				p.backoff(err)
			}
		default:
			return c, reply, nil
		}
		p.put(c)
		return nil, nil, err
	}
	return nil, nil, fmt.Errorf("client: rpc to %s failed: %w", p.addr, lastErr)
}

// unsentError marks a request that never left this process: no
// connection to the server could be had (dial, handshake, cooldown or
// a closed pool). The server cannot have acted on it, so even a
// request that must not run twice may go to another node.
type unsentError struct{ err error }

func (e unsentError) Error() string { return e.err.Error() }
func (e unsentError) Unwrap() error { return e.err }

func roundTrip(c *wconn, req wire.Message) (wire.Message, error) {
	if err := c.wc.Send(req); err != nil {
		return nil, err
	}
	return c.wc.Recv()
}
