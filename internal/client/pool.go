package client

import (
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// Dial backoff bounds. After a fresh dial (or handshake) fails, the
// pool enters a cooldown that starts at dialBackoffMin and doubles per
// consecutive failure up to dialBackoffMax; a successful dial resets
// it. Retries inside one rpc call sleep the same jittered schedule, so
// a dead replica costs one timed-out dial and then fails fast instead
// of hammering the address from every caller at once.
const (
	dialBackoffMin = 50 * time.Millisecond
	dialBackoffMax = 1 * time.Second
)

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
// reusable request struct per per-transaction or per-update link verb.
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
	fetch   wire.FetchSince
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

	// rpcs counts request/reply exchanges attempted through rpc(),
	// including retries. Steady-state regression tests read it to
	// prove catch-up paths long-poll instead of busy polling.
	rpcs atomic.Int64

	mu      sync.Mutex
	idle    []*wconn
	active  map[*wconn]struct{}
	closed  bool
	retired bool
	// Cooldown after a failed fresh dial: until cooldownUntil passes,
	// get() fails immediately with the remembered error instead of
	// dialing again. cooldownDur doubles per consecutive failure
	// (bounded by dialBackoffMax) and resets on a successful dial.
	cooldownUntil time.Time
	cooldownDur   time.Duration
	lastDialErr   error
}

func newConnPool(addr, wantDesign string, peerID int64, dialTimeout time.Duration, maxIdle int) *connPool {
	if dialTimeout <= 0 {
		dialTimeout = 2 * time.Second
	}
	if maxIdle <= 0 {
		maxIdle = 4
	}
	return &connPool{
		addr:        addr,
		wantDesign:  wantDesign,
		peerID:      peerID,
		dialTimeout: dialTimeout,
		maxIdle:     maxIdle,
		active:      make(map[*wconn]struct{}),
	}
}

// get returns a connection and whether it was freshly dialed. Pooled
// connections may have gone stale (the server restarted or died);
// callers retry IO failures on pooled connections and treat failures
// on fresh ones as the server being down.
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
	if time.Now().Before(p.cooldownUntil) {
		err := p.lastDialErr
		p.mu.Unlock()
		return nil, true, fmt.Errorf("client: %s cooling down after dial failure: %w", p.addr, err)
	}
	p.mu.Unlock()

	nc, err := net.DialTimeout("tcp", p.addr, p.dialTimeout)
	if err != nil {
		p.noteDialFailure(err)
		return nil, true, err
	}
	c := &wconn{nc: nc, wc: wire.NewConn(nc)}
	if err := handshake(c, p.wantDesign, p.peerID); err != nil {
		c.close()
		p.noteDialFailure(err)
		return nil, true, err
	}
	p.mu.Lock()
	p.cooldownDur = 0
	p.cooldownUntil = time.Time{}
	p.lastDialErr = nil
	if p.closed {
		p.mu.Unlock()
		c.close()
		return nil, true, fmt.Errorf("client: pool for %s is closed", p.addr)
	}
	p.active[c] = struct{}{}
	p.mu.Unlock()
	return c, true, nil
}

// noteDialFailure records a failed fresh dial and extends the
// per-replica cooldown: doubling per consecutive failure, bounded by
// dialBackoffMax, jittered so independent clients spread out.
func (p *connPool) noteDialFailure(err error) {
	p.mu.Lock()
	if p.cooldownDur == 0 {
		p.cooldownDur = dialBackoffMin
	} else if p.cooldownDur < dialBackoffMax {
		p.cooldownDur *= 2
		if p.cooldownDur > dialBackoffMax {
			p.cooldownDur = dialBackoffMax
		}
	}
	p.cooldownUntil = time.Now().Add(jitter(p.cooldownDur))
	p.lastDialErr = err
	p.mu.Unlock()
}

// put returns a healthy connection for reuse; surplus ones are closed.
func (p *connPool) put(c *wconn) {
	p.mu.Lock()
	delete(p.active, c)
	if p.closed || p.retired || len(p.idle) >= p.maxIdle {
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
	p.retired = true
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

// do runs one request/reply exchange on a pooled connection, retrying
// stale pooled connections with a bounded, jittered exponential
// backoff between attempts. Err replies surface as a *protocolError
// carrying the code; NotLeader replies surface as a typed
// NotLeaderError so callers can follow the redirect; any other reply
// goes to use, which runs before the connection returns to the pool —
// the reply may be a decode target the connection reuses for its next
// frame, so use must not retain it.
// A positive deadline bounds the whole exchange (used by long polls so
// a one-way partition cannot park the caller forever).
func (p *connPool) do(req wire.Message, deadline time.Duration, use func(wire.Message) error) error {
	return p.doOn(func(*wconn) wire.Message { return req }, deadline, use)
}

// doOn is do with the request built on each checked-out connection, so
// a per-update verb can send the connection's reusable request struct
// instead of allocating one per call.
func (p *connPool) doOn(req func(c *wconn) wire.Message, deadline time.Duration, use func(wire.Message) error) error {
	var lastErr error
	backoff := dialBackoffMin
	// Retry enough times to drain a pool full of stale connections
	// plus one fresh dial.
	for attempt := 0; attempt <= p.maxIdle+1; attempt++ {
		if attempt > 0 {
			time.Sleep(jitter(backoff))
			if backoff < dialBackoffMax {
				backoff *= 2
			}
		}
		c, fresh, err := p.get()
		if err != nil {
			if lastErr == nil {
				return unsentError{err}
			}
			return err
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
				return err
			}
			continue
		}
		switch m := reply.(type) {
		case *wire.NotLeader:
			err = NotLeaderError{Leader: int(m.Leader), Epoch: m.Epoch, Addr: m.Addr}
		case *wire.Err:
			err = &protocolError{code: m.Code, msg: fmt.Sprintf("client: %s: %s", p.addr, m.Msg)}
		default:
			err = use(reply)
		}
		p.put(c)
		return err
	}
	return fmt.Errorf("client: rpc to %s failed: %w", p.addr, lastErr)
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
