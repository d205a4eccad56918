// Package pipeline is the shared replication pipeline the replica
// server's engine is built on. A replica — multi-master or
// single-master, durable or in-memory — moves every
// committed writeset through the same four stages:
//
//	certify → journal → apply → ack/compact
//
// The stages are owned here, once; the engine injects the pieces that
// differ by role:
//
//   - certify: the certifier host (which under single-master is the
//     master) reads certified records from its local certifier, other
//     replicas over wire FetchSince. HostCert fronts the
//     host-side certifier with group commit, latency observation and
//     long-poll wakeups.
//   - journal: Durability is the write-ahead-log stage — version-ordered
//     appends ahead of apply, group fsync, advisory cursors, and
//     serialized snapshot compaction. Nodes without a WAL simply carry
//     none (the in-memory journal is its absence).
//   - apply: Applier installs certified records into the local sidb
//     database — in version order from the outside, conflict-aware
//     parallel on the inside (see applier.go).
//   - ack/compact: Notify wakes long-polling peers when versions
//     commit; PeerCursors tracks what every peer applied, bounding both
//     certification-log GC and WAL compaction.
//
// The server's role loop drives the stages: the certifier host applies
// its own log, every other replica long-polls the host through a
// client.LeaderRing and feeds the applier.
package pipeline

import (
	"slices"
	"sync"
	"time"

	"repro/internal/certifier"
	"repro/internal/writeset"
)

// Notify wakes long-polling peers when new versions commit. A parked
// waiter owns a channel buffered to 1, reused from wait to wait: Bump
// sends each parked waiter one token and unparks it, so publishing a
// version allocates nothing.
type Notify struct {
	mu      sync.Mutex
	latest  int64
	waiting []*waiter // parked, each owed at most one token
	free    []*waiter // idle, with empty channels
}

// waiter is one parked long poll.
type waiter struct{ ch chan struct{} }

// NewNotify returns a Notify with no version published yet.
func NewNotify() *Notify { return &Notify{} }

// Bump publishes version v, waking every waiter behind it.
func (n *Notify) Bump(v int64) {
	n.mu.Lock()
	if v > n.latest {
		n.latest = v
		for i, w := range n.waiting {
			w.ch <- struct{}{}
			n.waiting[i] = nil
		}
		n.waiting = n.waiting[:0]
	}
	n.mu.Unlock()
}

// park parks a waiter until the next Bump and returns it, or returns
// nil when a version > v is already published. w is the caller's
// waiter from an earlier park whose token it consumed (nil on the
// first call, which takes an idle one): it is parked again, or goes
// back idle when there is nothing left to wait for.
func (n *Notify) park(v int64, w *waiter) *waiter {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.latest > v {
		if w != nil {
			n.free = append(n.free, w)
		}
		return nil
	}
	if w == nil {
		if k := len(n.free); k > 0 {
			w = n.free[k-1]
			n.free[k-1] = nil
			n.free = n.free[:k-1]
		} else {
			w = &waiter{ch: make(chan struct{}, 1)}
		}
	}
	n.waiting = append(n.waiting, w)
	return w
}

// release retires w: a waiter still parked is unparked, and a token a
// Bump sent before the lock was taken is drained, so w goes back idle
// with an empty channel.
func (n *Notify) release(w *waiter) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if i := slices.Index(n.waiting, w); i >= 0 {
		last := len(n.waiting) - 1
		n.waiting[i] = n.waiting[last]
		n.waiting[last] = nil
		n.waiting = n.waiting[:last]
	} else {
		// Bump sends under the lock, so its token is already buffered.
		<-w.ch
	}
	n.free = append(n.free, w)
}

// timers recycles WaitBeyond's deadline timers. Under the timer
// semantics go.mod selects (Go 1.23+), Stop and Reset discard any
// pending expiry, so a recycled timer never delivers a stale tick.
var timers sync.Pool

// takeTimer returns a timer armed to fire after d.
func takeTimer(d time.Duration) *time.Timer {
	if t, ok := timers.Get().(*time.Timer); ok {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

// putTimer disarms t and returns it to the pool.
func putTimer(t *time.Timer) {
	t.Stop()
	timers.Put(t)
}

// WaitBeyond blocks until a version > v has been published, the
// timeout expires, or stop closes (so server shutdown interrupts
// parked long polls instead of waiting out their timers). A long poll
// runs once per peer fetch, so it allocates nothing: it returns before
// arming a timer when a newer version is already published, and
// otherwise borrows a pooled timer and an idle waiter.
func (n *Notify) WaitBeyond(v int64, timeout time.Duration, stop <-chan struct{}) {
	w := n.park(v, nil)
	if w == nil {
		return
	}
	deadline := takeTimer(timeout)
	defer putTimer(deadline)
	for {
		select {
		case <-w.ch:
			if w = n.park(v, w); w == nil {
				return
			}
		case <-deadline.C:
			n.release(w)
			return
		case <-stop:
			n.release(w)
			return
		}
	}
}

// PeerCursors tracks, per peer replica (keyed by the replica id the
// peer announced in its handshake, so reconnects and duplicate
// connections collapse onto one cursor), the version that peer had
// applied when it last long-polled. Once every expected peer has an
// active cursor, the primary can prune writesets everyone has applied
// — minus a safety lag, so certification requests from transactions
// that began a little while ago still find the versions they must be
// compared against (a snapshot below the pruned horizon).
type PeerCursors struct {
	// expected returns the number of pullers required before pruning
	// may run; it is a function because elastic membership changes it
	// at runtime. A negative value (unknown cluster size) disables
	// pruning entirely.
	expected func() int
	lag      int64 // retained margin below the horizon

	mu      sync.Mutex
	cursors map[int64]int64
}

// NewPeerCursors tracks an expected peer count that may change
// (elastic membership).
func NewPeerCursors(expected func() int, lag int64) *PeerCursors {
	return &PeerCursors{expected: expected, lag: lag, cursors: make(map[int64]int64)}
}

// Update advances a peer's cursor. Negative peer ids (ordinary client
// connections, not peer links) are ignored.
func (p *PeerCursors) Update(peer, v int64) {
	if peer < 0 {
		return
	}
	p.mu.Lock()
	if v > p.cursors[peer] {
		p.cursors[peer] = v
	}
	p.mu.Unlock()
}

// Drop removes a peer's cursor when its connection dies (the next
// long poll re-adds it).
func (p *PeerCursors) Drop(peer int64) {
	if peer < 0 {
		return
	}
	p.mu.Lock()
	delete(p.cursors, peer)
	p.mu.Unlock()
}

// Horizon returns the safe pruning bound given the primary's own
// applied version; ok is false while any expected peer lacks an
// active cursor (a dead or unjoined replica conservatively blocks
// pruning).
func (p *PeerCursors) Horizon(own int64) (int64, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	expected := p.expected()
	if expected < 0 || len(p.cursors) < expected {
		return 0, false
	}
	h := own
	for _, v := range p.cursors {
		if v < h {
			h = v
		}
	}
	h -= p.lag
	if h <= 0 {
		return 0, false
	}
	return h, true
}

// HostCert is the certification stage on the certifier host: the
// local certifier, optionally behind the group-commit batcher, with
// latency observation and long-poll wakeups. Both local transactions
// and remote Certify requests flow through here, so group commit
// batches across the whole cluster.
type HostCert struct {
	Base    *certifier.Certifier
	Batcher *certifier.Batcher // nil without group commit
	Notify  *Notify
	Observe func(time.Duration) // certification latency hook (may be nil)
	Tracer  *Tracer             // commit-path stage tracer (may be nil)
}

// CertifyTraced submits one commit-time certification request, waking
// long-pollers on commit. trace is the submitting transaction's
// cross-node trace id (0 for untraced callers). On commit the host
// stamps the authoritative commit wall-clock and records both against
// the assigned version, which is what propagated Records carry to the
// replicas and what the replication-lag observer measures against.
func (h *HostCert) CertifyTraced(snapshot int64, ws writeset.Writeset, trace uint64) (certifier.Outcome, error) {
	start := time.Now()
	var out certifier.Outcome
	var err error
	if h.Batcher != nil {
		out, err = h.Batcher.Certify(snapshot, ws)
	} else {
		out, err = h.Base.Certify(snapshot, ws)
	}
	if h.Observe != nil {
		h.Observe(time.Since(start))
	}
	if err == nil && out.Committed {
		done := time.Now()
		h.Tracer.NoteCommitMeta(out.Version, trace, done.UnixNano())
		h.Tracer.CommitSpan(out.Version, len(ws.Entries), start, done)
		h.Notify.Bump(out.Version)
	}
	return out, err
}

// Check probes a partial writeset for an already-certain conflict.
func (h *HostCert) Check(snapshot int64, ws writeset.Writeset) (bool, int64) {
	return h.Base.Check(snapshot, ws)
}

// PrepareTxn runs the first 2PC phase for a cross-shard fragment. It
// bypasses the batcher — prepares are rare, lock-holding operations
// that must not be reordered into a commit batch.
func (h *HostCert) PrepareTxn(p certifier.PreparedTxn) (bool, int64, error) {
	start := time.Now()
	vote, with, err := h.Base.Prepare(p)
	if h.Observe != nil {
		h.Observe(time.Since(start))
	}
	return vote, with, err
}

// DecideTxn applies the coordinator's decision; a commit lands in the
// record log, so long-pollers are woken just like an ordinary commit.
func (h *HostCert) DecideTxn(id string, commit bool) (int64, error) {
	version, err := h.Base.Decide(id, commit)
	if err == nil && commit && version > 0 {
		h.Notify.Bump(version)
	}
	return version, err
}

// ResolveTxn answers an in-doubt inquiry (coordinator side).
func (h *HostCert) ResolveTxn(id string) (bool, error) { return h.Base.Resolve(id) }

// ForgetTxn retires a fully acknowledged decision.
func (h *HostCert) ForgetTxn(id string) error { return h.Base.Forget(id) }
