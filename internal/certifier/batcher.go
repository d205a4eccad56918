package certifier

import (
	"slices"
	"sync"

	"repro/internal/writeset"
)

// Batcher is an opt-in group-commit front end for a Certifier: it
// collects certification requests that arrive while a flush is in
// progress and certifies them together as one CertifyBatch would, so one
// Paxos round (and one lock acquisition) is amortized over every
// request in the batch. This mirrors the paper's certifier, which
// logs writesets in batches to keep the certification service off the
// critical path (§6.3).
//
// The combining protocol is leaderless: the first goroutine to find
// no flush in progress becomes the flusher; everyone else parks on a
// channel and is handed its result. The flusher's own request always
// rides the first batch it flushes, after which any backlog that
// accumulated mid-flush is handed to a background drainer — so no
// client's commit latency is hostage to other clients' sustained
// load. Nothing waits to accumulate: a batch holds whatever arrived
// while the previous flush ran, so under low concurrency a request
// flushes immediately in a batch of one, adding no latency.
type Batcher struct {
	cert     *Certifier
	maxBatch int

	mu        sync.Mutex
	pending   []*pendingCert
	spare     []*pendingCert // the array pending swaps to when a batch is cut
	free      []*pendingCert // parked requests whose waiters have read their result
	flushing  bool
	batches   int64
	certified int64

	// Flusher scratch. Only the goroutine holding the flusher role
	// touches it, and the role passes between goroutines under mu.
	reqs    []Request
	results []Result
}

// pendingCert is one parked request. done is buffered to 1: the
// flusher sends one token per enqueue, and the waiter reads it before
// the pendingCert goes back to the free list, so a recycled one never
// carries a token or a result over.
type pendingCert struct {
	req  Request
	res  Result
	done chan struct{}
}

// DefaultMaxBatch bounds a single group commit; past a few hundred
// requests the Paxos round is fully amortized and larger batches only
// add commit latency.
const DefaultMaxBatch = 256

// NewBatcher wraps cert with a group-commit front end. maxBatch <= 0
// selects DefaultMaxBatch.
func NewBatcher(cert *Certifier, maxBatch int) *Batcher {
	if maxBatch <= 0 {
		maxBatch = DefaultMaxBatch
	}
	return &Batcher{cert: cert, maxBatch: maxBatch}
}

// Certify submits one certification request through the group-commit
// path. It blocks until the request's batch is durable and returns
// the same outcome sequential certification would have produced.
func (b *Batcher) Certify(snapshot int64, ws writeset.Writeset) (Outcome, error) {
	b.mu.Lock()
	var p *pendingCert
	if n := len(b.free); n > 0 {
		p = b.free[n-1]
		b.free[n-1] = nil
		b.free = b.free[:n-1]
	} else {
		p = &pendingCert{done: make(chan struct{}, 1)}
	}
	p.req = Request{Snapshot: snapshot, Writeset: ws}
	becomeFlusher := !b.flushing
	if becomeFlusher {
		b.flushing = true
	}
	b.pending = append(b.pending, p)
	b.mu.Unlock()

	if becomeFlusher {
		// The queue was empty when this request enqueued (a retiring
		// flusher drains it before releasing the role), so our request
		// rides the first batch.
		b.flushOnce()
		// Requests that arrived mid-flush are someone else's latency:
		// hand them to a background drainer instead of flushing
		// forever on this caller's commit path.
		b.mu.Lock()
		if len(b.pending) == 0 {
			b.flushing = false
			b.mu.Unlock()
		} else {
			b.mu.Unlock()
			go b.drain()
		}
	}
	<-p.done
	res := p.res
	p.res = Result{}
	b.mu.Lock()
	b.free = append(b.free, p)
	b.mu.Unlock()
	return res.Outcome, res.Err
}

// drain flushes the backlog a retiring flusher left behind, cutting
// each batch as soon as it runs: requests that arrive during one flush
// ride the next.
func (b *Batcher) drain() {
	for b.flushOnce() {
	}
}

// flushOnce takes one batch off the queue and certifies it, waking
// the batch's waiters. It returns false — atomically releasing the
// flusher role — when the queue is empty.
func (b *Batcher) flushOnce() bool {
	b.mu.Lock()
	n := len(b.pending)
	if n == 0 {
		b.flushing = false
		b.mu.Unlock()
		return false
	}
	if n > b.maxBatch {
		n = b.maxBatch
	}
	// The batch keeps the pending array; whatever it leaves behind moves
	// to the spare one, which takes new arrivals. The previous batch's
	// array is free to be the spare: the flusher role is exclusive, so
	// that batch finished before this one was cut.
	batch := b.pending[:n]
	b.pending = append(b.spare[:0], b.pending[n:]...)
	b.spare = batch[:0]
	b.batches++
	b.certified += int64(n)
	b.mu.Unlock()

	for _, q := range batch {
		b.reqs = append(b.reqs, q.req)
		q.req = Request{}
	}
	b.results = slices.Grow(b.results[:0], n)[:n]
	err := b.cert.certify(b.reqs, b.results)
	for i, q := range batch {
		if err != nil {
			q.res.Err = err
		} else {
			q.res = b.results[i]
		}
		q.done <- struct{}{}
	}
	clear(batch[:cap(batch)])
	clear(b.reqs)
	clear(b.results)
	b.reqs = b.reqs[:0]
	return true
}
