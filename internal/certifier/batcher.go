package certifier

import (
	"sync"

	"repro/internal/writeset"
)

// Batcher is an opt-in group-commit front end for a Certifier: it
// collects certification requests that arrive while a flush is in
// progress and submits them together through CertifyBatch, so one
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
	flushing  bool
	batches   int64
	certified int64
}

// pendingCert is one parked request.
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
	p := &pendingCert{
		req:  Request{Snapshot: snapshot, Writeset: ws},
		done: make(chan struct{}),
	}
	b.mu.Lock()
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
	return p.res.Outcome, p.res.Err
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
	batch := b.pending[:n:n]
	if n == len(b.pending) {
		b.pending = nil // release the backing array
	} else {
		b.pending = b.pending[n:]
	}
	b.batches++
	b.certified += int64(n)
	b.mu.Unlock()

	reqs := make([]Request, n)
	for i, q := range batch {
		reqs[i] = q.req
	}
	results, err := b.cert.CertifyBatch(reqs)
	for i, q := range batch {
		if err != nil {
			q.res.Err = err
		} else {
			q.res = results[i]
		}
		close(q.done)
	}
	return true
}
