// Package lb provides the least-loaded load balancer the pooled client
// places in front of the replicas of both designs (§5). Load is the
// number of outstanding transactions per replica; the balancer routes
// each new transaction to a replica with minimal load among the
// eligible set.
package lb

import (
	"errors"
	"sync"
)

// ErrNoEligible reports that no replica matched the eligibility
// predicate.
var ErrNoEligible = errors.New("lb: no eligible replica")

// Balancer tracks outstanding transactions per replica. It is safe
// for concurrent use.
//
// Membership is elastic: Add appends a new replica slot and Remove
// tombstones one. Slot indices are stable — removing a replica never
// renumbers the others, so callers can keep using an index as a
// replica identity. A removed slot is never acquired again, but
// in-flight transactions may still Release it.
//
// Replicas can additionally be marked unhealthy (SetHealthy), which
// the networked client pool uses when a server stops answering:
// acquisition prefers healthy replicas and falls back to unhealthy
// ones only when no healthy replica is eligible, so a dead replica is
// routed around without ever becoming unreachable for re-probing.
type Balancer struct {
	mu      sync.Mutex
	counts  []int
	down    []bool
	removed []bool
	rr      int // rotating scan start for deterministic, unbiased ties
}

// New creates a balancer over n replicas, all healthy. It panics if
// n <= 0.
func New(n int) *Balancer {
	if n <= 0 {
		panic("lb: need at least one replica")
	}
	return &Balancer{counts: make([]int, n), down: make([]bool, n), removed: make([]bool, n)}
}

// Add appends a new healthy replica slot and returns its index.
func (b *Balancer) Add() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.counts = append(b.counts, 0)
	b.down = append(b.down, false)
	b.removed = append(b.removed, false)
	return len(b.counts) - 1
}

// Remove tombstones replica i: it will never be acquired again, but
// outstanding transactions may still Release it. Removing an already
// removed slot is a no-op.
func (b *Balancer) Remove(i int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.removed[i] = true
}

// Removed reports whether slot i has been tombstoned.
func (b *Balancer) Removed(i int) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.removed[i]
}

// AcquireWhere picks the least-loaded healthy replica among those for
// which eligible returns true, falling back to unhealthy eligible
// replicas when no healthy one exists. Removed slots are never
// eligible.
//
// Ties rotate: the scan starts one slot further on every acquisition,
// so equally loaded replicas take turns instead of the lowest index
// always winning — after a removal, survivors above the hole would
// otherwise see systematically less traffic than those below it. The
// rotation is part of the balancer's own state, so routing remains
// deterministic for a given call sequence.
func (b *Balancer) AcquireWhere(eligible func(i int) bool) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := len(b.counts)
	start := b.rr % n
	best := -1
	for _, wantHealthy := range []bool{true, false} {
		for off := 0; off < n; off++ {
			i := start + off
			if i >= n {
				i -= n
			}
			if b.removed[i] || b.down[i] == wantHealthy || !eligible(i) {
				continue
			}
			if best == -1 || b.counts[i] < b.counts[best] {
				best = i
			}
		}
		if best != -1 {
			break
		}
	}
	if best == -1 {
		return 0, ErrNoEligible
	}
	b.counts[best]++
	b.rr++
	return best, nil
}

// SetHealthy marks replica i healthy or unhealthy.
func (b *Balancer) SetHealthy(i int, healthy bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.down[i] = !healthy
}

// Healthy reports whether replica i is currently marked healthy.
func (b *Balancer) Healthy(i int) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return !b.down[i]
}

// Release returns a transaction slot on replica i. Releasing below
// zero panics: it means the caller double-released.
func (b *Balancer) Release(i int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.counts[i] <= 0 {
		panic("lb: release without acquire")
	}
	b.counts[i]--
}

// Size returns the number of replica slots, including removed ones
// (slot indices are stable).
func (b *Balancer) Size() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.counts)
}
