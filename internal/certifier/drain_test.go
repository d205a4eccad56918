package certifier

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/writeset"
)

func oneRow(row int64) writeset.Writeset {
	return writeset.New([]writeset.Entry{
		{Key: writeset.Key{Table: "t", Row: row}, Value: "v"},
	})
}

// fillPending enqueues n parked requests directly, as arrivals during
// an in-flight flush would, each with the one-token done channel
// Certify gives it.
func fillPending(b *Batcher, start int64, n int) {
	b.mu.Lock()
	for i := 0; i < n; i++ {
		b.pending = append(b.pending, &pendingCert{
			req:  Request{Snapshot: b.cert.Version(), Writeset: oneRow(start + int64(i))},
			done: make(chan struct{}, 1),
		})
	}
	b.mu.Unlock()
}

// TestFirstArriverFlushesImmediately: with no flush in flight a lone
// request flushes at once, in a batch of one.
func TestFirstArriverFlushesImmediately(t *testing.T) {
	b := NewBatcher(New(), 0)
	start := time.Now()
	out, err := b.Certify(b.cert.Version(), oneRow(1))
	if err != nil || !out.Committed {
		t.Fatalf("Certify = %+v, %v", out, err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("lone request took %v; the first arriver must flush immediately", d)
	}
	if b.batches != 1 || b.certified != 1 {
		t.Fatalf("lone request flushed as %d batches of %d requests, want 1 of 1", b.batches, b.certified)
	}
}

// TestDrainCutsBatches parks a backlog the way arrivals during a flush
// do, runs the backlog drainer exactly as a retiring flusher would,
// and checks the batching arithmetic: every request answered, one
// batch per maxBatch requests, and the flusher role released at the
// end.
func TestDrainCutsBatches(t *testing.T) {
	const maxBatch = 64
	const n = 400
	b := NewBatcher(New(), maxBatch)
	fillPending(b, 0, n)
	b.mu.Lock()
	b.flushing = true
	parked := append([]*pendingCert(nil), b.pending...)
	b.mu.Unlock()

	b.drain()

	for i, p := range parked {
		select {
		case <-p.done:
		default:
			t.Fatalf("request %d never completed", i)
		}
		if p.res.Err != nil || !p.res.Outcome.Committed {
			t.Fatalf("disjoint request %d = %+v", i, p.res)
		}
	}
	b.mu.Lock()
	batches, requests, flushing := b.batches, b.certified, b.flushing
	b.mu.Unlock()
	if requests != n {
		t.Fatalf("batched requests = %d, want %d", requests, n)
	}
	if want := int64((n + maxBatch - 1) / maxBatch); batches != want {
		t.Fatalf("backlog of %d cut into %d batches, want %d", n, batches, want)
	}
	if v := b.cert.Version(); v != n {
		t.Fatalf("certifier version = %d, want %d", v, n)
	}
	if flushing {
		t.Fatal("drain retired without releasing the flusher role")
	}
}

// TestAdaptiveBatcherConcurrent is the black-box smoke: a concurrent
// burst of disjoint certifications all commit with distinct versions.
func TestAdaptiveBatcherConcurrent(t *testing.T) {
	b := NewBatcher(New(), 0)
	const n = 200
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(row int64) {
			defer wg.Done()
			out, err := b.Certify(0, oneRow(row))
			if err != nil {
				errs <- err
				return
			}
			if !out.Committed {
				errs <- fmt.Errorf("disjoint row %d aborted", row)
			}
		}(int64(i))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if v := b.cert.Version(); v != n {
		t.Fatalf("certifier version = %d, want %d", v, n)
	}
}
