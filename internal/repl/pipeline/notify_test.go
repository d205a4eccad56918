package pipeline_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/repl/pipeline"
)

// TestWaitBeyondConcurrent parks many long polls at once against a
// publisher (meant for -race): pooled timers are shared across the
// waiters, and each waiter must still see every version it waits for.
func TestWaitBeyondConcurrent(t *testing.T) {
	n := pipeline.NewNotify()
	const waiters, versions = 8, 200
	var published atomic.Int64 // stored before each Bump
	var wg sync.WaitGroup
	for w := 0; w < waiters; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := int64(0); v < versions; v++ {
				if w%2 == 0 {
					// A long timeout: only the Bump of v+1 can end it.
					n.WaitBeyond(v, time.Minute, nil)
					if p := published.Load(); p <= v {
						t.Errorf("WaitBeyond(%d) returned with %d published", v, p)
						return
					}
					continue
				}
				// Short timeouts mix expiries in with wakes.
				for published.Load() <= v {
					n.WaitBeyond(v, time.Duration(w)*50*time.Microsecond, nil)
				}
			}
		}()
	}
	for v := int64(1); v <= versions; v++ {
		published.Store(v)
		n.Bump(v)
		if v%16 == 0 {
			time.Sleep(100 * time.Microsecond)
		}
	}
	wg.Wait()
}

// TestWaitBeyondWakesTimesOutAndStops covers the three ways a long
// poll ends, and checks that a timer recycled from an early wake never
// cuts a later wait short.
func TestWaitBeyondWakesTimesOutAndStops(t *testing.T) {
	n := pipeline.NewNotify()

	// Woken by a Bump well before the deadline; the deadline timer goes
	// back to the pool still armed for ~200ms.
	go func() {
		time.Sleep(5 * time.Millisecond)
		n.Bump(1)
	}()
	start := time.Now()
	n.WaitBeyond(0, 200*time.Millisecond, nil)
	if d := time.Since(start); d >= 200*time.Millisecond {
		t.Fatalf("Bump did not wake the waiter (returned after %v)", d)
	}

	// Let that timer's original deadline pass, then wait long on the
	// recycled timer: a stale expiry would end the wait at once.
	time.Sleep(250 * time.Millisecond)
	stop := make(chan struct{})
	time.AfterFunc(50*time.Millisecond, func() { close(stop) })
	start = time.Now()
	n.WaitBeyond(1, time.Minute, stop)
	if d := time.Since(start); d < 50*time.Millisecond || d > 30*time.Second {
		t.Fatalf("WaitBeyond ended after %v, want it to end when stop closed at 50ms", d)
	}

	// A Bump at or below v is not news: the wait runs to its deadline.
	go n.Bump(1)
	start = time.Now()
	n.WaitBeyond(1, 10*time.Millisecond, nil)
	if d := time.Since(start); d < 10*time.Millisecond {
		t.Fatalf("WaitBeyond(1) returned after %v on a stale bump", d)
	}
}
