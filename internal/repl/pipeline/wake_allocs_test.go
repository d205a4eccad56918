//go:build !race

// The race detector makes sync.Pool drop items at random, so this
// allocation gate runs only in non-race builds.

package pipeline

import (
	"runtime"
	"testing"
	"time"
)

// TestNotifyBumpAllocs pins a commit's wakeup to zero allocations:
// Bump signals a parked long poll on the channel that poll reuses, and
// the poll's own WaitBeyond — park, wake, return — allocates nothing
// either. One P keeps the timer pool's hits deterministic.
func TestNotifyBumpAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	n := NewNotify()
	next, woke := make(chan int64), make(chan struct{})
	go func() {
		for v := range next {
			n.WaitBeyond(v, time.Minute, nil)
			woke <- struct{}{}
		}
	}()
	defer close(next)
	v := int64(0)
	cycle := func() {
		next <- v
		for parked := 0; parked == 0; runtime.Gosched() {
			n.mu.Lock()
			parked = len(n.waiting)
			n.mu.Unlock()
		}
		v++
		n.Bump(v)
		<-woke
	}
	cycle() // warm the waiter and the timer pool
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("Bump to a parked waiter and its WaitBeyond allocate %.1f times, want 0", allocs)
	}
}
