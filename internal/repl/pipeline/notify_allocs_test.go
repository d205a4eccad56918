//go:build !race

// The race detector makes sync.Pool drop items at random, so this
// allocation gate runs only in non-race builds.

package pipeline_test

import (
	"testing"
	"time"

	"repro/internal/repl/pipeline"
)

// TestWaitBeyondAllocs pins the long poll to zero allocations: one
// runs per peer fetch, so both the already-published return and a
// wait that times out must reuse what they need.
func TestWaitBeyondAllocs(t *testing.T) {
	n := pipeline.NewNotify()
	n.Bump(5)
	if allocs := testing.AllocsPerRun(100, func() { n.WaitBeyond(4, time.Second, nil) }); allocs != 0 {
		t.Errorf("already-published WaitBeyond allocates %.1f times, want 0", allocs)
	}
	n.WaitBeyond(5, time.Microsecond, nil) // warm the timer pool
	if allocs := testing.AllocsPerRun(20, func() { n.WaitBeyond(5, time.Microsecond, nil) }); allocs != 0 {
		t.Errorf("timed-out WaitBeyond allocates %.1f times, want 0", allocs)
	}
}
