//go:build !race

// The race detector changes allocation counts, so this allocation gate
// runs only in non-race builds.

package stats

import (
	"testing"
	"time"
)

// TestLatencyRecordAllocs pins Record to zero allocations: the servers
// record every transaction and commit-path stage into a Latency.
func TestLatencyRecordAllocs(t *testing.T) {
	l := NewLatency()
	d := time.Duration(0)
	if allocs := testing.AllocsPerRun(1000, func() {
		d += 37 * time.Microsecond
		l.Record(d)
	}); allocs != 0 {
		t.Fatalf("Record: %.2f allocs/op, want 0", allocs)
	}
}
