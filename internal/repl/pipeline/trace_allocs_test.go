//go:build !race

// The race detector changes allocation counts, so this allocation gate
// runs only in non-race builds.

package pipeline

import (
	"testing"
	"time"
)

// TestTracerCommitAllocs pins a traced commit to zero allocations once
// the tracer's bounded maps are full: its meta, certifier stamp, span,
// apply (with its replication-lag observation) and ack reuse a span
// record the previous commit freed.
func TestTracerCommitAllocs(t *testing.T) {
	tr := NewTracer(nil, time.Hour)
	var lags int
	tr.SetLagObserver(func(time.Duration) { lags++ })
	obsv := tr.CertStages()
	versions := make([]int64, 1)
	v := int64(0)
	commit := func() {
		v++
		base := time.Now()
		tr.NoteCommitMeta(v, uint64(v), base.UnixNano())
		versions[0] = v
		obsv("journal", versions, time.Microsecond)
		tr.CommitSpan(v, 1, base, base.Add(time.Millisecond))
		tr.ApplyBatch(v-1, v, time.Microsecond, base.Add(2*time.Millisecond))
		tr.Ack(v, base.Add(3*time.Millisecond))
	}
	for range 2 * maxMeta {
		commit()
	}
	if allocs := testing.AllocsPerRun(1000, commit); allocs != 0 {
		t.Fatalf("traced commit: %.2f allocs/op, want 0", allocs)
	}
	if lags != int(v) {
		t.Fatalf("observed %d lags over %d applied versions", lags, v)
	}
}
