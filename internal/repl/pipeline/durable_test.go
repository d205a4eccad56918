package pipeline_test

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/repl/pipeline"
	"repro/internal/wal"
	"repro/internal/writeset"
)

// TestMaybeCompactSerializesCaptureAndRewrite pins the fix for the
// concurrent-compaction data loss: two goroutines could capture
// snapshots out of order and the one holding the OLDER capture could
// rewrite the WAL after its competitor compacted with a newer one —
// dropping the newer snapshot while the records it superseded were
// already gone. MaybeCompact must hold its lock across BOTH the
// capture and the rewrite: a second caller may not start its capture
// while the first is mid-compaction.
func TestMaybeCompactSerializesCaptureAndRewrite(t *testing.T) {
	fs := wal.NewMemFS()
	w, _, err := wal.Open(wal.Options{FS: fs, Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	d := pipeline.NewDurability(w, 1) // any growth makes compaction due
	for v := int64(1); v <= 4; v++ {
		if err := w.AppendRecord(writeset.FromRows("t", v, []string{"x"}), v); err != nil {
			t.Fatal(err)
		}
	}

	entered := make(chan struct{}) // the first capture has started
	release := make(chan struct{}) // lets the first capture finish
	var captures atomic.Int32

	firstDone := make(chan struct{})
	go func() {
		defer close(firstDone)
		d.MaybeCompact(func() (int64, int64, map[string]map[int64]string, error) {
			captures.Add(1)
			close(entered)
			<-release
			return 4, 4, map[string]map[int64]string{"t": {1: "new"}}, nil
		})
	}()
	<-entered

	// The racing caller: its capture would be older (version 2). It must
	// block behind the first compaction, not interleave with it.
	secondDone := make(chan struct{})
	go func() {
		defer close(secondDone)
		d.MaybeCompact(func() (int64, int64, map[string]map[int64]string, error) {
			captures.Add(1)
			return 2, 2, map[string]map[int64]string{"t": {1: "old"}}, nil
		})
	}()
	time.Sleep(20 * time.Millisecond) // give an unserialized capture time to run
	if n := captures.Load(); n != 1 {
		t.Fatalf("second capture ran while the first was mid-compaction (%d captures)", n)
	}
	close(release)
	<-firstDone
	<-secondDone
	w.Close()

	// Whatever the second caller did once unblocked (skip on due(), or a
	// stale rewrite the WAL rejects), the newer snapshot must survive.
	fs.PowerCycle(true)
	_, rec, err := wal.Open(wal.Options{FS: fs, Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	if rec.SnapVersion != 4 || rec.Snapshot["t"][1] != "new" {
		t.Fatalf("recovered snapshot version %d %+v, want the newer capture (version 4)", rec.SnapVersion, rec.Snapshot)
	}
}
