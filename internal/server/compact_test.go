package server

import (
	"testing"
	"time"

	"repro/internal/certifier"
	"repro/internal/repl/pipeline"
	"repro/internal/wal"
	"repro/internal/writeset"
)

// TestPaxosBackupCompactsToSnapshot: a Paxos backup's compaction drops
// every record at or below its snapshot, like any replica's. Only the
// leader keeps records for its peers; a backup's peer cursors are never
// updated (its peers fetch from the leader), so holding records above
// their horizon would keep the backup's whole history forever.
func TestPaxosBackupCompactsToSnapshot(t *testing.T) {
	dir := t.TempDir()
	opts := Options{
		Design:       "mm",
		Paxos:        true,
		ID:           1,
		Members:      []string{"127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3"},
		WALDir:       dir,
		ElectTimeout: time.Second,
	}
	e, err := newEngine(opts, newMetrics(opts.Design, opts.ID, true, 0), make(chan struct{}))
	if err != nil {
		t.Fatal(err)
	}
	recs := []certifier.Record{{Version: 1, Writeset: writeset.Schema("t")}}
	for v := int64(2); v <= 20; v++ {
		recs = append(recs, certifier.Record{Version: v, Writeset: writeset.New([]writeset.Entry{
			{Key: writeset.Key{Table: "t", Row: v}, Value: "x"},
		})})
	}
	e.ingest(recs)
	if e.hostCert() != nil {
		t.Fatal("a node that never campaigned hosts the certifier")
	}
	e.dur = pipeline.NewDurability(e.dur.W, 1) // compaction due at once
	e.maybeCompactDurable()
	e.disconnect()
	e.close()

	w, rec, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if rec.SnapVersion != 20 || rec.Base != 20 || len(rec.Records) != 0 {
		t.Fatalf("compacted backup log: snapshot %d, base %d, %d records; want 20, 20, 0",
			rec.SnapVersion, rec.Base, len(rec.Records))
	}
	if len(rec.Snapshot["t"]) != 19 {
		t.Fatalf("snapshot holds %d rows of t, want 19", len(rec.Snapshot["t"]))
	}
}
