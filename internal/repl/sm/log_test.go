package sm

import (
	"errors"
	"testing"

	"repro/internal/repl"
	"repro/internal/sidb"
	"repro/internal/wal"
	"repro/internal/writeset"
)

// TestGCLog: the propagation log hands out only its dense prefix and
// prunes exactly what every slave has applied.
func TestGCLog(t *testing.T) {
	l := NewLog()
	for v := int64(1); v <= 10; v++ {
		l.Append(v, writeset.Rows("item", []int64{v}, []string{"v"}))
	}
	l.Append(12, writeset.Rows("item", []int64{12}, []string{"v"})) // 11 still in flight
	if got := l.SinceDense(4); len(got) != 6 || got[0].Version != 5 || got[5].Version != 10 {
		t.Fatalf("dense prefix past 4 = %d records", len(got))
	}
	if removed := l.GCBelow(10); removed != 10 {
		t.Fatalf("GC removed %d, want 10", removed)
	}
	if removed := l.GCBelow(10); removed != 0 {
		t.Fatalf("second GC removed %d", removed)
	}
	if l.Len() != 1 || len(l.SinceDense(10)) != 0 {
		t.Fatalf("after GC: %d retained, dense past 10 = %d", l.Len(), len(l.SinceDense(10)))
	}
}

// TestDurableMasterJournalsCommits: the master's commits — blind
// installs and transactions alike — are journaled as records in commit
// order, one per version, SyncCommit gates each on the group fsync, and
// a database rebuilt from the journal after a power loss matches the
// master.
func TestDurableMasterJournalsCommits(t *testing.T) {
	fs := wal.NewMemFS()
	w, _, err := wal.Open(wal.Options{FS: fs, Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	master := sidb.New()
	master.SetJournal(w.AppendRecord)
	install := func(ws writeset.Writeset) {
		t.Helper()
		version, err := Install(master, ws)
		if err != nil {
			t.Fatal(err)
		}
		if err := SyncCommit(w, version); err != nil {
			t.Fatal(err)
		}
	}
	if err := master.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	install(writeset.Schema("t"))
	install(writeset.Rows("t", []int64{0, 1, 2, 3, 4}, []string{"seed", "seed", "seed", "seed", "seed"}))
	for i := 0; i < 8; i++ {
		tx := master.Begin()
		if err := tx.Write("t", int64(i%5), "x"); err != nil {
			t.Fatal(err)
		}
		_, version, err := tx.Commit()
		if err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
		if err := SyncCommit(w, version); err != nil {
			t.Fatal(err)
		}
	}
	want, err := master.Dump("t")
	if err != nil {
		t.Fatal(err)
	}
	w.Close()

	fs.PowerCycle(false) // power loss: commits were fsynced before ack
	_, rec, err := wal.Open(wal.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rec.LastVersion(), master.Version(); got != want || int64(len(rec.Records)) != want {
		t.Fatalf("journal holds %d records up to %d, master at version %d", len(rec.Records), got, want)
	}
	db := sidb.New()
	if err := rec.Restore(db); err != nil {
		t.Fatal(err)
	}
	got, err := db.Dump("t")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("recovered %d rows, master has %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("row %d: recovered %q, master %q", k, got[k], v)
		}
	}
}

// closedJournal models a WAL whose graceful Close raced an in-flight
// commit: the append landed, but the group fsync reports ErrClosed.
type closedJournal struct{}

func (closedJournal) Seq() int64       { return 1 }
func (closedJournal) Sync(int64) error { return wal.ErrClosed }

// TestCommitDuringCloseReturnsAmbiguousOutcome: a Sync failing with
// wal.ErrClosed is a clean-shutdown race, not a disk failure — the
// commit must report the unknown outcome instead of panicking the
// process, and must not look like an abort (a blind retry could
// double-apply).
func TestCommitDuringCloseReturnsAmbiguousOutcome(t *testing.T) {
	err := SyncCommit(closedJournal{}, 1)
	if err == nil {
		t.Fatal("commit acknowledged although its durability is unknown")
	}
	if !errors.Is(err, wal.ErrClosed) {
		t.Fatalf("commit error %v, want wal.ErrClosed in the chain", err)
	}
	if errors.Is(err, repl.ErrAborted) {
		t.Fatalf("ambiguous outcome reported as an abort: %v", err)
	}
}
