package sm

import (
	"errors"
	"testing"

	"repro/internal/repl"
	"repro/internal/sidb"
	"repro/internal/wal"
	"repro/internal/writeset"
)

// TestDurableMasterJournalsCommits: with Options.Durable the master's
// committed writesets ride the WAL's apply stream in commit order, and
// a database rebuilt from the journal matches the live master.
func TestDurableMasterJournalsCommits(t *testing.T) {
	fs := wal.NewMemFS()
	w, _, err := wal.Open(wal.Options{FS: fs, Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Options{Replicas: 2, Durable: true, Journal: w})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	if err := c.Load("t", 5, func(r int64) string { return "seed" }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		tx, err := c.BeginUpdate()
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Write("t", int64(i%5), "x"); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	c.Sync()
	want, err := c.TableDump(0, "t")
	if err != nil {
		t.Fatal(err)
	}
	w.Close()

	fs.PowerCycle(false) // power loss: commits were fsynced before ack
	_, rec, err := wal.Open(wal.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	db := sidb.New()
	if err := db.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
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

func TestDurableRequiresJournal(t *testing.T) {
	if _, err := New(Options{Replicas: 1, Durable: true}); err == nil {
		t.Fatal("Durable without Journal accepted")
	}
}

// closedJournal models a WAL whose graceful Close raced an in-flight
// commit: the append landed, but the group fsync reports ErrClosed.
type closedJournal struct{}

func (closedJournal) AppendApply(int64, writeset.Writeset) error { return nil }
func (closedJournal) Seq() int64                                 { return 1 }
func (closedJournal) Sync(int64) error                           { return wal.ErrClosed }

// TestCommitDuringCloseReturnsAmbiguousOutcome: a Sync failing with
// wal.ErrClosed is a clean-shutdown race, not a disk failure — Commit
// must report the unknown outcome instead of panicking the process,
// and must not look like an abort (a blind retry could double-apply).
func TestCommitDuringCloseReturnsAmbiguousOutcome(t *testing.T) {
	c, err := New(Options{Replicas: 1, Durable: true, Journal: closedJournal{}})
	if err != nil {
		t.Fatal(err)
	}
	// The schema is a master commit too, so it meets the same closed
	// journal; the table exists in memory either way.
	if err := c.CreateTable("t"); !errors.Is(err, wal.ErrClosed) {
		t.Fatalf("create table error %v, want wal.ErrClosed in the chain", err)
	}
	tx, err := c.BeginUpdate()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Write("t", 1, "v"); err != nil {
		t.Fatal(err)
	}
	err = tx.Commit()
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
