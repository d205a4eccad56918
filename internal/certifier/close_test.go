package certifier_test

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/certifier"
	"repro/internal/repl"
	"repro/internal/wal"
	"repro/internal/writeset"
)

// closingJournal is a WAL whose graceful Close races an in-flight
// commit: the record is appended, then the WAL closes before the
// commit's group fsync runs.
type closingJournal struct{ *wal.WAL }

func (j closingJournal) Sync(seq int64) error {
	j.WAL.Close()
	return j.WAL.Sync(seq)
}

// TestCommitDuringCloseReturnsAmbiguousOutcome: on an unreplicated
// certifier host — the single-master master included — a journal sync
// failing with wal.ErrClosed is a clean-shutdown race, not a disk
// failure. The commit reports its outcome unknown instead of being
// acknowledged or passed off as an abort (a blind retry could
// double-apply), and Since withholds the record, so no peer replicates
// a commit a restart could lose.
func TestCommitDuringCloseReturnsAmbiguousOutcome(t *testing.T) {
	w, _, err := wal.Open(wal.Options{FS: wal.NewMemFS(), Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	c := journaled(t, closingJournal{w})
	_, err = c.Certify(0, writeset.Rows("t", []int64{1}, []string{"x"}))
	if err == nil {
		t.Fatal("commit acknowledged although its durability is unknown")
	}
	if !errors.Is(err, wal.ErrClosed) || !strings.Contains(err.Error(), "commit outcome unknown") {
		t.Fatalf("commit error %v, want an outcome-unknown error wrapping wal.ErrClosed", err)
	}
	if errors.Is(err, repl.ErrAborted) {
		t.Fatalf("ambiguous outcome reported as an abort: %v", err)
	}
	if recs := c.Since(0); len(recs) != 0 {
		t.Fatalf("record of unknown durability served to peers: %+v", recs)
	}
}

// journaled returns an empty unreplicated certifier journaling to j,
// attached the one way a journal is: by Restore.
func journaled(t *testing.T, j certifier.Log) *certifier.Certifier {
	t.Helper()
	c, err := certifier.Restore(&certifier.Replay{}, 0, j)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestLogStages: a certify reports the stages of the log it crossed —
// a Paxos round on a replicated certifier, a journal append and its
// fsync on a WAL host — and none of the other log's.
func TestLogStages(t *testing.T) {
	stages := func(c *certifier.Certifier) []string {
		var got []string
		c.SetStageObserver(func(stage string, _ []int64, _ time.Duration) { got = append(got, stage) })
		if _, err := c.Certify(0, writeset.Rows("t", []int64{1}, []string{"x"})); err != nil {
			t.Fatal(err)
		}
		return got
	}
	replicated, _, err := certifier.NewReplicated(3)
	if err != nil {
		t.Fatal(err)
	}
	if got := stages(replicated); !slices.Equal(got, []string{"paxos"}) {
		t.Errorf("replicated certify stages %v, want [paxos]", got)
	}
	w, _, err := wal.Open(wal.Options{FS: wal.NewMemFS(), Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if got := stages(journaled(t, w)); !slices.Equal(got, []string{"journal", "fsync"}) {
		t.Errorf("WAL host certify stages %v, want [journal fsync]", got)
	}
}
