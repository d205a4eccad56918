package mm_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/certifier"
	"repro/internal/client"
	"repro/internal/launch"
	"repro/internal/repl/pipeline"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/writeset"
)

// commitRows seeds table t and commits n row writes through cl.
func commitRows(t *testing.T, cl *client.Client, n int) {
	t.Helper()
	if err := cl.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Load("t", 10, func(int64) string { return "seed" }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		tx := begin(t, cl)
		if err := tx.Write("t", int64(i%10), "x"); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
}

// TestDurableCommitsJournalBeforeAck: with a WAL, fsync and group
// commit, the certifier host's journal alone rebuilds a certifier at
// the live version. The servers shut down cleanly here, so this checks
// what the journal holds, not the fsync-before-ack order; that order
// (acked ⊆ recovered at every kill point, group-commit batches
// included) is TestCrashSweep's in internal/wal.
func TestDurableCommitsJournalBeforeAck(t *testing.T) {
	c, cl := newCluster(t, 2, func(o *server.Options) {
		o.WALDir = t.TempDir()
		o.Fsync = true
		o.GroupCommit = true
	})
	commitRows(t, cl, 12)
	live := hostVersion(t, c)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	w, rec, err := wal.Open(wal.Options{Dir: c.Options[0][0].WALDir})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	recovered := certifier.NewFromRecords(rec.Records, rec.Base)
	if got := recovered.Version(); got != live {
		t.Fatalf("journal recovered version %d, live certifier %d", got, live)
	}
}

// TestDurableComposesWithReplicatedCertifier: a WAL and the
// Paxos-replicated certifier run together — every commit goes through
// a Paxos round AND lands in the journals, and a group restarted from
// its journals and acceptor logs alone recovers every commit and keeps
// certifying. Because the quorum, not the journal, is the durability
// authority, a dead journal under a replicated certifier detaches
// instead of withholding acks.
func TestDurableComposesWithReplicatedCertifier(t *testing.T) {
	c, cl := newCluster(t, 3, func(o *server.Options) {
		o.Paxos = true
		o.ElectTimeout = 200 * time.Millisecond
		o.WALDir = t.TempDir()
		o.Fsync = true
		o.GroupCommit = true
	})
	commitRows(t, cl, 8)
	cl.Sync()
	want, err := cl.TableDump(0, "t")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart every member from its options: same ids, addresses and
	// WAL directories.
	for i, opts := range c.Options[0] {
		srv, err := server.New(opts)
		if err != nil {
			t.Fatalf("restart %d: %v", i, err)
		}
		srv.Start()
		t.Cleanup(func() { srv.Close() })
		if _, ok := srv.Resumed(); !ok {
			t.Fatalf("member %d did not resume from its WAL", i)
		}
	}
	again, err := client.New(client.Options{Servers: c.Addrs(0), Design: "mm", ProbeAfter: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(again.Close)
	// The first commit after the restart waits out the new election.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(50 * time.Millisecond) {
		tx := begin(t, again)
		tx.Write("t", 0, "after-restart")
		err := tx.Commit()
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no commit after the restart: %v", err)
		}
	}
	again.Sync()
	for r := 0; r < 3; r++ {
		got, err := again.TableDump(r, "t")
		if err != nil {
			t.Fatal(err)
		}
		for row, v := range want {
			if row != 0 && got[row] != v {
				t.Fatalf("member %d row %d: recovered %q, had %q", r, row, got[row], v)
			}
		}
		if got[0] != "after-restart" {
			t.Fatalf("member %d missed the post-restart commit: %q", r, got[0])
		}
	}

	// A dead journal under the replicated certifier: the commit is still
	// acknowledged and the journal detaches.
	w, _, err := wal.Open(wal.Options{FS: wal.NewMemFS(), Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	cert, _, err := certifier.NewReplicated(3)
	if err != nil {
		t.Fatal(err)
	}
	cert.SetJournal(w)
	certify := func(label string) {
		t.Helper()
		ws := writeset.Rows("t", []int64{1}, []string{label})
		if out, err := cert.Certify(cert.Version(), ws); err != nil || !out.Committed {
			t.Fatalf("%s: %+v %v", label, out, err)
		}
	}
	certify("live journal")
	w.Close() // the journal dies
	certify("dead journal")
	if cert.JournalError() == nil {
		t.Fatal("dead journal did not detach")
	}
	certify("detached journal")
}

// TestDurableRequiresJournal pins the option validation: fsync needs a
// WAL directory.
func TestDurableRequiresJournal(t *testing.T) {
	_, err := launch.Start(1, 1, server.Options{Design: "mm", Fsync: true})
	if err == nil || !strings.Contains(err.Error(), "fsync requires a WAL directory") {
		t.Fatalf("fsync without a WAL accepted: %v", err)
	}
}

// TestDurableJournalFailureWithholdsAck: once the journal of an
// unreplicated certifier dies, certification through the host's commit
// stage fails rather than acknowledging a commit that is not durable.
func TestDurableJournalFailureWithholdsAck(t *testing.T) {
	w, _, err := wal.Open(wal.Options{FS: wal.NewMemFS(), Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	base := certifier.New()
	base.SetJournal(w)
	host := &pipeline.HostCert{Base: base, Notify: pipeline.NewNotify()}
	ws := writeset.Rows("t", []int64{1}, []string{"x"})
	if out, err := host.CertifyTraced(0, ws, 0); err != nil || !out.Committed {
		t.Fatalf("commit with a live journal: %+v %v", out, err)
	}
	w.Close() // the journal dies
	if out, err := host.CertifyTraced(base.Version(), ws, 0); err == nil {
		t.Fatalf("commit acknowledged with a dead journal: %+v", out)
	}
}
