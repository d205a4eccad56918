package server_test

import (
	"errors"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/certifier"
	"repro/internal/client"
	"repro/internal/codec"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/wire"
)

// commitRow commits one row write through the pooled client, retrying
// certification aborts.
func commitRow(t *testing.T, cl *client.Client, table string, row int64, value string) {
	t.Helper()
	for {
		tx, err := cl.BeginUpdate()
		if err != nil {
			t.Fatalf("begin: %v", err)
		}
		if err := tx.Write(table, row, value); err != nil {
			t.Fatalf("write: %v", err)
		}
		err = tx.Commit()
		if err == nil {
			return
		}
		if errors.Is(err, repl.ErrAborted) {
			continue
		}
		t.Fatalf("commit: %v", err)
	}
}

// TestDurableReplicaRestartResumesViaFetchSince is the acceptance
// path: a WAL-backed replica is stopped, commits continue on the
// survivor, and the restarted replica resumes from its journaled
// cursor over FetchSince — no snapshot transfer (a static replica has
// no join path at all) — converging row-for-row with the survivor.
func TestDurableReplicaRestartResumesViaFetchSince(t *testing.T) {
	dir := t.TempDir()
	servers, cl := startCluster(t, "mm", 2, func(o *server.Options) {
		o.WALDir = dir
		o.Fsync = true
	})
	repDir := filepath.Join(dir, "g0-r1") // launch.Start's directory for replica 1
	if err := cl.CreateTable("acct"); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 20; i++ {
		commitRow(t, cl, "acct", i, "pre-crash")
	}
	cl.Sync()
	cl.Close()

	// The replica dies (its state survives only in the WAL).
	if err := servers[1].Close(); err != nil {
		t.Fatal(err)
	}

	// Life goes on at the host.
	solo, err := client.New(client.Options{Servers: []string{servers[0].Addr()}, Design: "mm"})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(20); i < 35; i++ {
		commitRow(t, solo, "acct", i, "while-down")
	}
	solo.Close()

	// Restart the replica from its WAL.
	restarted, err := server.New(server.Options{
		Design:   "mm",
		ID:       1,
		Listen:   "127.0.0.1:0",
		Primary:  servers[0].Addr(),
		Replicas: 2,
		WALDir:   repDir,
		Fsync:    true,
	})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer restarted.Close()
	restarted.Start()
	if v, ok := restarted.Resumed(); !ok || v == 0 {
		t.Fatalf("replica did not resume from its WAL (version %d, ok %v)", v, ok)
	}

	cl2, err := client.New(client.Options{
		Servers: []string{servers[0].Addr(), restarted.Addr()},
		Design:  "mm",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	if err := repl.CheckConvergence(cl2, []string{"acct"}); err != nil {
		t.Fatalf("restarted replica diverged: %v", err)
	}
	rows, err := cl2.TableDump(1, "acct")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 35 || rows[0] != "pre-crash" || rows[34] != "while-down" {
		t.Fatalf("restarted replica contents: %d rows, %q, %q", len(rows), rows[0], rows[34])
	}
}

// TestDurableHostRestart restarts the certifier host from its WAL: the
// certification log resumes at the last logged version (fresh commits
// continue the sequence) and all pre-restart data survives.
func TestDurableHostRestart(t *testing.T) {
	dir := t.TempDir()
	boot := func() *server.Server {
		srv, err := server.New(server.Options{
			Design:   "mm",
			ID:       0,
			Listen:   "127.0.0.1:0",
			Replicas: 1,
			WALDir:   dir,
			Fsync:    true,
		})
		if err != nil {
			t.Fatalf("boot: %v", err)
		}
		srv.Start()
		return srv
	}
	srv := boot()
	cl, err := client.New(client.Options{Servers: []string{srv.Addr()}, Design: "mm"})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 10; i++ {
		commitRow(t, cl, "t", i, "v1")
	}
	cl.Sync()
	cl.Close()
	srv.Close()

	srv2 := boot()
	defer srv2.Close()
	// The schema record is version 1, the commits 2..11.
	if v, ok := srv2.Resumed(); !ok || v != 11 {
		t.Fatalf("host resumed at %d (ok %v), want 11", v, ok)
	}
	cl2, err := client.New(client.Options{Servers: []string{srv2.Addr()}, Design: "mm"})
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	rows, err := cl2.TableDump(0, "t")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("recovered %d rows, want 10", len(rows))
	}
	// The version sequence continues where the log left off.
	commitRow(t, cl2, "t", 99, "post-restart")
	cl2.Sync()
	rows, err = cl2.TableDump(0, "t")
	if err != nil {
		t.Fatal(err)
	}
	if rows[99] != "post-restart" || len(rows) != 11 {
		t.Fatalf("post-restart state: %v", rows)
	}
}

// TestDurableHostRestartKeepsTwoPCState restarts an unreplicated
// certifier host from its WAL after it prepared one cross-shard
// fragment and decided another commit: the in-doubt fragment's key
// stays locked until its decision arrives, and Resolve answers commit
// for the decided one instead of presuming abort.
func TestDurableHostRestartKeepsTwoPCState(t *testing.T) {
	dir := t.TempDir()
	boot := func() (*server.Server, *client.Client) {
		srv, err := server.New(server.Options{
			Design:   "mm",
			ID:       0,
			Listen:   "127.0.0.1:0",
			Replicas: 1,
			WALDir:   dir,
			Fsync:    true,
		})
		if err != nil {
			t.Fatalf("boot: %v", err)
		}
		srv.Start()
		cl, err := client.New(client.Options{Servers: []string{srv.Addr()}, Design: "mm"})
		if err != nil {
			srv.Close()
			t.Fatal(err)
		}
		return srv, cl
	}
	prepare := func(cl *client.Client, id codec.TxnID, row int64, value string) {
		t.Helper()
		tx, err := cl.BeginUpdate()
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Write("t", row, value); err != nil {
			t.Fatal(err)
		}
		if vote, with, err := tx.(*client.Txn).Prepare(id, 0); !vote || err != nil {
			t.Fatalf("prepare %s: vote %v (conflict with %d), %v", id, vote, with, err)
		}
	}
	srv, cl := boot()
	if err := cl.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	commitRow(t, cl, "t", 1, "v1")
	commitRow(t, cl, "t", 2, "v1")
	prepare(cl, codec.TxnID{Epoch: 1, Seq: 1}, 1, "x")
	prepare(cl, codec.TxnID{Epoch: 1, Seq: 2}, 2, "y")
	if _, err := cl.DecideTxn(codec.TxnID{Epoch: 1, Seq: 2}, true); err != nil {
		t.Fatal(err)
	}
	cl.Close()
	srv.Close()

	srv, cl = boot()
	defer srv.Close()
	defer cl.Close()
	if commit, err := cl.ResolveTxn(codec.TxnID{Epoch: 1, Seq: 2}); err != nil || !commit {
		t.Fatalf("Resolve(decided) after restart = %v, %v; want commit", commit, err)
	}
	tx, err := cl.BeginUpdate()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Write("t", 1, "z"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, repl.ErrAborted) {
		t.Fatalf("a write to the in-doubt row after restart: %v, want an abort", err)
	}
	// The decision releases the lock, and the row takes writes again.
	if _, err := cl.DecideTxn(codec.TxnID{Epoch: 1, Seq: 1}, false); err != nil {
		t.Fatal(err)
	}
	commitRow(t, cl, "t", 1, "z")
	cl.Sync()
	rows, err := cl.TableDump(0, "t")
	if err != nil {
		t.Fatal(err)
	}
	if rows[1] != "z" || rows[2] != "y" {
		t.Fatalf("rows after restart: %v, want 1=z 2=y", rows)
	}
}

// TestDurableSMMasterRestart restarts a WAL-backed single-master
// node: committed updates survive and a slave keeps pulling from the
// rebuilt propagation log.
func TestDurableSMMasterRestart(t *testing.T) {
	dir := t.TempDir()
	boot := func() *server.Server {
		srv, err := server.New(server.Options{
			Design:   "sm",
			ID:       0,
			Listen:   "127.0.0.1:0",
			Replicas: 1,
			WALDir:   dir,
			Fsync:    true,
		})
		if err != nil {
			t.Fatalf("boot master: %v", err)
		}
		srv.Start()
		return srv
	}
	srv := boot()
	cl, err := client.New(client.Options{Servers: []string{srv.Addr()}, Design: "sm"})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 8; i++ {
		commitRow(t, cl, "t", i, "m1")
	}
	cl.Close()
	srv.Close()

	master := boot()
	defer master.Close()
	if v, ok := master.Resumed(); !ok || v == 0 {
		t.Fatalf("master did not resume (version %d, ok %v)", v, ok)
	}

	// A fresh slave catches up from the rebuilt propagation log.
	slave, err := server.New(server.Options{
		Design:   "sm",
		ID:       1,
		Listen:   "127.0.0.1:0",
		Primary:  master.Addr(),
		Replicas: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer slave.Close()
	slave.Start()
	cl2, err := client.New(client.Options{Servers: []string{master.Addr(), slave.Addr()}, Design: "sm"})
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	commitRow(t, cl2, "t", 50, "m2")
	deadline := time.Now().Add(5 * time.Second)
	for {
		cl2.Sync()
		rows, err := cl2.TableDump(1, "t")
		if err == nil && len(rows) == 9 && rows[50] == "m2" && rows[0] == "m1" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slave never converged: %v (%v)", rows, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestJoinRejectsNonEmptyWAL: a joiner must start from a fresh WAL —
// replaying an old incarnation under a newly assigned id and snapshot
// would double-apply history.
func TestJoinRejectsNonEmptyWAL(t *testing.T) {
	servers, _ := startCluster(t, "mm", 1, nil)
	dir := t.TempDir()
	w, _, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append([]certifier.Record{{Version: 1}}); err != nil {
		t.Fatal(err)
	}
	w.Close()

	_, err = server.New(server.Options{
		Design:  "mm",
		Listen:  "127.0.0.1:0",
		Join:    true,
		Primary: servers[0].Addr(),
		WALDir:  dir,
	})
	if err == nil || !strings.Contains(err.Error(), "empty WAL") {
		t.Fatalf("join with stale WAL: %v", err)
	}
}

// TestAcceptorLogRefusedAtBoot: a WAL directory that still holds an
// acceptor.log — a Paxos acceptor's separate store in the earlier
// two-log layout — is refused at boot, before the WAL is opened:
// starting without its promises could break one a proposer already
// acted on.
func TestAcceptorLogRefusedAtBoot(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "acceptor.log"), []byte("promises"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := server.New(server.Options{
		Design: "mm", Paxos: true, ID: 0, Listen: "127.0.0.1:0",
		Members: []string{"127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3"}, WALDir: dir,
	})
	if !errors.Is(err, server.ErrAcceptorLog) {
		t.Fatalf("boot over a directory holding acceptor.log: %v, want ErrAcceptorLog", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "wal.log")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("the refused boot created a WAL segment: %v", err)
	}
}

// TestWALSurvivesTornTailOnDisk writes a real on-disk WAL, corrupts
// its tail, and restarts the server over it: recovery truncates the
// tear and serves the clean prefix.
func TestWALSurvivesTornTailOnDisk(t *testing.T) {
	dir := t.TempDir()
	srv, err := server.New(server.Options{
		Design: "mm", ID: 0, Listen: "127.0.0.1:0", Replicas: 1, WALDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	cl, err := client.New(client.Options{Servers: []string{srv.Addr()}, Design: "mm"})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 5; i++ {
		commitRow(t, cl, "t", i, "ok")
	}
	cl.Sync()
	cl.Close()
	srv.Close()

	// Tear the tail: a torn frame header mid-write.
	seg := filepath.Join(dir, "wal.log")
	appendBytes(t, seg, []byte{0x00, 0x00, 0x99, 0x99, 0x12})

	srv2, err := server.New(server.Options{
		Design: "mm", ID: 0, Listen: "127.0.0.1:0", Replicas: 1, WALDir: dir,
	})
	if err != nil {
		t.Fatalf("restart over torn WAL: %v", err)
	}
	defer srv2.Close()
	srv2.Start()
	if v, ok := srv2.Resumed(); !ok || v != 6 { // schema record + 5 commits
		t.Fatalf("resumed at %d (ok %v), want 6", v, ok)
	}
}

// appendBytes appends raw bytes to a file on disk.
func appendBytes(t *testing.T, path string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
}

// TestClientCommitUnknownOutcome pins the typed error for a connection
// that dies mid-commit: the driver must NOT see ErrAborted (a blind
// retry could double-apply a durably committed transaction) but a
// repl.UnknownOutcomeError wrapping the transport failure.
func TestClientCommitUnknownOutcome(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func(nc net.Conn) {
				wc := wire.NewConn(nc)
				for {
					msg, err := wc.Recv()
					if err != nil {
						nc.Close()
						return
					}
					switch msg.(type) {
					case *wire.Hello:
						if wc.Send(&wire.HelloOK{Proto: wire.ProtoVersion, Design: "mm"}) != nil {
							nc.Close()
							return
						}
					case *wire.Begin:
						if wc.Send(&wire.BeginOK{}) != nil {
							nc.Close()
							return
						}
					case *wire.Write:
						if wc.Send(&wire.WriteOK{}) != nil {
							nc.Close()
							return
						}
					case *wire.Commit:
						// The replica dies with the commit in flight.
						nc.Close()
						return
					default:
						nc.Close()
						return
					}
				}
			}(nc)
		}
	}()

	cl, err := client.New(client.Options{Servers: []string{ln.Addr().String()}, Design: "mm"})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	tx, err := cl.BeginUpdate()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Write("t", 1, "x"); err != nil {
		t.Fatal(err)
	}
	err = tx.Commit()
	if err == nil {
		t.Fatal("commit over a dying connection succeeded")
	}
	var uo *repl.UnknownOutcomeError
	if !errors.As(err, &uo) {
		t.Fatalf("want UnknownOutcomeError, got %T: %v", err, err)
	}
	if uo.Err == nil {
		t.Fatal("UnknownOutcomeError lost the transport cause")
	}
	if errors.Is(err, repl.ErrAborted) {
		t.Fatal("unknown-outcome commit matches ErrAborted: drivers would retry and double-apply")
	}
}

// TestMidTxnFailureStillAborts guards the complement: a connection
// that dies before Commit still surfaces as a retryable abort, not an
// unknown outcome.
func TestMidTxnFailureStillAborts(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func(nc net.Conn) {
				wc := wire.NewConn(nc)
				for {
					msg, err := wc.Recv()
					if err != nil {
						nc.Close()
						return
					}
					switch msg.(type) {
					case *wire.Hello:
						if wc.Send(&wire.HelloOK{Proto: wire.ProtoVersion, Design: "mm"}) != nil {
							nc.Close()
							return
						}
					case *wire.Begin:
						if wc.Send(&wire.BeginOK{}) != nil {
							nc.Close()
							return
						}
					default:
						nc.Close() // dies on the first in-transaction op
						return
					}
				}
			}(nc)
		}
	}()
	cl, err := client.New(client.Options{Servers: []string{ln.Addr().String()}, Design: "mm"})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	tx, err := cl.BeginUpdate()
	if err != nil {
		t.Fatal(err)
	}
	err = tx.Write("t", 1, "x")
	if !errors.Is(err, repl.ErrAborted) {
		t.Fatalf("mid-transaction death should abort-and-retry, got %v", err)
	}
	var uo *repl.UnknownOutcomeError
	if errors.As(err, &uo) {
		t.Fatal("mid-transaction failure misclassified as unknown outcome")
	}
}
