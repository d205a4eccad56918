package server_test

import (
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/internal/workload"
)

// pipelinedClient opens a second pooled client over the same cluster
// with request pipelining on.
func pipelinedClient(t *testing.T, servers []*server.Server, design string) *client.Client {
	t.Helper()
	addrs := make([]string, len(servers))
	for i, s := range servers {
		addrs[i] = s.Addr()
	}
	cl, err := client.New(client.Options{Servers: addrs, Design: design, Pipeline: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

// TestLoopbackMMPipelined is the pipelined three-node equivalence
// test: a pipelining client drives the standard mix and every replica
// must converge row-for-row, exactly as with the lockstep client.
func TestLoopbackMMPipelined(t *testing.T) {
	servers, _ := startCluster(t, "mm", 3, nil)
	driveAndCheck(t, pipelinedClient(t, servers, "mm"), 4, 25)
}

// TestLoopbackMMPipelinedEagerCert covers the documented semantic
// shift: with eager certification an abort detected at a pipelined
// write surfaces at the next sync point instead of the write itself;
// the driver's retry loop must still converge the cluster.
func TestLoopbackMMPipelinedEagerCert(t *testing.T) {
	servers, _ := startCluster(t, "mm", 3, func(o *server.Options) {
		o.EagerCert = true
	})
	driveAndCheck(t, pipelinedClient(t, servers, "mm"), 4, 25)
}

// TestLoopbackMMPipelinedGroupCommit exercises pipelining against the
// adaptive group-commit certifier.
func TestLoopbackMMPipelinedGroupCommit(t *testing.T) {
	servers, _ := startCluster(t, "mm", 3, func(o *server.Options) { o.GroupCommit = true })
	driveAndCheck(t, pipelinedClient(t, servers, "mm"), 6, 20)
}

// TestLoopbackSMPipelined runs the single-master design under a
// pipelining client.
func TestLoopbackSMPipelined(t *testing.T) {
	servers, _ := startCluster(t, "sm", 3, nil)
	driveAndCheck(t, pipelinedClient(t, servers, "sm"), 4, 25)
}

// TestPipelinedConflictAbortsTyped pins the abort semantics through
// the pipelined path: a write-write conflict detected at commit
// certification must come back as the same typed, retryable
// AbortedError the lockstep client produces, carrying the conflicting
// version.
func TestPipelinedConflictAbortsTyped(t *testing.T) {
	servers, setup := startCluster(t, "mm", 2, nil)
	if err := setup.CreateTable("item"); err != nil {
		t.Fatal(err)
	}
	cl := pipelinedClient(t, servers, "mm")

	tx1, err := cl.BeginUpdate()
	if err != nil {
		t.Fatal(err)
	}
	tx2, err := cl.BeginUpdate()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx1.Write("item", 1, "first"); err != nil {
		t.Fatal(err)
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	// tx2 snapshotted before tx1 committed; writing the same row must
	// abort at certification — surfaced when the pipelined acks drain
	// at Commit.
	if err := tx2.Write("item", 1, "second"); err != nil {
		t.Fatalf("pipelined write should not fail synchronously: %v", err)
	}
	err = tx2.Commit()
	if !errors.Is(err, repl.ErrAborted) {
		t.Fatalf("conflicting pipelined commit = %v, want ErrAborted", err)
	}
	var ab *repl.AbortedError
	if !errors.As(err, &ab) {
		t.Fatalf("want *repl.AbortedError, got %T: %v", err, err)
	}
}

// TestPipelinedMidTxnFailureStillAborts mirrors the lockstep guard: a
// connection dying under pipelined writes surfaces as a retryable
// abort at the commit-time drain — never an unknown outcome, because
// the Commit frame was never sent.
func TestPipelinedMidTxnFailureStillAborts(t *testing.T) {
	ln := mockReplica(t, func(wc *wire.Conn, nc net.Conn, msg wire.Message) bool {
		switch msg.(type) {
		case *wire.Begin:
			return wc.Send(&wire.BeginOK{}) == nil
		default:
			nc.Close() // dies on the first in-transaction op
			return false
		}
	})
	cl, err := client.New(client.Options{Servers: []string{ln}, Design: "mm", Pipeline: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	tx, err := cl.BeginUpdate()
	if err != nil {
		t.Fatal(err)
	}
	// The write streams without an ack; the dead peer shows up when the
	// acks drain at Commit.
	if err := tx.Write("t", 1, "x"); err != nil && !errors.Is(err, repl.ErrAborted) {
		t.Fatalf("pipelined write: %v", err)
	}
	err = tx.Commit()
	if !errors.Is(err, repl.ErrAborted) {
		t.Fatalf("want ErrAborted from the drain, got %v", err)
	}
	var uo *repl.UnknownOutcomeError
	if errors.As(err, &uo) {
		t.Fatal("pre-Commit failure misclassified as unknown outcome")
	}
}

// TestPipelinedCommitUnknownOutcome: when the acks drain cleanly and
// the connection dies only on the Commit frame itself, the pipelined
// client must classify it as unknown outcome, exactly like the
// lockstep client.
func TestPipelinedCommitUnknownOutcome(t *testing.T) {
	ln := mockReplica(t, func(wc *wire.Conn, nc net.Conn, msg wire.Message) bool {
		switch msg.(type) {
		case *wire.Begin:
			return wc.Send(&wire.BeginOK{}) == nil
		case *wire.Write:
			return wc.Send(&wire.WriteOK{}) == nil
		case *wire.Commit:
			nc.Close() // dies with the commit in flight
			return false
		default:
			nc.Close()
			return false
		}
	})
	cl, err := client.New(client.Options{Servers: []string{ln}, Design: "mm", Pipeline: true})
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
	var uo *repl.UnknownOutcomeError
	if !errors.As(err, &uo) {
		t.Fatalf("want UnknownOutcomeError, got %T: %v", err, err)
	}
	if errors.Is(err, repl.ErrAborted) {
		t.Fatal("unknown-outcome commit matches ErrAborted: drivers would retry and double-apply")
	}
}

// mockReplica runs a scripted wire server; handle returns false to
// stop serving the connection. Hello is always answered.
func mockReplica(t *testing.T, handle func(*wire.Conn, net.Conn, wire.Message) bool) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
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
					if _, ok := msg.(*wire.Hello); ok {
						if wc.Send(&wire.HelloOK{Proto: wire.ProtoVersion, Design: "mm"}) != nil {
							nc.Close()
							return
						}
						continue
					}
					if !handle(wc, nc, msg) {
						return
					}
				}
			}(nc)
		}
	}()
	return ln.Addr().String()
}

// TestCatchUpLongPolls is the busy-poll regression test: a caught-up
// consumer running Since in a tight loop must park on the server's
// long-poll window, not spin wait=0 round trips. Counted through the
// link's RPC counter at steady state.
func TestCatchUpLongPolls(t *testing.T) {
	servers, cl := startCluster(t, "mm", 2, nil)
	mix := workload.TPCWShopping()
	cat, err := workload.CatalogFor(mix)
	if err != nil {
		t.Fatal(err)
	}
	if err := repl.LoadCatalog(cl, cat, 1000); err != nil {
		t.Fatal(err)
	}
	if res := repl.Drive(cl, cat, mix, 2, 5, 1000, 1); res.Errors != 0 {
		t.Fatalf("drive errors: %+v", res)
	}

	l := client.NewLink(servers[0].Addr(), "mm", -1, 2*time.Second)
	defer l.Close()
	const wait = 100 * time.Millisecond
	l.SetSinceWait(wait)
	st, err := l.Stats()
	if err != nil {
		t.Fatal(err)
	}
	base := l.RoundTrips() // handshake-time RPCs plus the Stats call
	deadline := time.Now().Add(5 * wait)
	for time.Now().Before(deadline) {
		if recs := l.Since(st.Applied); len(recs) != 0 {
			t.Fatalf("unexpected new records at steady state: %d", len(recs))
		}
	}
	rpcs := l.RoundTrips() - base
	// Each steady-state fetch parks ~wait on the server, so ~5 fit in
	// the window; a busy-polling regression would issue hundreds.
	if rpcs > 20 {
		t.Fatalf("steady-state catch-up issued %d round trips in %v; long poll is not engaging", rpcs, 5*wait)
	}
	if rpcs == 0 {
		t.Fatal("no fetches counted; the regression test is not exercising the loop")
	}
}
