package client

import (
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"testing"

	"repro/internal/codec"
	"repro/internal/repl"
	"repro/internal/wire"
	"repro/internal/writeset"
)

// fakeServer serves the per-transaction verbs on loopback: Begin,
// Commit and Abort succeed, Write and Delete ack, Read returns
// "<table>/<row>", and FetchSince answers with the two records after
// the requested version, each writing its own version number to row 0
// of table "t". A Commit after a Write to table "doomed"
// aborts, naming the written row as the conflicting version. It stops
// once the test's client has closed its connections.
func fakeServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				serveFake(nc)
			}()
		}
	}()
	return ln.Addr().String()
}

func serveFake(nc net.Conn) {
	defer nc.Close()
	wc := wire.NewConn(nc)
	doomed := int64(-1)
	for {
		msg, err := wc.Recv()
		if err != nil {
			return
		}
		var reply wire.Message
		switch m := msg.(type) {
		case *wire.Hello:
			reply = &wire.HelloOK{Proto: wire.ProtoVersion, Design: "mm"}
		case *wire.Begin:
			reply = &wire.BeginOK{}
		case *wire.Read:
			reply = &wire.ReadOK{OK: true, Value: fmt.Sprintf("%s/%d", m.Table, m.Row)}
		case *wire.Write:
			if m.Table == "doomed" {
				doomed = m.Row
			}
			reply = &wire.WriteOK{}
		case *wire.Delete:
			reply = &wire.WriteOK{}
		case *wire.Commit:
			reply = &wire.CommitOK{}
			if doomed >= 0 {
				reply, doomed = &wire.CommitAborted{ConflictWith: doomed}, -1
			}
		case *wire.Abort:
			reply = &wire.AbortOK{}
		case *wire.FetchSince:
			recs := make([]wire.Record, 2)
			for i := range recs {
				v := m.Version + int64(i) + 1
				recs[i] = wire.Record{Version: v, WS: writeset.New([]writeset.Entry{
					{Key: writeset.Key{Table: "t"}, Value: strconv.FormatInt(v, 10)},
				})}
			}
			reply = &wire.Records{Recs: recs}
		default:
			reply = &wire.Err{Code: wire.CodeBadRequest, Msg: fmt.Sprintf("unexpected %T", msg)}
		}
		if wc.Send(reply) != nil {
			return
		}
	}
}

// TestFinishedTxnLeavesReusedConnAlone: once transaction A commits,
// its pooled connection goes to transaction B. A's Read, Write and
// Delete — called concurrently with B's reads — must fail with the
// use-after-finish error without touching the connection's request
// scratch, and B's reads must come back intact. Run with -race: an
// operation that fills the scratch before checking done races with
// B's Send. The subtest names the lockstep client, the only mode the
// client has.
func TestFinishedTxnLeavesReusedConnAlone(t *testing.T) {
	t.Run("pipeline=false", func(t *testing.T) {
		cl, err := New(Options{Servers: []string{fakeServer(t)}, Design: "mm"})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cl.Close)
		ta, err := cl.BeginUpdate()
		if err != nil {
			t.Fatal(err)
		}
		if err := ta.Write("item", 1, "x"); err != nil {
			t.Fatal(err)
		}
		if err := ta.Commit(); err != nil {
			t.Fatal(err)
		}
		tb, err := cl.BeginRead()
		if err != nil {
			t.Fatal(err)
		}
		a, b := ta.(*Txn), tb.(*Txn)
		if a.conn != b.conn {
			t.Fatal("B did not take A's pooled connection")
		}

		const rounds = 200
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if _, _, err := a.Read("stale", 1); !errors.Is(err, errDone) {
					t.Errorf("finished Read: %v, want errDone", err)
					return
				}
				if err := a.Write("stale", 1, "x"); !errors.Is(err, errDone) {
					t.Errorf("finished Write: %v, want errDone", err)
					return
				}
				if err := a.Delete("stale", 1); !errors.Is(err, errDone) {
					t.Errorf("finished Delete: %v, want errDone", err)
					return
				}
			}
		}()
		for i := 0; i < rounds; i++ {
			want := fmt.Sprintf("item/%d", i)
			if v, ok, err := b.Read("item", int64(i)); err != nil || !ok || v != want {
				t.Errorf("B read %d = %q, %v, %v; want %q", i, v, ok, err, want)
				break
			}
		}
		wg.Wait()
		if err := b.Commit(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestFinishedTxnStaysDone: handles are not recycled, so a finished
// one stays finished while its connection — the pool's only one —
// serves the next transaction: its Read, Write, Commit and Prepare
// return the use-after-finish error, its Abort is a no-op, it reports
// no writes, and none of it reaches the connection the next
// transaction is using.
func TestFinishedTxnStaysDone(t *testing.T) {
	cl, err := New(Options{Servers: []string{fakeServer(t)}, Design: "mm", PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	ta, err := cl.BeginUpdate()
	if err != nil {
		t.Fatal(err)
	}
	if err := ta.Write("item", 1, "x"); err != nil {
		t.Fatal(err)
	}
	if err := ta.Commit(); err != nil {
		t.Fatal(err)
	}
	tb, err := cl.BeginUpdate()
	if err != nil {
		t.Fatal(err)
	}
	a, b := ta.(*Txn), tb.(*Txn)
	if a.conn != b.conn {
		t.Fatal("B did not take A's pooled connection")
	}
	for i := int64(0); i < 3; i++ {
		if _, _, err := a.Read("stale", i); !errors.Is(err, errDone) {
			t.Fatalf("finished Read: %v, want errDone", err)
		}
		if err := a.Write("stale", i, "x"); !errors.Is(err, errDone) {
			t.Fatalf("finished Write: %v, want errDone", err)
		}
		if err := a.Commit(); !errors.Is(err, errDone) {
			t.Fatalf("finished Commit: %v, want errDone", err)
		}
		if _, _, err := a.Prepare(codec.TxnID{Epoch: 1, Seq: 1}, 0); !errors.Is(err, errDone) {
			t.Fatalf("finished Prepare: %v, want errDone", err)
		}
		a.Abort()
		if a.HasWrites() {
			t.Fatal("finished handle reports writes")
		}
		want := fmt.Sprintf("item/%d", i)
		if v, ok, err := b.Read("item", i); err != nil || !ok || v != want {
			t.Fatalf("B read %d = %q, %v, %v; want %q", i, v, ok, err, want)
		}
	}
	if err := b.Write("item", 9, "y"); err != nil {
		t.Fatal(err)
	}
	if !b.HasWrites() {
		t.Fatal("B wrote but reports no writes")
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestCommitAbortReadsReplyBeforeRelease: an aborted Commit hands its
// connection back to the pool, where another transaction may receive
// its next CommitAborted into the same reused struct at once. The
// abort must carry its own conflicting version, read before the
// release. Run with -race: reading the reply after the release races
// with the other transaction's Recv.
func TestCommitAbortReadsReplyBeforeRelease(t *testing.T) {
	cl, err := New(Options{Servers: []string{fakeServer(t)}, Design: "mm", PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	var wg sync.WaitGroup
	for g := int64(0); g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); i < 100; i++ {
				row := g*1000 + i
				tx, err := cl.BeginUpdate()
				if err == nil {
					err = tx.Write("doomed", row, "x")
				}
				if err == nil {
					err = tx.Commit()
				}
				var ab *repl.AbortedError
				if !errors.As(err, &ab) || ab.ConflictWith != row {
					t.Errorf("commit of row %d = %v, want an abort naming version %d", row, err, row)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestRPCRefusesReusedReply: rpc hands its reply back after the
// connection returns to the pool, so it must refuse a reply type the
// connection reuses as a decode target; do serves those.
func TestRPCRefusesReusedReply(t *testing.T) {
	p := newConnPool(fakeServer(t), "mm", 0, 0, 0)
	t.Cleanup(p.closeAll)
	if reply, err := p.rpc(&wire.Commit{}, 0); err == nil {
		t.Fatalf("rpc returned the reused %T", reply)
	}
	if err := p.do(&wire.Commit{}, 0, func(m wire.Message) error {
		if _, ok := m.(*wire.CommitOK); !ok {
			return fmt.Errorf("reply %T", m)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
