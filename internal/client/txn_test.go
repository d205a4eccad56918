package client

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"

	"repro/internal/wire"
)

// fakeServer serves the per-transaction verbs on loopback: Begin,
// Commit and Abort succeed, Write and Delete ack, and Read returns
// "<table>/<row>". It stops once the test's client has closed its
// connections.
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
		case *wire.Write, *wire.Delete:
			reply = &wire.WriteOK{}
		case *wire.Commit:
			reply = &wire.CommitOK{}
		case *wire.Abort:
			reply = &wire.AbortOK{}
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
// B's Send.
func TestFinishedTxnLeavesReusedConnAlone(t *testing.T) {
	for _, pipeline := range []bool{false, true} {
		t.Run(fmt.Sprintf("pipeline=%v", pipeline), func(t *testing.T) {
			cl, err := New(Options{Servers: []string{fakeServer(t)}, Design: "mm", Pipeline: pipeline})
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
