package client

import (
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/certifier"
	"repro/internal/wire"
)

// TestHandshakeRejectsOtherProtocolVersion: a server answering Hello
// with any version but wire.ProtoVersion fails the handshake with
// wire.ErrVersionMismatch.
func TestHandshakeRejectsOtherProtocolVersion(t *testing.T) {
	for _, proto := range []uint32{wire.ProtoVersion - 1, wire.ProtoVersion + 1} {
		cliEnd, srvEnd := net.Pipe()
		_ = cliEnd.SetDeadline(time.Now().Add(2 * time.Second))
		go func() {
			defer srvEnd.Close()
			wc := wire.NewConn(srvEnd)
			if _, err := wc.Recv(); err != nil {
				return
			}
			_ = wc.Send(&wire.HelloOK{Proto: proto, Design: "mm"})
		}()
		err := handshake(&wconn{nc: cliEnd, wc: wire.NewConn(cliEnd)}, "mm", -1)
		cliEnd.Close()
		if !errors.Is(err, wire.ErrVersionMismatch) {
			t.Fatalf("server proto %d: err = %v, want wire.ErrVersionMismatch", proto, err)
		}
	}
}

// TestStaleConnectionsRetryAtOnce: a pool whose idle connections all
// went stale when its server restarted reaches its fresh dial without
// sleeping — a stale connection says nothing about the server — on
// both paths through the pool's one exchange loop: a Link's request
// and a client's Begin.
func TestStaleConnectionsRetryAtOnce(t *testing.T) {
	addr := fakeServer(t)
	rows := []struct {
		name string
		pool func(t *testing.T) (*connPool, func() error)
	}{
		{"link fetch", func(t *testing.T) (*connPool, func() error) {
			l := NewLink(addr, "mm", -1, 0)
			t.Cleanup(l.Close)
			return l.pool, func() error {
				_, err := l.FetchSince(0, 0, func([]certifier.Record) {})
				return err
			}
		}},
		{"client begin", func(t *testing.T) (*connPool, func() error) {
			cl, err := New(Options{Servers: []string{addr}, Design: "mm"})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(cl.Close)
			return cl.reps[0].pool, func() error {
				tx, err := cl.BeginRead()
				if err != nil {
					return err
				}
				return tx.Commit()
			}
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			pool, op := row.pool(t)
			for range pool.maxIdle {
				nc, peer := net.Pipe()
				peer.Close()
				pool.idle = append(pool.idle, &wconn{nc: nc, wc: wire.NewConn(nc)})
			}
			start := time.Now()
			if err := op(); err != nil {
				t.Fatal(err)
			}
			if took := time.Since(start); took > 2*dialBackoffMin {
				t.Fatalf("took %v past %d stale connections, want no backoff sleep", took, pool.maxIdle)
			}
			if n := pool.dials.Load(); n != 1 {
				t.Fatalf("pool dialed %d times, want 1", n)
			}
		})
	}
}
