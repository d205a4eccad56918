package client

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/wire"
	"repro/internal/writeset"
)

// LeaderAddr returns the ring's current leader guess.
func (r *LeaderRing) LeaderAddr() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if idx := r.follow.host(); idx < len(r.ring) {
		return r.ring[idx]
	}
	return ""
}

// fakeHost serves the handshake and answers every Certify with the
// reply answer returns; a nil reply drops the connection without one,
// as a host that crashes mid-commit does. It counts the Certify frames
// it reads.
func fakeHost(t *testing.T, answer func() wire.Message) (string, *atomic.Int32) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var certifies atomic.Int32
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
				defer nc.Close()
				wc := wire.NewConn(nc)
				for {
					msg, err := wc.Recv()
					if err != nil {
						return
					}
					var reply wire.Message = &wire.HelloOK{Proto: wire.ProtoVersion, Design: "mm"}
					if _, ok := msg.(*wire.Certify); ok {
						certifies.Add(1)
						if reply = answer(); reply == nil {
							return
						}
					}
					if wc.Send(reply) != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String(), &certifies
}

// TestRingCertifySentOnce: the ring moves a Certify to another node
// only when the first cannot have acted on it — a NotLeader reply or a
// failed dial. A reply lost after the host read the request returns at
// once: a resent copy would conflict with the record the first one may
// have committed, and the client would be told "aborted" for a
// committed transaction.
func TestRingCertifySentOnce(t *testing.T) {
	ws := writeset.Rows("t", []int64{1}, []string{"x"})
	committed := func() wire.Message { return &wire.CertifyOK{Committed: true, Version: 1} }

	t.Run("lost reply", func(t *testing.T) {
		host, certifies := fakeHost(t, func() wire.Message { return nil })
		r := NewLeaderRing([]string{host}, "mm", -1)
		t.Cleanup(r.Close)
		if _, err := r.CertifyTraced(0, ws, 0); err == nil {
			t.Fatal("certify with a lost reply succeeded")
		}
		if n := certifies.Load(); n != 1 {
			t.Fatalf("host read %d Certify frames, want 1", n)
		}
	})
	t.Run("redirect", func(t *testing.T) {
		leader, leaderCertifies := fakeHost(t, committed)
		backup, backupCertifies := fakeHost(t, func() wire.Message {
			return &wire.NotLeader{Leader: 1, Epoch: 1, Addr: leader}
		})
		r := NewLeaderRing([]string{backup, leader}, "mm", -1)
		t.Cleanup(r.Close)
		if out, err := r.CertifyTraced(0, ws, 0); err != nil || !out.Committed {
			t.Fatalf("certify through a redirect: %+v %v", out, err)
		}
		if b, l := backupCertifies.Load(), leaderCertifies.Load(); b != 1 || l != 1 {
			t.Fatalf("backup read %d and leader %d Certify frames, want 1 and 1", b, l)
		}
	})
	t.Run("dead guess", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		dead := ln.Addr().String()
		ln.Close()
		leader, certifies := fakeHost(t, committed)
		r := NewLeaderRing([]string{dead, leader}, "mm", -1)
		t.Cleanup(r.Close)
		if out, err := r.CertifyTraced(0, ws, 0); err != nil || !out.Committed {
			t.Fatalf("certify past a dead guess: %+v %v", out, err)
		}
		if n := certifies.Load(); n != 1 {
			t.Fatalf("leader read %d Certify frames, want 1", n)
		}
	})
}
