package client

import (
	"errors"
	"net"
	"testing"
	"time"

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
