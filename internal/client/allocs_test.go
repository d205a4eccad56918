//go:build !race

// The race detector changes allocation counts, so this gate runs only
// in non-race builds, like the other allocation gates.

package client

import (
	"bytes"
	"net"
	"testing"

	"repro/internal/wire"
)

// replayRW discards writes; reads replay one fixed reply stream
// forever, standing in for a server that answers every transaction the
// same way.
type replayRW struct {
	stream []byte
	off    int
}

func (r *replayRW) Write(p []byte) (int, error) { return len(p), nil }
func (r *replayRW) Read(p []byte) (int, error) {
	if r.off == len(r.stream) {
		r.off = 0
	}
	n := copy(p, r.stream[r.off:])
	r.off += n
	return n, nil
}

// TestReadOnlyTxnAllocs pins the client half of a read-only
// transaction: Begin, two Reads and Commit on a pooled connection
// allocate the Txn and the two values it returns, nothing more — the
// request frames are the connection's reused scratch.
func TestReadOnlyTxnAllocs(t *testing.T) {
	var stream bytes.Buffer
	enc := wire.NewConn(&stream)
	for _, m := range []wire.Message{
		&wire.BeginOK{Applied: 7},
		&wire.ReadOK{OK: true, Value: "stock=91"},
		&wire.ReadOK{OK: true, Value: "stock=92"},
		&wire.CommitOK{Applied: 7},
	} {
		if err := enc.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	cl, err := New(Options{Servers: []string{"replay"}, Design: "mm"})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	nc, peer := net.Pipe()
	defer peer.Close()
	pool := cl.reps[0].pool
	pool.idle = append(pool.idle, &wconn{nc: nc, wc: wire.NewConn(&replayRW{stream: stream.Bytes()})})

	txn := func() {
		tx, err := cl.BeginRead()
		if err != nil {
			t.Fatal(err)
		}
		for row := int64(1); row <= 2; row++ {
			if _, ok, err := tx.Read("item", row); err != nil || !ok {
				t.Fatalf("read %d: ok=%v err=%v", row, ok, err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	txn() // warm the connection's buffers and hot reply structs
	if allocs := testing.AllocsPerRun(200, txn); allocs > 3 {
		t.Fatalf("read-only transaction: %.2f allocs/op, want 3 (the Txn and two values)", allocs)
	}
}
