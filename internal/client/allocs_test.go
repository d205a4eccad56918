//go:build !race

// The race detector changes allocation counts, so this gate runs only
// in non-race builds, like the other allocation gates.

package client

import (
	"bytes"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/certifier"
	"repro/internal/wire"
	"repro/internal/writeset"
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

// stillConn is a net.Conn whose deadlines are no-ops: net.Pipe arms a
// timer per SetDeadline, which would count against the gate below.
type stillConn struct{ net.Conn }

func (stillConn) SetDeadline(time.Time) error { return nil }

// TestFetchSinceIntoAllocs pins the replica half of a propagation
// fetch: a Records reply replayed through Link.FetchSinceInto into a
// reused scratch slice allocates only what the caller owns — each
// writeset's entries and each value — whether the body came plain or
// DEFLATE-compressed. The request is the connection's scratch, the
// reply and its table dictionary are the connection's decode targets,
// and table names are interned.
func TestFetchSinceIntoAllocs(t *testing.T) {
	const recs, entries = 4, 2
	run := make([]wire.Record, recs)
	for i := range run {
		es := make([]writeset.Entry, entries)
		for j := range es {
			row := int64(entries*i + j)
			es[j] = writeset.Entry{Key: writeset.Key{Table: "item", Row: row}, Value: fmt.Sprintf("stock=%d qty=3 warehouse=1", row)}
		}
		run[i] = wire.Record{Version: int64(i + 1), WS: writeset.New(es)}
	}
	for _, compress := range []bool{false, true} {
		t.Run(fmt.Sprintf("compress=%v", compress), func(t *testing.T) {
			var stream bytes.Buffer
			if err := wire.NewConn(&stream).Send(&wire.Records{Recs: run, Compress: compress}); err != nil {
				t.Fatal(err)
			}
			// The frame is [length][type][flags]...: flags 1 is DEFLATE.
			if flated := stream.Bytes()[5] == 1; flated != compress {
				t.Fatalf("reply compressed = %v, want %v", flated, compress)
			}
			l := NewLink("replay", "mm", -1, time.Second)
			defer l.Close()
			nc, peer := net.Pipe()
			defer peer.Close()
			l.pool.idle = append(l.pool.idle, &wconn{nc: stillConn{nc}, wc: wire.NewConn(&replayRW{stream: stream.Bytes()})})
			var scratch []certifier.Record
			fetch := func() {
				got, err := l.FetchSinceInto(scratch[:0], 0, 0)
				if err != nil || len(got) != recs {
					t.Fatalf("fetch: %d records, %v", len(got), err)
				}
				clear(got)
				scratch = got[:0]
			}
			fetch() // warm the connection's buffers, reply and dictionary
			allocs, want := testing.AllocsPerRun(200, fetch), float64(recs*(1+entries))
			if allocs > want {
				t.Fatalf("FetchSinceInto: %.2f allocs/op, want <= %.0f (each record's entries and values)", allocs, want)
			}
			t.Logf("%.2f allocs/op", allocs)
		})
	}
}
