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
	"unsafe"

	"repro/internal/certifier"
	"repro/internal/codec"
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
	// The Txn is the caller's and never recycled; it stays in the
	// 48-byte size class.
	if size := unsafe.Sizeof(Txn{}); size > 48 {
		t.Fatalf("client.Txn is %d bytes, want <= 48", size)
	}
}

// TestUpdateTxnAllocs pins the client half of an update transaction:
// Begin, a Write and Commit allocate the Txn alone. Under sm the Begin
// goes through the follower to the certifier host (the master), so the
// sm row pins that the redirect policy costs nothing when the guess is
// right.
func TestUpdateTxnAllocs(t *testing.T) {
	var stream bytes.Buffer
	enc := wire.NewConn(&stream)
	for _, m := range []wire.Message{
		&wire.BeginOK{Applied: 7},
		&wire.WriteOK{},
		&wire.CommitOK{Applied: 8},
	} {
		if err := enc.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	for _, design := range []string{"mm", "sm"} {
		t.Run(design, func(t *testing.T) {
			cl, err := New(Options{Servers: []string{"replay"}, Design: design})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			nc, peer := net.Pipe()
			defer peer.Close()
			pool := cl.reps[0].pool
			pool.idle = append(pool.idle, &wconn{nc: nc, wc: wire.NewConn(&replayRW{stream: stream.Bytes()})})
			txn := func() {
				tx, err := cl.BeginUpdate()
				if err != nil {
					t.Fatal(err)
				}
				if err := tx.Write("item", 1, "stock=90"); err != nil {
					t.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			txn() // warm the connection's buffers and hot reply structs
			allocs := testing.AllocsPerRun(200, txn)
			if allocs > 1 {
				t.Fatalf("%s update transaction: %.2f allocs/op, want 1 (the Txn)", design, allocs)
			}
			t.Logf("%.2f allocs/op", allocs)
		})
	}
}

// stillConn is a net.Conn whose deadlines are no-ops: net.Pipe arms a
// timer per SetDeadline, which would count against the gate below.
type stillConn struct{ net.Conn }

func (stillConn) SetDeadline(time.Time) error { return nil }

// TestFetchSinceAllocs pins the replica half of a propagation fetch:
// a Records reply replayed through Link.FetchSince into an apply
// callback allocates only the value strings a replica installs, whether
// the body came plain or DEFLATE-compressed. The request is the
// connection's scratch; the reply, its table dictionary, its entry
// arena and the records handed to apply are the connection's reused
// decode targets; and table names are interned.
func TestFetchSinceAllocs(t *testing.T) {
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
			got := 0
			apply := func(rs []certifier.Record) {
				for _, r := range rs {
					got += len(r.Writeset.Entries)
				}
			}
			fetch := func() {
				got = 0
				if n, err := l.FetchSince(0, 0, apply); err != nil || n != recs || got != recs*entries {
					t.Fatalf("fetch: %d records, %d entries, %v", n, got, err)
				}
			}
			fetch() // warm the connection's buffers, reply, dictionary and arena
			allocs, want := testing.AllocsPerRun(200, fetch), float64(recs*entries)
			if allocs > want {
				t.Fatalf("FetchSince: %.2f allocs/op, want <= %.0f (each value)", allocs, want)
			}
			t.Logf("%.2f allocs/op", allocs)
		})
	}
}

// TestDecisionVerbAllocs pins the client half of the 2PC decision
// verbs the router sends per cross-shard commit: DecideTxn, ResolveTxn
// and ForgetTxn build their requests on the host connection's scratch
// and read their replies in place, so none allocates.
func TestDecisionVerbAllocs(t *testing.T) {
	var stream bytes.Buffer
	enc := wire.NewConn(&stream)
	for _, m := range []wire.Message{
		&wire.DecideTxnOK{Version: 42},
		&wire.ResolveTxnOK{Commit: true},
		&wire.ForgetTxnOK{},
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
	pool.idle = append(pool.idle, &wconn{nc: stillConn{nc}, wc: wire.NewConn(&replayRW{stream: stream.Bytes()})})

	id := codec.TxnID{Epoch: 0x18f3a2b4c5d6e7f8, Seq: 42}
	decide := func() {
		if v, err := cl.DecideTxn(id, true); err != nil || v != 42 {
			t.Fatalf("decide = %d, %v", v, err)
		}
		if commit, err := cl.ResolveTxn(id); err != nil || !commit {
			t.Fatalf("resolve = %v, %v", commit, err)
		}
		if err := cl.ForgetTxn(id); err != nil {
			t.Fatal(err)
		}
	}
	decide() // warm the connection's buffers and hot reply structs
	if allocs := testing.AllocsPerRun(200, decide); allocs != 0 {
		t.Fatalf("DecideTxn/ResolveTxn/ForgetTxn: %.2f allocs/op, want 0", allocs)
	}
}
