package server

import (
	"net"
	"slices"
	"strconv"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/wire"
	"repro/internal/writeset"
)

// TestPreparedFragmentSurvivesNextTxn: a connection reuses its txn and
// sidb.Txn for the next transaction the moment a Prepare consumes the
// current one, while the yes-voted fragment's writeset lives on in the
// certifier. The next transaction's writes must not reach that
// writeset: deciding commit installs exactly the prepared row.
func TestPreparedFragmentSurvivesNextTxn(t *testing.T) {
	s, err := New(Options{Design: "mm", Listen: "127.0.0.1:0", Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st := &connState{peer: -1}
	dispatch := func(req wire.Message) wire.Message {
		t.Helper()
		reply := s.dispatch(st, req)
		if e, isErr := reply.(*wire.Err); isErr {
			t.Fatalf("%T: %s", req, e.Msg)
		}
		return reply
	}
	dispatch(&wire.CreateTable{Name: "item"})
	dispatch(&wire.Load{Table: "item", Rows: []int64{0, 1, 2}, Values: []string{"load-0", "load-1", "load-2"}})
	dispatch(&wire.Sync{})

	dispatch(&wire.Begin{})
	dispatch(&wire.Write{Table: "item", Row: 0, Value: "prepared"})
	if ok, isOK := dispatch(&wire.PrepareTxn{TxnID: codec.TxnID{Epoch: 1, Seq: 1}, Coord: 0}).(*wire.PrepareTxnOK); !isOK || !ok.Vote {
		t.Fatalf("prepare reply %+v, want a yes vote", ok)
	}
	dispatch(&wire.Begin{})
	dispatch(&wire.Write{Table: "item", Row: 1, Value: "next"})
	dispatch(&wire.Write{Table: "item", Row: 2, Value: "next"})
	if ok, isOK := dispatch(&wire.DecideTxn{TxnID: codec.TxnID{Epoch: 1, Seq: 1}, Commit: true}).(*wire.DecideTxnOK); !isOK || ok.Version == 0 {
		t.Fatalf("decide reply %+v, want a commit version", ok)
	}
	dispatch(&wire.Abort{})
	dispatch(&wire.Sync{})
	rows, err := s.eng.dump("item")
	if err != nil {
		t.Fatal(err)
	}
	want := map[int64]string{0: "prepared", 1: "load-1", 2: "load-2"}
	for row, v := range want {
		if rows[row] != v {
			t.Fatalf("row %d = %q, want %q (all rows %v)", row, rows[row], v, rows)
		}
	}
}

// TestKilledConnReleasesSnapshot: a connection that dies with a
// transaction open aborts it, releasing its snapshot, so the next
// transaction on any connection starts from a clean slot and the
// version chains keep pruning. A leaked snapshot would pin every
// version written after it.
func TestKilledConnReleasesSnapshot(t *testing.T) {
	s, err := New(Options{Design: "mm", Listen: "127.0.0.1:0", Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Start()
	st := &connState{peer: -1}
	dispatch := func(req wire.Message) {
		t.Helper()
		if e, isErr := s.dispatch(st, req).(*wire.Err); isErr {
			t.Fatalf("%T: %s", req, e.Msg)
		}
	}
	dispatch(&wire.CreateTable{Name: "item"})
	dispatch(&wire.Load{Table: "item", Rows: []int64{0, 1}, Values: []string{"load-0", "load-1"}})
	dispatch(&wire.Sync{})

	nc, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	wc := wire.NewConn(nc)
	for _, req := range []wire.Message{
		&wire.Hello{Proto: wire.ProtoVersion, PeerID: -1},
		&wire.Begin{},
		&wire.Write{Table: "item", Row: 0, Value: "doomed"},
	} {
		if err := wc.Send(req); err != nil {
			t.Fatal(err)
		}
		reply, err := wc.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if e, isErr := reply.(*wire.Err); isErr {
			t.Fatalf("%T: %s", req, e.Msg)
		}
	}
	nc.Close()
	for deadline := time.Now().Add(5 * time.Second); s.m.activeTxns.Load() != 0; {
		if time.Now().After(deadline) {
			t.Fatal("the killed connection's transaction is still open")
		}
		time.Sleep(time.Millisecond)
	}

	before := s.eng.rowVersions()
	for i := range 10 {
		dispatch(&wire.Begin{})
		dispatch(&wire.Write{Table: "item", Row: 1, Value: strconv.Itoa(i)})
		dispatch(&wire.Commit{})
	}
	// Unpinned, row 1 keeps its head and the one version before it.
	if after := s.eng.rowVersions(); after > before+1 {
		t.Fatalf("row versions grew from %d to %d over 10 overwrites: a snapshot is still pinned", before, after)
	}
}

// TestHostLogKeepsWritesetAcrossNextTxn: on the certifier host a
// committed writeset is the log's record, so the connection's next
// transaction must write into a fresh array, never the committed one.
// The next write on the connection leaves the record a FetchSince
// serves unchanged, under both designs.
func TestHostLogKeepsWritesetAcrossNextTxn(t *testing.T) {
	for _, design := range []string{"mm", "sm"} {
		t.Run(design, func(t *testing.T) {
			s, err := New(Options{Design: design, Listen: "127.0.0.1:0", Replicas: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			st, peer := &connState{peer: -1}, &connState{peer: -1}
			dispatch := func(st *connState, req wire.Message) wire.Message {
				t.Helper()
				reply := s.dispatch(st, req)
				if e, isErr := reply.(*wire.Err); isErr {
					t.Fatalf("%T: %s", req, e.Msg)
				}
				return reply
			}
			dispatch(st, &wire.CreateTable{Name: "item"})
			dispatch(st, &wire.Begin{})
			dispatch(st, &wire.Write{Table: "item", Row: 1, Value: "committed"})
			dispatch(st, &wire.Commit{})
			v := s.eng.applied()

			dispatch(st, &wire.Begin{})
			dispatch(st, &wire.Write{Table: "item", Row: 2, Value: "next"})
			recs := dispatch(peer, &wire.FetchSince{Version: v - 1}).(*wire.Records).Recs
			if len(recs) != 1 || recs[0].Version != v {
				t.Fatalf("fetch after version %d returned %+v", v-1, recs)
			}
			want := []writeset.Entry{{Key: writeset.Key{Table: "item", Row: 1}, Value: "committed"}}
			if got := recs[0].WS.Entries; !slices.Equal(got, want) {
				t.Fatalf("host log record changed to %v after the next write, want %v", got, want)
			}
			dispatch(st, &wire.Abort{})
		})
	}
}
