//go:build !race

// The race detector changes allocation counts, so this gate runs only
// in non-race builds, like the other allocation gates.

package server

import (
	"runtime"
	"testing"

	"repro/internal/wire"
)

// TestDispatchReadAllocs pins the server half of a read round trip to
// zero allocations: the request table name is interned by the wire
// decoder, the read-only transaction has no write map, and the ReadOK
// reply is the connection's reused struct.
func TestDispatchReadAllocs(t *testing.T) {
	for _, design := range []string{"mm", "sm"} {
		t.Run(design, func(t *testing.T) {
			s, err := New(Options{Design: design, Listen: "127.0.0.1:0", Replicas: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			st := &connState{peer: -1}
			for _, req := range []wire.Message{
				&wire.CreateTable{Name: "item"},
				&wire.Load{Table: "item", Rows: []int64{0, 1}, Values: []string{"stock=90", "stock=91"}},
				&wire.Sync{}, // a load, like a commit, is applied by the next pull
				&wire.Begin{ReadOnly: true},
			} {
				if reply, isErr := s.dispatch(st, req).(*wire.Err); isErr {
					t.Fatalf("%T: %s", req, reply.Msg)
				}
			}
			read := &wire.Read{Table: "item", Row: 1}
			allocs := testing.AllocsPerRun(200, func() {
				reply, ok := s.dispatch(st, read).(*wire.ReadOK)
				if !ok || !reply.OK || reply.Value != "stock=91" {
					t.Fatalf("read reply %+v", reply)
				}
			})
			if allocs != 0 {
				t.Fatalf("dispatch Read: %.2f allocs/op, want 0", allocs)
			}
			if _, ok := s.dispatch(st, &wire.Commit{}).(*wire.CommitOK); !ok {
				t.Fatal("read-only commit failed")
			}
		})
	}
}

// TestDispatchReadTxnAllocs pins the server half of a whole read-only
// transaction — Begin, Read, Commit — to zero allocations: the
// connection begins it in its own txn and sidb.Txn, and every reply is
// the connection's reused struct.
func TestDispatchReadTxnAllocs(t *testing.T) {
	for _, design := range []string{"mm", "sm"} {
		t.Run(design, func(t *testing.T) {
			s, err := New(Options{Design: design, Listen: "127.0.0.1:0", Replicas: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			st := &connState{peer: -1}
			dispatch := func(req wire.Message) wire.Message {
				reply := s.dispatch(st, req)
				if e, isErr := reply.(*wire.Err); isErr {
					t.Fatalf("%T: %s", req, e.Msg)
				}
				return reply
			}
			dispatch(&wire.CreateTable{Name: "item"})
			dispatch(&wire.Load{Table: "item", Rows: []int64{0, 1}, Values: []string{"stock=90", "stock=91"}})
			dispatch(&wire.Sync{})
			begin, read, commit := &wire.Begin{ReadOnly: true}, &wire.Read{Table: "item", Row: 1}, &wire.Commit{}
			allocs := testing.AllocsPerRun(200, func() {
				dispatch(begin)
				if reply, ok := dispatch(read).(*wire.ReadOK); !ok || reply.Value != "stock=91" {
					t.Fatalf("read reply %+v", reply)
				}
				if _, ok := dispatch(commit).(*wire.CommitOK); !ok {
					t.Fatal("read-only commit failed")
				}
			})
			if allocs != 0 {
				t.Fatalf("dispatch Begin/Read/Commit: %.2f allocs/txn, want 0", allocs)
			}
		})
	}
}

// TestDispatchUpdateAllocs pins the server half of one update
// transaction — Begin, Write, Commit — on a one-node cluster of each
// design, and behind group commit: the connection reuses its txn and
// sidb.Txn, the node certifies against its own log and applies the
// commit from it without copying the record or its writeset list, a
// parked group-commit request is recycled, and the commit's long-poll
// wakeup allocates nothing, and the tracer recycles the commit's span.
// What is left is the writeset's array, which the certifier log keeps.
//
// The mm-nonhost case commits at replica 1 of a two-node cluster whose
// host runs in the same process, so the count is the whole commit's,
// at both nodes: the replica reuses its released write array and
// fetches the commit into its connection's entry arena. What is left
// is the host's decoded writeset array and value string, which its log
// keeps; and the value string the replica fetches and installs.
func TestDispatchUpdateAllocs(t *testing.T) {
	for _, tc := range []struct {
		name, design string
		groupCommit  bool
		nonHost      bool
		want         float64
	}{
		{"mm", "mm", false, false, 1},
		{"sm", "sm", false, false, 1},
		{"mm-groupcommit", "mm", true, false, 1},
		{"mm-nonhost", "mm", false, true, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{Design: tc.design, Listen: "127.0.0.1:0", Replicas: 1, GroupCommit: tc.groupCommit}
			if tc.nonHost {
				opts.Replicas = 2
				host, err := New(opts)
				if err != nil {
					t.Fatal(err)
				}
				defer host.Close()
				host.Start()
				opts.ID, opts.Primary = 1, host.Addr()
			}
			s, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if tc.nonHost {
				s.Start()
			}
			st := &connState{peer: -1}
			dispatch := func(req wire.Message) {
				if reply, isErr := s.dispatch(st, req).(*wire.Err); isErr {
					t.Fatalf("%T: %s", req, reply.Msg)
				}
			}
			dispatch(&wire.CreateTable{Name: "item"})
			dispatch(&wire.Load{Table: "item", Rows: []int64{0, 1}, Values: []string{"stock=90", "stock=91"}})
			dispatch(&wire.Sync{}) // a load, like a commit, is applied by the next pull
			begin, write, commit := &wire.Begin{}, &wire.Write{Table: "item", Row: 1, Value: "stock=92"}, &wire.Commit{}
			allocs := testing.AllocsPerRun(200, func() {
				dispatch(begin)
				dispatch(write)
				if reply, ok := s.dispatch(st, commit).(*wire.CommitOK); !ok {
					t.Fatalf("commit reply %+v", reply)
				}
				// A replica applies its commit through the role loop:
				// wait for it, so the next transaction's snapshot sees it.
				for s.eng.applied() < st.tx.version {
					runtime.Gosched()
				}
			})
			if allocs > tc.want {
				t.Fatalf("dispatch Begin/Write/Commit: %.2f allocs/txn, want <= %.0f", allocs, tc.want)
			}
			t.Logf("%.2f allocs/txn", allocs)
		})
	}
}

// TestDispatchFetchSinceAllocs pins the certifier host's half of a
// propagation fetch to zero allocations: the host's log is read into
// the connection's scratch, and the Records reply is the connection's
// reused struct.
func TestDispatchFetchSinceAllocs(t *testing.T) {
	s, err := New(Options{Design: "mm", Listen: "127.0.0.1:0", Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st := &connState{peer: -1}
	dispatch := func(req wire.Message) wire.Message {
		reply := s.dispatch(st, req)
		if e, isErr := reply.(*wire.Err); isErr {
			t.Fatalf("%T: %s", req, e.Msg)
		}
		return reply
	}
	dispatch(&wire.CreateTable{Name: "item"})
	const k = 8
	for i := range k {
		dispatch(&wire.Begin{})
		dispatch(&wire.Write{Table: "item", Row: int64(i), Value: "stock=92"})
		dispatch(&wire.Commit{})
	}
	fetch := &wire.FetchSince{Version: s.eng.applied() - k}
	allocs := testing.AllocsPerRun(200, func() {
		if reply, ok := dispatch(fetch).(*wire.Records); !ok || len(reply.Recs) != k {
			t.Fatalf("fetch reply %+v", reply)
		}
	})
	if allocs != 0 {
		t.Fatalf("dispatch FetchSince of %d records: %.2f allocs/op, want 0", k, allocs)
	}
}
