//go:build !race

// The race detector changes allocation counts, so this gate runs only
// in non-race builds, like the other allocation gates.

package server

import (
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
