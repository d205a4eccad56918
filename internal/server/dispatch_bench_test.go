package server

import (
	"testing"

	"repro/internal/codec"
	"repro/internal/wire"
)

// BenchmarkDispatchTxn measures the server half of one whole
// transaction on a one-node mm cluster, per class: a read-only
// Begin/Read/Commit, an update Begin/Write/Commit, and a cross-shard
// fragment's Begin/Write/PrepareTxn followed by the coordinator's
// DecideTxn and ForgetTxn. One connection serves every iteration, as a
// pooled client connection serves transaction after transaction.
func BenchmarkDispatchTxn(b *testing.B) {
	begin, beginRO := &wire.Begin{}, &wire.Begin{ReadOnly: true}
	read, write := &wire.Read{Table: "item", Row: 1}, &wire.Write{Table: "item", Row: 1, Value: "stock=92"}
	commit := &wire.Commit{}
	prepare := &wire.PrepareTxn{TxnID: codec.TxnID{Epoch: 1, Seq: 1}, Coord: 0}
	decide, forget := &wire.DecideTxn{TxnID: codec.TxnID{Epoch: 1, Seq: 1}, Commit: true}, &wire.ForgetTxn{IDs: []codec.TxnID{{Epoch: 1, Seq: 1}}}
	for _, bc := range []struct {
		name string
		txn  []wire.Message
	}{
		{"read-only", []wire.Message{beginRO, read, commit}},
		{"update", []wire.Message{begin, write, commit}},
		{"prepare+decide", []wire.Message{begin, write, prepare, decide, forget}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s, err := New(Options{Design: "mm", Listen: "127.0.0.1:0", Replicas: 1})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			st := &connState{peer: -1}
			dispatch := func(req wire.Message) {
				if e, isErr := s.dispatch(st, req).(*wire.Err); isErr {
					b.Fatalf("%T: %s", req, e.Msg)
				}
			}
			dispatch(&wire.CreateTable{Name: "item"})
			dispatch(&wire.Load{Table: "item", Rows: []int64{0, 1}, Values: []string{"stock=90", "stock=91"}})
			dispatch(&wire.Sync{})
			b.ReportAllocs()
			for b.Loop() {
				for _, req := range bc.txn {
					dispatch(req)
				}
			}
		})
	}
}
