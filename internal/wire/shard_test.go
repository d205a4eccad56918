package wire

import (
	"reflect"
	"testing"

	"repro/internal/codec"
	"repro/internal/writeset"
)

// TestTwoPCFramesRoundTrip covers the two-phase-commit request/reply
// pairs.
func TestTwoPCFramesRoundTrip(t *testing.T) {
	ws := writeset.New([]writeset.Entry{
		{Key: writeset.Key{Table: "item", Row: 7}, Value: "v7"},
		{Key: writeset.Key{Table: "stock", Row: -3}, Delete: true},
	})
	msgs := []Message{
		&PrepareTxn{TxnID: codec.TxnID{Epoch: 17, Seq: 1}, Coord: 2, Snapshot: 41, WS: ws},
		&PrepareTxnOK{Vote: true},
		&PrepareTxnOK{Vote: false, ConflictWith: 40},
		&DecideTxn{TxnID: codec.TxnID{Epoch: 17, Seq: 1}, Commit: true, Retire: []codec.TxnID{{Epoch: 17, Seq: 1}}},
		&DecideTxnOK{Version: 42},
		&ResolveTxn{TxnID: codec.TxnID{Epoch: 17, Seq: 1}},
		&ResolveTxnOK{Commit: false},
		&ForgetTxn{IDs: []codec.TxnID{{Epoch: 17, Seq: 1}, {Epoch: 17, Seq: 2}}},
		&ForgetTxnOK{},
	}
	for _, m := range msgs {
		got := roundTrip(t, m)
		if got.msgType() != m.msgType() {
			t.Fatalf("%T came back as %T", m, got)
		}
		if want, ok := m.(*PrepareTxn); ok {
			g := got.(*PrepareTxn)
			if g.TxnID != want.TxnID || g.Coord != want.Coord ||
				g.Snapshot != want.Snapshot || !wsEqual(g.WS, want.WS) {
				t.Fatalf("PrepareTxn mismatch: %+v vs %+v", g, want)
			}
			continue
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("%T mismatch: %+v vs %+v", m, got, m)
		}
	}
}

// FuzzTwoPCFrames fuzzes the prepare/decide codec through full
// frames.
func FuzzTwoPCFrames(f *testing.F) {
	f.Add(int64(1), int64(1), int64(0), int64(0), "item", int64(7), "v", false, true, int64(8))
	f.Add(int64(-1<<63), int64(0), int64(-2), int64(1<<50), "", int64(-1), "", true, false, int64(0))
	f.Fuzz(func(t *testing.T, epoch, seq, coord, snap int64,
		table string, row int64, value string, del, commit bool, version int64) {
		id := codec.TxnID{Epoch: epoch, Seq: seq}
		p := &PrepareTxn{TxnID: id, Coord: coord, Snapshot: snap,
			WS: writeset.New([]writeset.Entry{
				{Key: writeset.Key{Table: table, Row: row}, Delete: del, Value: value},
			})}
		gp := roundTrip(t, p).(*PrepareTxn)
		if gp.TxnID != id || gp.Coord != coord || gp.Snapshot != snap || !wsEqual(gp.WS, p.WS) {
			t.Fatalf("PrepareTxn mismatch: %+v vs %+v", gp, p)
		}
		d := &DecideTxn{TxnID: id, Commit: commit}
		if gd := roundTrip(t, d).(*DecideTxn); !reflect.DeepEqual(gd, d) {
			t.Fatalf("DecideTxn mismatch: %+v vs %+v", gd, d)
		}
		dok := &DecideTxnOK{Version: version}
		if gdok := roundTrip(t, dok).(*DecideTxnOK); !reflect.DeepEqual(gdok, dok) {
			t.Fatalf("DecideTxnOK mismatch: %+v vs %+v", gdok, dok)
		}
	})
}
