package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"reflect"
	"testing"

	"repro/internal/codec"
	"repro/internal/writeset"
)

// pipeConns returns two wire.Conns over an in-memory full-duplex pipe.
func pipeConns(t *testing.T) (*Conn, *Conn, func()) {
	t.Helper()
	a, b := net.Pipe()
	return NewConn(a), NewConn(b), func() { a.Close(); b.Close() }
}

// roundTrip sends m on one end of a pipe and returns what arrives at
// the other.
func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	ca, cb, done := pipeConns(t)
	defer done()
	errc := make(chan error, 1)
	go func() { errc <- ca.Send(m) }()
	got, err := cb.Recv()
	if err != nil {
		t.Fatalf("recv %T: %v", m, err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("send %T: %v", m, err)
	}
	return got
}

// wsEqual compares writesets by entries, so a nil and an empty entry
// slice compare equal.
func wsEqual(a, b writeset.Writeset) bool {
	if len(a.Entries) != len(b.Entries) {
		return false
	}
	for i := range a.Entries {
		if a.Entries[i] != b.Entries[i] {
			return false
		}
	}
	return true
}

// allMessages returns one or more instances of every message type,
// with every field of each message set at least once.
func allMessages() []Message {
	ws := writeset.New([]writeset.Entry{
		{Key: writeset.Key{Table: "item", Row: 7}, Value: "v7"},
		{Key: writeset.Key{Table: "order_line", Row: -3}, Delete: true},
		{Key: writeset.Key{Table: "item", Row: 1 << 40}, Value: ""},
	})
	return []Message{
		&Err{Code: CodeReadOnly, Msg: "read only"},
		&Hello{Proto: ProtoVersion},
		&HelloOK{Proto: ProtoVersion, Design: "mm", ID: 2},
		&Begin{ReadOnly: true},
		&Begin{Trace: 0xDEADBEEF},
		&BeginOK{Applied: 42},
		&BeginOK{Applied: 42, Trace: 0xDEADBEEF},
		&Read{Table: "item", Row: 9},
		&ReadOK{OK: true, Value: "hello"},
		&ReadOK{OK: false},
		&Write{Table: "item", Row: -1, Value: "x"},
		&WriteOK{},
		&Delete{Table: "customer", Row: 123456789},
		&Commit{},
		&CommitOK{Applied: 17},
		&CommitAborted{ConflictWith: 16},
		&Abort{},
		&AbortOK{},
		&Sync{},
		&Sync{Through: 42, WaitMillis: 8000},
		&SyncOK{Applied: 5},
		&CreateTable{Name: "item"},
		&CreateTableOK{},
		&Load{Table: "item", Rows: []int64{100, 101, 7, -3}, Values: []string{"a", "", "c", "d"}},
		&LoadOK{},
		&Dump{Table: "item"},
		&DumpOK{Rows: []int64{1, 2, 3}, Values: []string{"a", "b", "c"}},
		&Certify{Snapshot: 12, WS: ws},
		&Certify{Snapshot: 12, WS: ws, Trace: 99},
		&CertifyOK{Committed: true, Version: 13},
		&CertifyOK{Committed: false, ConflictWith: 12},
		&Check{Snapshot: 3, WS: ws},
		&CheckOK{Conflict: true, With: 4},
		&FetchSince{Version: 9, WaitMillis: 250},
		&Records{Recs: []Record{{Version: 10, WS: ws, Trace: 5, CommitNs: 1e18}, {Version: 11}}},
		&Join{Addr: "127.0.0.1:7003"},
		&JoinOK{ID: 3, Epoch: 5, Members: []Member{{ID: 0, Addr: "a:1"}, {ID: 3, Addr: "b:2"}}},
		&JoinOK{ID: 3, Epoch: 5, ShardID: 1, ShardCount: 2, MapVersion: 1},
		&Leave{ID: 3},
		&LeaveOK{},
		&SnapshotReq{},
		&SnapshotOK{Version: 40, More: true, Tables: []TableSnap{
			{Name: "item", Rows: []int64{0, 1, 5}, Values: []string{"a", "", "c"}},
			{Name: "empty"},
		}},
		&SnapshotOK{Version: 41},
		&Members{},
		&MembersOK{Epoch: 9, Members: []Member{{ID: 0, Addr: "a:1"}}},
		&MembersOK{Epoch: 9, ShardID: 1, ShardCount: 2, MapVersion: 1},
		&Stats{},
		&StatsOK{ReadCommits: 10, UpdateCommits: 4, Aborts: 1, ReadNs: 1e9,
			UpdateNs: 5e8, Applied: 44, ActiveTxns: 3,
			AppliedTotal: 123, ApplyLag: 7,
			StageCounts: [6]int64{100, 0, 90, 90, 80, 100},
			StageNs:     [6]int64{5e6, 0, 2e6, 9e6, 1e6, 3e5},
			ReplicaID:   2, Epoch: 3, Leading: true,
			LagCount: 50, LagSumNs: 4e7, LagMaxNs: 3e6, ShardID: 1},
		&StatsOK{}, // tracing disabled: all stage fields zero
		&PaxosPrepare{Round: 3, Proposer: 1, From: 12},
		&PaxosPrepareOK{OK: true, PromisedRound: 3, PromisedProposer: 1, Votes: []PaxosVote{
			{Slot: 12, Round: 2, Proposer: 0, Value: `{"Version":1}`},
			{Slot: 14, Round: 3, Proposer: 1, Value: ""},
		}, More: true},
		&PaxosPrepareOK{OK: true, PromisedRound: 3, PromisedProposer: 1},
		&PaxosPrepareOK{OK: false, PromisedRound: 9, PromisedProposer: 2},
		&PaxosAccept{Round: 3, Proposer: 1, Slot: 12, Value: `{"Version":1}`},
		&PaxosAcceptOK{OK: true, PromisedRound: 3, PromisedProposer: 1},
		&NotLeader{Leader: 2, Epoch: 7, Addr: "127.0.0.1:7002"},
		&PrepareTxn{TxnID: codec.TxnID{Epoch: 17, Seq: 1}, Coord: 2, Snapshot: 41, WS: ws},
		&PrepareTxnOK{Vote: false, ConflictWith: 40},
		&DecideTxn{TxnID: codec.TxnID{Epoch: 17, Seq: 1}, Commit: true, Retire: []codec.TxnID{{Epoch: 17, Seq: 1}}},
		&DecideTxnOK{Version: 42},
		&ResolveTxn{TxnID: codec.TxnID{Epoch: 17, Seq: 1}},
		&ResolveTxnOK{Commit: true},
		&ForgetTxn{IDs: []codec.TxnID{{Epoch: 17, Seq: 1}, {Epoch: 17, Seq: 2}}},
		&ForgetTxnOK{},
	}
}

func TestRoundTripAllMessages(t *testing.T) {
	for _, m := range allMessages() {
		got := roundTrip(t, m)
		if got.msgType() != m.msgType() {
			t.Fatalf("%T came back as %T", m, got)
		}
		switch want := m.(type) {
		case *Certify:
			g := got.(*Certify)
			if g.Snapshot != want.Snapshot || g.Trace != want.Trace || !wsEqual(g.WS, want.WS) {
				t.Fatalf("Certify mismatch: %+v vs %+v", g, want)
			}
		case *Check:
			g := got.(*Check)
			if g.Snapshot != want.Snapshot || !wsEqual(g.WS, want.WS) {
				t.Fatalf("Check mismatch: %+v vs %+v", g, want)
			}
		case *PrepareTxn:
			g := got.(*PrepareTxn)
			if g.TxnID != want.TxnID || g.Coord != want.Coord ||
				g.Snapshot != want.Snapshot || !wsEqual(g.WS, want.WS) {
				t.Fatalf("PrepareTxn mismatch: %+v vs %+v", g, want)
			}
		case *Records:
			recordsEqual(t, got.(*Records).Recs, want.Recs)
		default:
			if !reflect.DeepEqual(got, m) {
				t.Fatalf("%T mismatch: %+v vs %+v", m, got, m)
			}
		}
	}
}

// TestRoundTripRandomWritesets is the fuzz-style encode/decode check:
// random writesets of varying shapes must survive the wire intact.
func TestRoundTripRandomWritesets(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tables := []string{"item", "customer", "orders", "bids", "weird table \x00 name"}
	for iter := 0; iter < 200; iter++ {
		n := rng.Intn(40)
		entries := make([]writeset.Entry, 0, n)
		for i := 0; i < n; i++ {
			e := writeset.Entry{
				Key:    writeset.Key{Table: tables[rng.Intn(len(tables))], Row: rng.Int63n(1<<50) - (1 << 49)},
				Delete: rng.Intn(4) == 0,
			}
			if !e.Delete {
				b := make([]byte, rng.Intn(64))
				rng.Read(b)
				e.Value = string(b)
			}
			entries = append(entries, e)
		}
		want := writeset.New(entries)
		got := roundTrip(t, &Certify{Snapshot: rng.Int63n(1000), WS: want}).(*Certify)
		if !wsEqual(got.WS, want) {
			t.Fatalf("iter %d: writeset corrupted over the wire", iter)
		}
	}
}

// sendRaw writes a hand-built frame (send errors surface as the
// receiver's read error).
func sendRaw(w io.Writer, frame []byte) {
	_, _ = w.Write(frame)
}

func frame(payload []byte) []byte {
	f := make([]byte, 4, 4+len(payload))
	binary.BigEndian.PutUint32(f, uint32(len(payload)))
	return append(f, payload...)
}

func TestRecvRejectsMalformedFrames(t *testing.T) {
	cases := []struct {
		name  string
		frame []byte
		want  error
	}{
		{"zero length", frame(nil), ErrTruncated},
		{"oversized", func() []byte {
			f := make([]byte, 4)
			binary.BigEndian.PutUint32(f, MaxFrame+1)
			return f
		}(), ErrFrameTooLarge},
		{"unknown type", frame([]byte{0xEE}), ErrUnknownMessage},
		{"truncated payload", frame([]byte{byte(TRead), 2, 'i'}), ErrTruncated},
		{"trailing bytes", frame([]byte{byte(TCommit), 1, 2, 3}), ErrTrailingBytes},
		{"writeset count overflow", frame([]byte{byte(TCertify), 0 /*snapshot*/, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F /*huge count*/}), ErrTruncated},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, b := net.Pipe()
			defer a.Close()
			defer b.Close()
			go sendRaw(a, tc.frame)
			_, err := NewConn(b).Recv()
			if err == nil || !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestRecvRejectsTruncatedPrefixes frames every proper prefix of every
// message's payload: each has one shape with no optional trailing
// field, so every cut must fail with ErrTruncated, never decode into a
// short message.
func TestRecvRejectsTruncatedPrefixes(t *testing.T) {
	for _, m := range allMessages() {
		payload := m.encode([]byte{byte(m.msgType())})
		for n := 0; n < len(payload); n++ {
			c := NewConn(readWriter{bytes.NewBuffer(frame(payload[:n]))})
			if _, err := c.Recv(); !errors.Is(err, ErrTruncated) {
				t.Fatalf("%T cut to %d of %d bytes: err = %v, want ErrTruncated",
					m, n, len(payload), err)
			}
		}
	}
}

func TestRecvTruncatedStream(t *testing.T) {
	// A frame that promises more bytes than the stream delivers.
	var buf bytes.Buffer
	f := frame([]byte{byte(TCommit)})
	buf.Write(f[:len(f)-1])
	binary.BigEndian.PutUint32(f[:4], 10) // announce 10, deliver 1
	c := NewConn(readWriter{&buf})
	if _, err := c.Recv(); err == nil {
		t.Fatal("truncated stream accepted")
	}
}

// readWriter adapts a Buffer (reads EOF once drained).
type readWriter struct{ *bytes.Buffer }

func TestHelloRejectsBadMagic(t *testing.T) {
	payload := []byte{byte(THello), 'N', 'O', 'P', 'E', 1}
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go sendRaw(a, frame(payload))
	_, err := NewConn(b).Recv()
	if !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestSendRejectsOversizedFrame(t *testing.T) {
	var sink bytes.Buffer
	c := NewConn(readWriter{&sink})
	big := &Load{Table: "t", Rows: []int64{0}, Values: []string{string(make([]byte, MaxFrame))}}
	if err := c.Send(big); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

// TestManyFramesOneConn exercises buffer reuse across frames of
// varying size on a single connection.
func TestManyFramesOneConn(t *testing.T) {
	ca, cb, done := pipeConns(t)
	defer done()
	const n = 100
	go func() {
		for i := 0; i < n; i++ {
			v := fmt.Sprintf("value-%d-%s", i, string(make([]byte, i*13%97)))
			if err := ca.Send(&Write{Table: "item", Row: int64(i), Value: v}); err != nil {
				return
			}
		}
	}()
	for i := 0; i < n; i++ {
		m, err := cb.Recv()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		w, ok := m.(*Write)
		if !ok || w.Row != int64(i) {
			t.Fatalf("frame %d: got %+v", i, m)
		}
	}
}
