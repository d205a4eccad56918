package wire

import (
	"bytes"
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/codec"
	"repro/internal/writeset"
)

// sinkRW discards writes; reads replay one pre-encoded frame forever.
type sinkRW struct {
	frame []byte
	off   int
}

func (s *sinkRW) Write(p []byte) (int, error) { return len(p), nil }
func (s *sinkRW) Read(p []byte) (int, error) {
	if s.off == len(s.frame) {
		s.off = 0
	}
	n := copy(p, s.frame[s.off:])
	s.off += n
	return n, nil
}

// hotWS is a realistic update-transaction writeset for the Write and
// Certify frames.
var hotWS = writeset.New([]writeset.Entry{
	{Key: writeset.Key{Table: "item", Row: 42}, Value: "stock=91 qty=3"},
})

// hotTxn is a cross-shard transaction id as a router mints it.
var hotTxn = codec.TxnID{Epoch: 0x18f3a2b4c5d6e7f8, Seq: 42}

// hotRetire are the ids a decide retires: a coordinator's piggybacked
// earlier decisions, or the ids of a Sync's one ForgetTxn.
var hotRetire = []codec.TxnID{{Epoch: hotTxn.Epoch, Seq: 39}, {Epoch: hotTxn.Epoch, Seq: 40}, {Epoch: hotTxn.Epoch, Seq: 41}}

// hotFrames are the read- and commit-path messages a loaded cluster
// exchanges per transaction; their encode path must not allocate.
var hotFrames = []struct {
	name string
	msg  Message
}{
	{"Begin", &Begin{Trace: 7}},
	{"Read", &Read{Table: "item", Row: 42}},
	{"Write", &Write{Table: "item", Row: 42, Value: "stock=91 qty=3"}},
	{"Commit", &Commit{}},
	{"Certify", &Certify{Snapshot: 99, WS: hotWS, Trace: 7}},
	{"FetchSince", &FetchSince{Version: 12, WaitMillis: 250}},
	{"PrepareTxn", &PrepareTxn{TxnID: hotTxn, Coord: 1}},
	{"DecideTxn", &DecideTxn{TxnID: hotTxn, Commit: true, Retire: hotRetire}},
	{"ForgetTxn", &ForgetTxn{IDs: hotRetire}},
}

// TestHotFrameEncodeAllocs pins the zero-allocation contract on the
// hot-path encoders: after the connection's write buffer has warmed,
// Send must not touch the heap.
func TestHotFrameEncodeAllocs(t *testing.T) {
	for _, tc := range hotFrames {
		t.Run(tc.name, func(t *testing.T) {
			c := NewConn(&sinkRW{})
			if err := c.Send(tc.msg); err != nil { // warm the write buffer
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(200, func() {
				if err := c.Send(tc.msg); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("%s encode: %.2f allocs/op, want 0", tc.name, allocs)
			}
		})
	}
}

// TestHotFrameDecodeAllocs pins the decode side. Scalar-only frames
// decode with zero allocations (the read buffer and the message struct
// are both reused), and so do frames whose only string is a table name
// the connection has already interned. Frames that carry values or
// writesets must copy them out of the reused buffer — the caller
// retains them — so their floor is the retained data itself, nothing
// more.
func TestHotFrameDecodeAllocs(t *testing.T) {
	cases := []struct {
		name string
		msg  Message
		max  float64 // allocation ceiling; 0 means exactly zero
	}{
		{"Begin", &Begin{Trace: 7}, 0},
		{"BeginOK", &BeginOK{Applied: 12, Trace: 7}, 0},
		{"Read", &Read{Table: "item", Row: 42}, 0},
		{"Delete", &Delete{Table: "item", Row: 42}, 0},
		{"Commit", &Commit{}, 0},
		{"CommitOK", &CommitOK{Applied: 13}, 0},
		{"FetchSince", &FetchSince{Version: 12, WaitMillis: 250}, 0},
		// ReadOK and Write retain only their value.
		{"ReadOK", &ReadOK{OK: true, Value: "stock=91 qty=3"}, 1},
		{"Write", &Write{Table: "item", Row: 42, Value: "stock=91 qty=3"}, 1},
		// Certify retains the writeset: its entries slice and one
		// value string (table names are interned).
		{"Certify", &Certify{Snapshot: 99, WS: hotWS, Trace: 7}, 2},
		// A 2PC transaction id is a value, and the id lists of a decide
		// and a forget decode into their reused struct: the 2PC frames
		// and their replies allocate nothing, and a raw prepare only
		// its writeset.
		{"PrepareTxn", &PrepareTxn{TxnID: hotTxn, Coord: 1}, 0},
		{"PrepareTxn/raw", &PrepareTxn{TxnID: hotTxn, Coord: 1, Snapshot: 99, WS: hotWS}, 2},
		{"PrepareTxnOK", &PrepareTxnOK{Vote: true, ConflictWith: 40}, 0},
		{"DecideTxn", &DecideTxn{TxnID: hotTxn, Commit: true}, 0},
		{"DecideTxn/retire", &DecideTxn{TxnID: hotTxn, Commit: true, Retire: hotRetire}, 0},
		{"DecideTxnOK", &DecideTxnOK{Version: 42}, 0},
		{"ResolveTxn", &ResolveTxn{TxnID: hotTxn}, 0},
		{"ResolveTxnOK", &ResolveTxnOK{Commit: true}, 0},
		{"ForgetTxn", &ForgetTxn{IDs: hotRetire}, 0},
		{"ForgetTxnOK", &ForgetTxnOK{}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sink := &sinkRW{}
			enc := NewConn(sink)
			if err := enc.Send(tc.msg); err != nil {
				t.Fatal(err)
			}
			frame := make([]byte, len(enc.wbuf))
			copy(frame, enc.wbuf)
			c := NewConn(&sinkRW{frame: frame})
			if _, err := c.Recv(); err != nil { // warm rbuf and the hot struct
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(200, func() {
				if _, err := c.Recv(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > tc.max {
				t.Fatalf("%s decode: %.2f allocs/op, want <= %.0f", tc.name, allocs, tc.max)
			}
		})
	}
}

// TestHotFrameRecvReusesTwoPCStructs: Recv decodes every 2PC frame
// into the connection's one struct of its type, while what a receiver
// may keep — the transaction id, and a raw prepare's writeset — is
// decoded fresh each time, so a certifier holding the first frame's id
// and writeset sees them unchanged after the next frame arrives.
func TestHotFrameRecvReusesTwoPCStructs(t *testing.T) {
	id := func(i int) codec.TxnID { return codec.TxnID{Epoch: hotTxn.Epoch, Seq: int64(i)} }
	cases := []struct {
		name string
		msg  func(i int) Message
		// kept returns what a receiver may retain from a decoded frame.
		kept func(m Message) any
	}{
		{"PrepareTxn", func(i int) Message {
			return &PrepareTxn{TxnID: id(i), Coord: 1, Snapshot: int64(i), WS: writeset.New([]writeset.Entry{
				{Key: writeset.Key{Table: "item", Row: int64(i)}, Value: fmt.Sprintf("stock=%d", i)},
			})}
		}, func(m Message) any {
			p := m.(*PrepareTxn)
			return []any{p.TxnID, p.WS.Entries}
		}},
		{"PrepareTxnOK", func(i int) Message { return &PrepareTxnOK{Vote: true, ConflictWith: int64(i)} }, nil},
		{"DecideTxn", func(i int) Message { return &DecideTxn{TxnID: id(i), Commit: true} },
			func(m Message) any { return m.(*DecideTxn).TxnID }},
		{"DecideTxnOK", func(i int) Message { return &DecideTxnOK{Version: int64(i)} }, nil},
		{"ResolveTxn", func(i int) Message { return &ResolveTxn{TxnID: id(i)} },
			func(m Message) any { return m.(*ResolveTxn).TxnID }},
		{"ResolveTxnOK", func(i int) Message { return &ResolveTxnOK{Commit: true} }, nil},
		{"ForgetTxn", func(i int) Message { return &ForgetTxn{IDs: []codec.TxnID{id(i)}} }, nil},
		{"ForgetTxnOK", func(i int) Message { return &ForgetTxnOK{} }, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stream bytes.Buffer
			enc, dec := NewConn(&stream), NewConn(&stream)
			recv := func(i int) Message {
				t.Helper()
				if err := enc.Send(tc.msg(i)); err != nil {
					t.Fatal(err)
				}
				m, err := dec.Recv()
				if err != nil {
					t.Fatal(err)
				}
				if !Reused(m) {
					t.Fatalf("%T is not a reused frame", m)
				}
				return m
			}
			first := recv(1)
			var kept any // the first frame's fields, retained uncopied
			if tc.kept != nil {
				kept = tc.kept(first)
			}
			if second := recv(2); second != first {
				t.Fatal("Recv decoded the next frame into a new struct")
			}
			if tc.kept != nil {
				if got, want := fmt.Sprint(kept), fmt.Sprint(tc.kept(tc.msg(1))); got != want {
					t.Fatalf("retained fields changed to %s, want %s", got, want)
				}
			}
		})
	}
}

// TestDecodeInternsTableNames: every table-name decode site hands back
// the connection's one copy of a name it has seen; distinct names stay
// distinct; past the intern bounds names still decode correctly, just
// copied; and interning is per connection.
func TestDecodeInternsTableNames(t *testing.T) {
	var stream bytes.Buffer
	enc := NewConn(&stream)
	dec := NewConn(&stream)
	if len(dec.names) != 0 {
		t.Fatalf("fresh Conn interns %d names, want 0", len(dec.names))
	}
	// tables sends m and returns every table name c decodes from it.
	tables := func(c *Conn, m Message) []string {
		t.Helper()
		if err := enc.Send(m); err != nil {
			t.Fatal(err)
		}
		got, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		switch g := got.(type) {
		case *Read:
			return []string{g.Table}
		case *Write:
			return []string{g.Table}
		case *Delete:
			return []string{g.Table}
		case *Certify:
			var out []string
			for _, e := range g.WS.Entries {
				out = append(out, e.Key.Table)
			}
			return out
		case *Records:
			var out []string
			for _, r := range g.Recs {
				for _, e := range r.WS.Entries {
					out = append(out, e.Key.Table)
				}
			}
			return out
		}
		t.Fatalf("unexpected %T", got)
		return nil
	}
	same := func(a, b string) bool { return unsafe.StringData(a) == unsafe.StringData(b) }

	item := tables(dec, &Read{Table: "item", Row: 1})[0]
	var names []string
	for _, m := range []Message{
		&Read{Table: "item", Row: 2},
		&Write{Table: "item", Row: 3, Value: "v"},
		&Delete{Table: "item", Row: 4},
		&Certify{Snapshot: 1, WS: hotWS},
		&Records{Recs: propagationRun(4)},
		&Records{Recs: propagationRun(40), Compress: true},
	} {
		names = append(names, tables(dec, m)...)
	}
	for _, name := range names {
		if name == "item" && !same(name, item) {
			t.Fatalf("a second decode of %q did not reuse the interned copy", name)
		}
	}
	orders := tables(dec, &Read{Table: "orders", Row: 1})[0]
	if orders != "orders" || same(orders, item) {
		t.Fatalf("distinct names collapsed: %q", orders)
	}

	// Fill the set past its bound: every name still decodes exactly, and
	// the set stops growing.
	for i := 0; i < codec.MaxInterned+8; i++ {
		want := fmt.Sprintf("t%03d", i)
		if got := tables(dec, &Read{Table: want, Row: 1})[0]; got != want {
			t.Fatalf("decoded %q, want %q", got, want)
		}
	}
	if len(dec.names) != codec.MaxInterned {
		t.Fatalf("intern set holds %d names, want the cap %d", len(dec.names), codec.MaxInterned)
	}
	late := fmt.Sprintf("t%03d", codec.MaxInterned+7)
	a, b := tables(dec, &Read{Table: late, Row: 2})[0], tables(dec, &Read{Table: late, Row: 3})[0]
	if a != late || b != late || same(a, b) {
		t.Fatalf("past the cap: decoded %q and %q (shared %v), want two copies of %q", a, b, same(a, b), late)
	}
	long := string(bytes.Repeat([]byte{'x'}, codec.MaxInternLen+1))
	short := NewConn(&stream)
	a, b = tables(short, &Read{Table: long, Row: 1})[0], tables(short, &Read{Table: long, Row: 2})[0]
	if a != long || b != long || same(a, b) || len(short.names) != 0 {
		t.Fatal("a name over codec.MaxInternLen was interned or decoded wrong")
	}

	// A fresh connection shares nothing with the first.
	fresh := NewConn(&stream)
	if got := tables(fresh, &Read{Table: "item", Row: 1})[0]; got != "item" || same(got, item) {
		t.Fatalf("a fresh Conn returned %q from another connection's intern set", got)
	}
}

// TestRecvReleasesOversizedBuffer: a giant frame must not pin its
// buffer to the connection — the retained read buffer stays small
// after the spike.
func TestRecvReleasesOversizedBuffer(t *testing.T) {
	big := &Records{Recs: propagationRun(20000)}
	sink := &sinkRW{}
	enc := NewConn(sink)
	if err := enc.Send(big); err != nil {
		t.Fatal(err)
	}
	if len(enc.wbuf) <= recvRetain {
		t.Fatalf("test frame too small (%d bytes) to exercise the pooled path", len(enc.wbuf))
	}
	frame := make([]byte, len(enc.wbuf))
	copy(frame, enc.wbuf)
	c := NewConn(&sinkRW{frame: frame})
	if _, err := c.Recv(); err != nil {
		t.Fatal(err)
	}
	if cap(c.rbuf) > recvRetain {
		t.Fatalf("connection retained a %d-byte read buffer after a large frame (cap %d)",
			cap(c.rbuf), recvRetain)
	}
}

// TestRecvReleasesOversizedArena: a catalog-load frame's records are
// decoded whole, but the connection keeps no entry arena above
// recvRetain bytes after it — a load record gets an entry array of its
// own, as a large frame gets a read buffer of its own — while a
// propagation frame's arena is kept for the next one.
func TestRecvReleasesOversizedArena(t *testing.T) {
	const rows = 4 * arenaMax // a small frame, a large arena
	values := make([]string, rows)
	keys := make([]int64, rows)
	for i := range values {
		keys[i], values[i] = int64(i), fmt.Sprintf("v%d", i)
	}
	load := []Record{{Version: 1, WS: writeset.Rows("item", keys, values)}}
	var stream bytes.Buffer
	enc, dec := NewConn(&stream), NewConn(&stream)
	recv := func(recs []Record) *Records {
		t.Helper()
		if err := enc.Send(&Records{Recs: recs}); err != nil {
			t.Fatal(err)
		}
		m, err := dec.Recv()
		if err != nil {
			t.Fatal(err)
		}
		got := m.(*Records)
		recordsEqual(t, got.Recs, recs)
		return got
	}
	if len(enc.wbuf) > recvRetain {
		t.Fatalf("load frame of %d bytes takes the pooled read path; want the arena bound alone under test", len(enc.wbuf))
	}
	if got := recv(propagationRun(4)); got.entries == nil {
		t.Fatal("a propagation frame kept no arena")
	}
	if got := recv(load); cap(got.entries) > arenaMax {
		t.Fatalf("connection kept an arena of %d entries after a load frame, want <= %d", cap(got.entries), arenaMax)
	}
	if got := recv(propagationRun(4)); got.entries == nil || cap(got.entries) > arenaMax {
		t.Fatalf("propagation frame after a load: arena of %d entries", cap(got.entries))
	}
}

func benchFrame(b *testing.B, msg Message) []byte {
	b.Helper()
	enc := NewConn(&sinkRW{})
	if err := enc.Send(msg); err != nil {
		b.Fatal(err)
	}
	frame := make([]byte, len(enc.wbuf))
	copy(frame, enc.wbuf)
	return frame
}

func BenchmarkHotFrameEncode(b *testing.B) {
	for _, tc := range hotFrames {
		b.Run(tc.name, func(b *testing.B) {
			c := NewConn(&sinkRW{})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Send(tc.msg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkHotFrameDecode(b *testing.B) {
	for _, tc := range hotFrames {
		b.Run(tc.name, func(b *testing.B) {
			c := NewConn(&sinkRW{frame: benchFrame(b, tc.msg)})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Recv(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRecords measures the propagation codec itself: encode and
// decode of a 64-record stream, plain and compressed.
func BenchmarkRecords(b *testing.B) {
	recs := propagationRun(64)
	for _, compress := range []bool{false, true} {
		name := "plain"
		if compress {
			name = "flate"
		}
		b.Run("encode/"+name, func(b *testing.B) {
			c := NewConn(&sinkRW{})
			msg := &Records{Recs: recs, Compress: compress}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Send(msg); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("decode/"+name, func(b *testing.B) {
			c := NewConn(&sinkRW{frame: benchFrame(b, &Records{Recs: recs, Compress: compress})})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Recv(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
