package wire

import (
	"testing"

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

// hotFrames are the commit-path messages a loaded cluster exchanges
// per transaction; their encode path must not allocate.
var hotFrames = []struct {
	name string
	msg  Message
}{
	{"Begin", &Begin{Trace: 7}},
	{"Write", &Write{Table: "item", Row: 42, Value: "stock=91 qty=3"}},
	{"Commit", &Commit{}},
	{"Certify", &Certify{Snapshot: 99, WS: hotWS, Trace: 7}},
	{"FetchSince", &FetchSince{Version: 12, WaitMillis: 250}},
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
// are both reused). Frames that carry strings or writesets must copy
// them out of the reused buffer — the caller retains them — so their
// floor is the retained data itself, nothing more.
func TestHotFrameDecodeAllocs(t *testing.T) {
	cases := []struct {
		name string
		msg  Message
		max  float64 // allocation ceiling; 0 means exactly zero
	}{
		{"Begin", &Begin{Trace: 7}, 0},
		{"BeginOK", &BeginOK{Applied: 12, Trace: 7}, 0},
		{"Commit", &Commit{}, 0},
		{"CommitOK", &CommitOK{Applied: 13}, 0},
		{"FetchSince", &FetchSince{Version: 12, WaitMillis: 250}, 0},
		// Write retains two strings (table, value).
		{"Write", &Write{Table: "item", Row: 42, Value: "stock=91 qty=3"}, 2},
		// Certify retains the writeset: entries slice, writeset
		// internals, and the entry strings.
		{"Certify", &Certify{Snapshot: 99, WS: hotWS, Trace: 7}, 5},
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
