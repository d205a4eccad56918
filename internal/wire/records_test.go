package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/writeset"
)

// propagationRun builds a Records frame shaped like a real propagation
// stream: n records over a handful of tables, ascending versions,
// values with the repetitive structure TPC-W rows have.
func propagationRun(n int) []Record {
	tables := []string{"item", "orders", "order_line", "shopping_cart"}
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			Version: int64(1000 + i),
			WS: writeset.New([]writeset.Entry{
				{Key: writeset.Key{Table: tables[i%len(tables)], Row: int64(i * 7)},
					Value: fmt.Sprintf("qty=%d subject=ARTS stock=%d thumb=img/thumb_%d.gif", i, 90-i%10, i)},
				{Key: writeset.Key{Table: tables[(i+1)%len(tables)], Row: int64(i)},
					Delete: i%5 == 0, Value: "total=104.99 status=SHIPPED"},
			}),
			Trace:    uint64(i) << 13,
			CommitNs: int64(1754600000000000000 + i*1000),
		}
	}
	return recs
}

func recordsEqual(t *testing.T, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Version != w.Version || g.Trace != w.Trace || g.CommitNs != w.CommitNs || !wsEqual(g.WS, w.WS) {
			t.Fatalf("record %d mismatch:\n got %+v\nwant %+v", i, g, w)
		}
	}
}

// TestRecordsRoundTripV5 round-trips the compact propagation shape,
// plain and compressed, including the awkward cases: version deltas
// that run backwards, empty writesets, deletes.
func TestRecordsRoundTripV5(t *testing.T) {
	recs := []Record{
		{Version: 50, WS: writeset.New([]writeset.Entry{
			{Key: writeset.Key{Table: "item", Row: -3}, Value: "x"},
			{Key: writeset.Key{Table: "item", Row: 9}, Delete: true},
		}), Trace: ^uint64(0), CommitNs: -1},
		{Version: 7}, // non-monotonic: negative delta, empty writeset
		{Version: 8, WS: writeset.New([]writeset.Entry{
			{Key: writeset.Key{Table: "orders", Row: 0}, Value: ""},
		})},
	}
	for _, compress := range []bool{false, true} {
		got := roundTrip(t, &Records{Recs: recs, Compress: compress}).(*Records)
		recordsEqual(t, got.Recs, recs)
	}
	if got := roundTrip(t, &Records{}).(*Records); len(got.Recs) != 0 {
		t.Fatalf("empty Records came back with %d records", len(got.Recs))
	}
}

// TestRecordsV5Compresses pins the compression bargain: a body with
// real redundancy gets smaller than its plain encoding, and the frame
// is marked compressed.
func TestRecordsV5Compresses(t *testing.T) {
	recs := propagationRun(200)
	plain := (&Records{Recs: recs}).encode(nil)
	comp := (&Records{Recs: recs, Compress: true}).encode(nil)
	if plain[0] != 0 {
		t.Fatalf("plain payload flags = %#x", plain[0])
	}
	if comp[0] != recFlate {
		t.Fatalf("compressed payload flags = %#x, want recFlate", comp[0])
	}
	if len(comp) >= len(plain) {
		t.Fatalf("compression did not shrink: %d -> %d bytes", len(plain), len(comp))
	}
}

// TestRecordsV5CompressionFallback: bodies below compressMin, and
// bodies compression cannot shrink, fall back to the plain shape — the
// Compress intent never grows a frame.
func TestRecordsV5CompressionFallback(t *testing.T) {
	tiny := []Record{{Version: 1, WS: writeset.New([]writeset.Entry{
		{Key: writeset.Key{Table: "t", Row: 1}, Value: "v"},
	})}}
	if b := (&Records{Recs: tiny, Compress: true}).encode(nil); b[0] != 0 {
		t.Fatalf("tiny body was compressed (flags %#x)", b[0])
	}
	got := roundTrip(t, &Records{Recs: tiny, Compress: true}).(*Records)
	recordsEqual(t, got.Recs, tiny)
}

// TestRecordsV5RejectsUnknownFlags: a flags byte with bits this decoder
// does not understand is a hard error, not silent misparsing.
func TestRecordsV5RejectsUnknownFlags(t *testing.T) {
	payload := (&Records{Recs: propagationRun(1)}).encode(nil)
	payload[0] = 0x80
	d := &decoder{Decoder: codec.NewDecoder(payload)}
	(&Records{}).decode(d)
	if d.Err() == nil {
		t.Fatal("unknown flags decoded without error")
	}
}

// TestRecordsV5BadDictIndex: an entry referencing past the table
// dictionary must fail cleanly.
func TestRecordsV5BadDictIndex(t *testing.T) {
	var body []byte
	body = binary.AppendUvarint(body, 1) // one record
	body = binary.AppendUvarint(body, 0) // empty dictionary
	body = binary.AppendVarint(body, 1)  // version
	body = binary.AppendUvarint(body, 0) // trace
	body = binary.AppendVarint(body, 0)  // commitNs
	body = binary.AppendUvarint(body, 1) // one entry
	body = binary.AppendUvarint(body, 0) // table index 0 — out of range
	payload := append([]byte{0}, body...)
	d := &decoder{Decoder: codec.NewDecoder(payload)}
	(&Records{}).decode(d)
	if d.Err() == nil {
		t.Fatal("out-of-range dictionary index decoded without error")
	}
}

// TestRecordsV5CompressedTrailing: bytes after a well-formed body
// inside the compressed stream are an error, mirroring the frame-level
// trailing-bytes rule.
func TestRecordsV5CompressedTrailing(t *testing.T) {
	body, _ := appendRecordsBody(nil, nil, propagationRun(20))
	body = append(body, 0xAA) // junk beyond the declared records
	payload, ok := appendFlate(nil, body)
	if !ok {
		t.Skip("junk body did not compress; cannot exercise the path")
	}
	d := &decoder{Decoder: codec.NewDecoder(payload)}
	(&Records{}).decode(d)
	if d.Err() == nil {
		t.Fatal("trailing bytes inside the compressed body decoded without error")
	}
}

// FuzzRecords fuzzes the delta/dictionary/compression codec through
// full frames.
func FuzzRecords(f *testing.F) {
	f.Add(int64(1), int64(1), uint64(0), int64(0), "item", int64(7), "v", false, false)
	f.Add(int64(-9), int64(-1), ^uint64(0), int64(-5), "", int64(0), "", true, true)
	f.Add(int64(1<<40), int64(3), uint64(77), int64(1<<50), "orders", int64(-2),
		strings.Repeat("stock=91 ", 40), false, true)
	f.Fuzz(func(t *testing.T, v1, delta int64, trace uint64, commitNs int64,
		table string, row int64, value string, del, compress bool) {
		recs := []Record{
			{Version: v1, WS: writeset.New([]writeset.Entry{
				{Key: writeset.Key{Table: table, Row: row}, Delete: del, Value: value},
				{Key: writeset.Key{Table: "fixed"}, Value: value},
			}), Trace: trace, CommitNs: commitNs},
			{Version: v1 + delta, WS: writeset.New([]writeset.Entry{
				{Key: writeset.Key{Table: table, Row: row + 1}, Value: value},
			})},
		}
		// Two frames on one connection: the second decodes into the
		// first's struct and entry arena, with a different shape — one
		// record more, whose entries outgrow the first frame's arena —
		// and must come out exact.
		next := append([]Record{{Version: v1 + 2*delta, WS: writeset.New([]writeset.Entry{
			{Key: writeset.Key{Table: "fixed", Row: row}, Value: value + "'"},
			{Key: writeset.Key{Table: table}, Delete: !del},
			{Key: writeset.Key{Table: "other", Row: -row}, Value: value},
		}), Trace: trace + 1}}, recs...)
		var stream bytes.Buffer
		enc, dec := NewConn(&stream), NewConn(&stream)
		for _, want := range [][]Record{recs, next} {
			if err := enc.Send(&Records{Recs: want, Compress: compress}); err != nil {
				t.Fatal(err)
			}
			got, err := dec.Recv()
			if err != nil {
				t.Fatal(err)
			}
			recordsEqual(t, got.(*Records).Recs, want)
		}
	})
}

// TestLyingCountsAllocateNothing: a count whose elements fit the bytes
// left at one byte each, but not at their minimum width, fails the
// decode before its array is allocated, for every counted array a
// message decodes into a fresh slice.
func TestLyingCountsAllocateNothing(t *testing.T) {
	// elems is a count of n elements followed by too few bytes for them
	// at width w, but at least n.
	elems := func(b []byte, n, w int) []byte {
		b = binary.AppendUvarint(b, uint64(n))
		return append(b, make([]byte, n*w-1)...)
	}
	cases := []struct {
		name    string
		msg     interface{ decode(*decoder) }
		payload []byte
	}{
		{"Load", &Load{}, elems(codec.AppendString(nil, ""), 5, codec.RowWidth)},
		{"DumpOK", &DumpOK{}, elems(nil, 5, codec.RowWidth)},
		{"SnapshotOK", &SnapshotOK{}, elems([]byte{2, 0}, 5, codec.RowWidth)},
		{"MembersOK", &MembersOK{}, elems([]byte{2}, 5, codec.RowWidth)},
		// Records: flags, the record count, an empty dictionary, then too
		// few bytes for the records.
		{"Records", &Records{}, append([]byte{0, 5, 0}, make([]byte, 5*recordWidth-1)...)},
		// One record whose entry count outruns its bytes; the record
		// slice is the message's reused scratch.
		{"Records/entries", &Records{}, elems([]byte{0, 1, 0, 2, 0, 0}, 5, codec.EntryWidth)},
	}
	for _, tc := range cases {
		var d decoder
		allocs := testing.AllocsPerRun(100, func() {
			d.Reset(tc.payload, nil)
			tc.msg.decode(&d)
		})
		if !errors.Is(d.Err(), ErrTruncated) {
			t.Fatalf("%s: decode err = %v, want ErrTruncated", tc.name, d.Err())
		}
		if allocs != 0 {
			t.Errorf("%s: a lying count allocated %.0f times, want 0", tc.name, allocs)
		}
	}
}

// BenchmarkDecodeLoadRecords decodes one FetchSince reply carrying a
// catalog load record: a chunk of rows cut at repl.LoadChunkBytes
// (256 KiB), as a replica decodes each record of a catalog load.
func BenchmarkDecodeLoadRecords(b *testing.B) {
	var entries []writeset.Entry
	size := 0
	for row := int64(0); size < 256<<10; row++ {
		v := fmt.Sprintf("bid-%d user=%d item=%d qty=1 max=%d.50", row, row%9973, row%4099, 10+row%90)
		entries = append(entries, writeset.Entry{Key: writeset.Key{Table: "bids", Row: row}, Value: v})
		size += len(v) + 16 // the loader's per-row charge (repl.Chunks)
	}
	msg := &Records{Recs: []Record{{Version: 7, WS: writeset.New(entries)}}}
	c := NewConn(&sinkRW{frame: benchFrame(b, msg)})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Recv(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(entries)), "ns/row")
}
