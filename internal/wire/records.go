package wire

import (
	"bytes"
	"compress/flate"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"

	"repro/internal/writeset"
)

// Records is framed for propagation efficiency. The payload is one
// flags byte followed by a body:
//
//	count uvarint
//	table dictionary: ntables uvarint, then each distinct table name
//	per record (delta-encoded against the previous record):
//	  version varint   — delta vs the previous record (first absolute)
//	  trace uvarint, commitNs varint
//	  entry count uvarint, then per entry:
//	    table dictionary index uvarint, row varint, delete bool, value
//
// When recFlate is set the body is DEFLATE-compressed (stdlib flate,
// BestSpeed). The sender requests compression via Records.Compress and
// falls back to the plain body whenever compression does not shrink
// it, so compression never costs more than the flags byte.

// recFlate marks a DEFLATE-compressed Records body.
const recFlate byte = 1 << 0

// compressMin is the smallest body worth compressing; below it the
// DEFLATE header overhead dominates.
const compressMin = 128

var (
	errRecordFlags = errors.New("wire: unknown records flags")
	errRecordDict  = errors.New("wire: record table index out of range")
)

// recScratch holds transient encode and decode state: the body buffer
// (the plain body before optional compression on the encode side, the
// inflated body on the decode side) and the encoder's table
// dictionary. Decoded messages copy every retained byte out, so the
// scratch recycles safely.
type recScratch struct {
	body   []byte
	tables []string
}

var recScratches = sync.Pool{New: func() any {
	return &recScratch{body: make([]byte, 0, 4<<10)}
}}

var flateWriters = sync.Pool{New: func() any {
	w, _ := flate.NewWriter(io.Discard, flate.BestSpeed)
	return w
}}

// inflater is a pooled flate reader with the bytes.Reader it reads
// from, so a decompression resets both instead of allocating a source.
type inflater struct {
	src bytes.Reader
	fr  io.ReadCloser
}

var inflaters = sync.Pool{New: func() any {
	f := &inflater{}
	f.fr = flate.NewReader(&f.src)
	return f
}}

func (m *Records) encode(b []byte) []byte {
	sc := recScratches.Get().(*recScratch)
	sc.body, sc.tables = appendRecordsBody(sc.body[:0], sc.tables[:0], m.Recs)
	clear(sc.tables)
	defer recScratches.Put(sc)
	if m.Compress && len(sc.body) >= compressMin {
		if out, ok := appendFlate(b, sc.body); ok {
			return out
		}
	}
	b = append(b, 0)
	return append(b, sc.body...)
}

func (m *Records) decode(d *decoder) {
	flags := d.byte()
	if d.err != nil {
		return
	}
	if flags&^recFlate != 0 {
		d.err = fmt.Errorf("%w: %#x", errRecordFlags, flags)
		return
	}
	if flags&recFlate == 0 {
		m.decodeRecordsBody(d)
		return
	}
	comp := d.b[d.off:]
	d.off = len(d.b)
	sc := recScratches.Get().(*recScratch)
	defer recScratches.Put(sc)
	plain, err := inflateInto(sc.body[:0], comp)
	sc.body = plain
	if err != nil {
		d.err = err
		return
	}
	sub := decoder{b: plain, names: d.names, tables: d.tables}
	m.decodeRecordsBody(&sub)
	d.tables = sub.tables
	switch {
	case sub.err != nil:
		d.err = sub.err
	case sub.off != len(sub.b):
		d.err = ErrTrailingBytes
	}
}

// appendRecordsBody encodes the plain (uncompressed) body, building
// the frame's table dictionary in tables; it returns both.
func appendRecordsBody(b []byte, tables []string, recs []Record) ([]byte, []string) {
	b = appendUvarint(b, uint64(len(recs)))
	// Per-frame table dictionary: each distinct name ships once and
	// entries reference it by index. Propagation streams touch a
	// handful of tables, so a linear scan beats a map.
	for _, r := range recs {
		for _, e := range r.WS.Entries {
			if tableIndex(tables, e.Key.Table) < 0 {
				tables = append(tables, e.Key.Table)
			}
		}
	}
	b = appendUvarint(b, uint64(len(tables)))
	for _, t := range tables {
		b = appendString(b, t)
	}
	prev := int64(0)
	for _, r := range recs {
		b = appendVarint(b, r.Version-prev)
		prev = r.Version
		b = appendUvarint(b, r.Trace)
		b = appendVarint(b, r.CommitNs)
		b = appendUvarint(b, uint64(len(r.WS.Entries)))
		for _, e := range r.WS.Entries {
			b = appendUvarint(b, uint64(tableIndex(tables, e.Key.Table)))
			b = appendVarint(b, e.Key.Row)
			b = appendBool(b, e.Delete)
			b = appendString(b, e.Value)
		}
	}
	return b, tables
}

func tableIndex(tables []string, name string) int {
	for i, t := range tables {
		if t == name {
			return i
		}
	}
	return -1
}

func (m *Records) decodeRecordsBody(d *decoder) {
	n := d.uvarint()
	nt := d.uvarint()
	if d.err != nil {
		return
	}
	if nt > uint64(len(d.b)-d.off) {
		d.fail()
		return
	}
	// The dictionary and the record slice are the decoder's and the
	// message's scratch from the previous frame; the writesets are not.
	clear(d.tables)
	tables := d.tables[:0]
	for i := uint64(0); i < nt; i++ {
		tables = append(tables, d.table())
	}
	d.tables = tables
	if d.err != nil {
		return
	}
	if n > uint64(len(d.b)-d.off) { // each record is >= 4 bytes
		d.fail()
		return
	}
	clear(m.Recs)
	m.Recs = slices.Grow(m.Recs[:0], prealloc(n))
	prev := int64(0)
	for i := uint64(0); i < n; i++ {
		var r Record
		r.Version = prev + d.varint()
		prev = r.Version
		r.Trace = d.uvarint()
		r.CommitNs = d.varint()
		r.WS = decodeWSDict(d, tables)
		if d.err != nil {
			return
		}
		m.Recs = append(m.Recs, r)
	}
}

// decodeWSDict decodes a writeset whose entries reference the frame's
// table dictionary by index; the entries share the dictionary strings.
func decodeWSDict(d *decoder, tables []string) writeset.Writeset {
	n := d.uvarint()
	if d.err != nil || n == 0 {
		return writeset.Writeset{}
	}
	if n > uint64(len(d.b)-d.off) {
		d.fail()
		return writeset.Writeset{}
	}
	entries := make([]writeset.Entry, 0, prealloc(n))
	for i := uint64(0); i < n; i++ {
		var e writeset.Entry
		ti := d.uvarint()
		if d.err != nil {
			return writeset.Writeset{}
		}
		if ti >= uint64(len(tables)) {
			d.err = errRecordDict
			return writeset.Writeset{}
		}
		e.Key.Table = tables[ti]
		e.Key.Row = d.varint()
		e.Delete = d.bool()
		e.Value = d.str()
		if d.err != nil {
			return writeset.Writeset{}
		}
		entries = append(entries, e)
	}
	return writeset.New(entries)
}

// sliceWriter adapts append to io.Writer for the pooled flate writer.
type sliceWriter struct{ b []byte }

func (w *sliceWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// appendFlate appends the recFlate flag and the compressed body; ok is
// false when compression failed or did not shrink the body, in which
// case b is returned truncated to its original length so the caller
// can fall back to the plain shape.
func appendFlate(b, body []byte) ([]byte, bool) {
	mark := len(b)
	sw := sliceWriter{b: append(b, recFlate)}
	w := flateWriters.Get().(*flate.Writer)
	w.Reset(&sw)
	_, werr := w.Write(body)
	cerr := w.Close()
	flateWriters.Put(w)
	if werr != nil || cerr != nil || len(sw.b)-mark-1 >= len(body) {
		return sw.b[:mark], false
	}
	return sw.b, true
}

// inflateInto decompresses comp into dst, bounded by MaxFrame so a
// hostile peer cannot amplify a small frame into unbounded memory.
func inflateInto(dst, comp []byte) ([]byte, error) {
	f := inflaters.Get().(*inflater)
	defer func() {
		f.src.Reset(nil) // drop the view of the caller's buffer
		inflaters.Put(f)
	}()
	f.src.Reset(comp)
	if err := f.fr.(flate.Resetter).Reset(&f.src, nil); err != nil {
		return dst, err
	}
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := f.fr.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return dst, fmt.Errorf("wire: inflate: %w", err)
		}
		if len(dst) > MaxFrame {
			return dst, ErrFrameTooLarge
		}
	}
	return dst, nil
}
