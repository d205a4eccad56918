package wire

import (
	"bytes"
	"compress/flate"
	"errors"
	"fmt"
	"io"
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

// recScratch holds transient body buffers: the plain body before
// optional compression on the encode side, the inflated body on the
// decode side. Decoded messages copy every retained byte out, so the
// buffers recycle safely.
var recScratch = sync.Pool{New: func() any {
	b := make([]byte, 0, 4<<10)
	return &b
}}

var flateWriters = sync.Pool{New: func() any {
	w, _ := flate.NewWriter(io.Discard, flate.BestSpeed)
	return w
}}

var flateReaders = sync.Pool{New: func() any {
	return flate.NewReader(bytes.NewReader(nil))
}}

func (m *Records) encode(b []byte) []byte {
	sp := recScratch.Get().(*[]byte)
	body := appendRecordsBody((*sp)[:0], m.Recs)
	if m.Compress && len(body) >= compressMin {
		if out, ok := appendFlate(b, body); ok {
			*sp = body
			recScratch.Put(sp)
			return out
		}
	}
	b = append(b, 0)
	b = append(b, body...)
	*sp = body
	recScratch.Put(sp)
	return b
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
	sp := recScratch.Get().(*[]byte)
	plain, err := inflateInto((*sp)[:0], comp)
	*sp = plain
	if err != nil {
		recScratch.Put(sp)
		d.err = err
		return
	}
	sub := decoder{b: plain, names: d.names}
	m.decodeRecordsBody(&sub)
	switch {
	case sub.err != nil:
		d.err = sub.err
	case sub.off != len(sub.b):
		d.err = ErrTrailingBytes
	}
	recScratch.Put(sp)
}

// appendRecordsBody encodes the plain (uncompressed) body.
func appendRecordsBody(b []byte, recs []Record) []byte {
	b = appendUvarint(b, uint64(len(recs)))
	// Per-frame table dictionary: each distinct name ships once and
	// entries reference it by index. Propagation streams touch a
	// handful of tables, so a linear scan beats a map.
	var tables []string
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
	return b
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
	var tables []string
	if nt > 0 {
		tables = make([]string, 0, prealloc(nt))
		for i := uint64(0); i < nt; i++ {
			tables = append(tables, d.table())
		}
	}
	if d.err != nil {
		return
	}
	if n > uint64(len(d.b)-d.off) { // each record is >= 4 bytes
		d.fail()
		return
	}
	m.Recs = make([]Record, 0, prealloc(n))
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
	fr := flateReaders.Get().(io.ReadCloser)
	if err := fr.(flate.Resetter).Reset(bytes.NewReader(comp), nil); err != nil {
		flateReaders.Put(fr)
		return dst, err
	}
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := fr.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			flateReaders.Put(fr)
			return dst, fmt.Errorf("wire: inflate: %w", err)
		}
		if len(dst) > MaxFrame {
			flateReaders.Put(fr)
			return dst, ErrFrameTooLarge
		}
	}
	flateReaders.Put(fr)
	return dst, nil
}
