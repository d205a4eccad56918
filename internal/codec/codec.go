// Package codec owns the bytes of every binary format the repository
// writes: the varint, string and writeset encodings, the CRC-checked
// frame, and the log frame kinds. The wire protocol's messages, the
// WAL's segments, the Paxos values the certifier proposes and the
// acceptor's log all encode and decode through it, so a writeset or a
// log frame has one spelling wherever it is stored or sent.
package codec

import (
	"encoding/binary"
	"errors"

	"repro/internal/writeset"
)

// ErrTruncated reports a field that runs past the end of its input, or
// an element count whose elements cannot fit in the bytes left.
var ErrTruncated = errors.New("codec: truncated payload")

// Interning bounds: an intern set keeps at most MaxInterned table names
// of at most MaxInternLen bytes each, so a peer cycling through names
// cannot grow it without limit. Names past either bound are copied.
const (
	MaxInterned  = 64
	MaxInternLen = 128
)

// Decoder consumes an encoded input with sticky error handling: the
// first failure is kept, and every later read returns a zero value, so
// a caller checks Err once after reading a whole message or frame.
type Decoder struct {
	b   []byte
	off int
	err error
	// names is an optional table-name intern set; nil copies every name.
	names map[string]string
}

// NewDecoder returns a decoder over b that copies every table name.
func NewDecoder(b []byte) Decoder { return Decoder{b: b} }

// Reset points d at b with the intern set names (nil: none).
func (d *Decoder) Reset(b []byte, names map[string]string) {
	*d = Decoder{b: b, names: names}
}

// Sub returns a decoder over b sharing d's intern set.
func (d *Decoder) Sub(b []byte) Decoder { return Decoder{b: b, names: d.names} }

// Err returns the first failure, or nil.
func (d *Decoder) Err() error { return d.err }

// Fail records err unless a failure is already recorded.
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Len returns the number of unread bytes.
func (d *Decoder) Len() int { return len(d.b) - d.off }

// Rest consumes and returns the unread bytes.
func (d *Decoder) Rest() []byte {
	b := d.b[d.off:]
	d.off = len(d.b)
	return b
}

func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.Fail(ErrTruncated)
		return 0
	}
	d.off += n
	return v
}

func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.Fail(ErrTruncated)
		return 0
	}
	d.off += n
	return v
}

func (d *Decoder) Byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.b) {
		d.Fail(ErrTruncated)
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *Decoder) Bool() bool { return d.Byte() != 0 }

// Count reads the count of elements that each encode in at least w
// bytes. A count whose elements cannot fit in the unread bytes, n*w >
// Len(), fails the decode (and returns 0) before anything is allocated
// for it, so a decoder sizes its array at exactly the count it gets:
// what it allocates is bounded by the input's own length.
func (d *Decoder) Count(w int) uint64 { return d.Fit(d.Uvarint(), w) }

// Fit returns n when n elements of at least w bytes each fit in the
// unread bytes, and otherwise fails the decode and returns 0: Count
// for a count read earlier than the elements it counts.
func (d *Decoder) Fit(n uint64, w int) uint64 {
	if n > uint64(d.Len()/w) {
		d.Fail(ErrTruncated)
		return 0
	}
	return n
}

// Raw returns a length-prefixed byte string still inside the input.
func (d *Decoder) Raw() []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(d.Len()) {
		d.Fail(ErrTruncated)
		return nil
	}
	b := d.b[d.off : d.off+int(n)]
	d.off += int(n)
	return b
}

// Str copies a length-prefixed string out of the input (callers reuse
// their buffers, so retained strings must own their bytes).
func (d *Decoder) Str() string { return string(d.Raw()) }

// Table decodes a table name. A connection sees the same few names on
// every frame, so a name already in the intern set comes back as the
// set's copy — the lookup by string(b) does not allocate — and only a
// new name is copied (and interned while the set has room).
func (d *Decoder) Table() string {
	b := d.Raw()
	if s, ok := d.names[string(b)]; ok {
		return s
	}
	s := string(b)
	if d.err == nil && d.names != nil && len(d.names) < MaxInterned && len(s) <= MaxInternLen {
		d.names[s] = s
	}
	return s
}

// Minimum encoded widths, for Count. A writeset entry is a table name
// (or dictionary index), row, delete flag and value length. A row of a
// load, dump or snapshot is an id and a value length, as is a member
// (id and address); a snapshot's table is a name and a row count.
const (
	EntryWidth = 4
	RowWidth   = 2
)

// Writeset decodes what AppendWriteset encodes.
func (d *Decoder) Writeset() writeset.Writeset {
	n := d.Count(EntryWidth)
	if d.err != nil || n == 0 {
		return writeset.Writeset{}
	}
	entries := make([]writeset.Entry, n)
	for i := range entries {
		e := &entries[i]
		e.Key.Table = d.Table()
		e.Key.Row = d.Varint()
		e.Delete = d.Bool()
		e.Value = d.Str()
		if d.err != nil {
			return writeset.Writeset{}
		}
	}
	return writeset.New(entries)
}

func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendWriteset encodes a writeset: entry count, then per entry the
// table, row, delete flag and value.
func AppendWriteset(b []byte, ws writeset.Writeset) []byte {
	b = binary.AppendUvarint(b, uint64(len(ws.Entries)))
	for _, e := range ws.Entries {
		b = AppendString(b, e.Key.Table)
		b = binary.AppendVarint(b, e.Key.Row)
		b = AppendBool(b, e.Delete)
		b = AppendString(b, e.Value)
	}
	return b
}
