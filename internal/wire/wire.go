// Package wire implements the length-prefixed binary protocol the
// networked replica servers and their clients speak: transaction
// operations (begin/read/write/delete/commit/abort), schema, loading and
// dumping, remote certification, and writeset propagation
// (FetchSince), the messages the paper's prototypes exchange between
// proxies, the certifier and the load balancer (§5).
//
// Every connection opens with a Hello carrying a 4-byte magic and the
// protocol version, and the server refuses any version but its own
// (ProtoVersion) before other traffic. Each subsequent frame is
//
//	[4-byte big-endian length] [1-byte message type] [payload]
//
// where length counts the type byte plus the payload and is bounded by
// MaxFrame. Encoding is allocation-conscious: a Conn reuses one read
// and one write buffer, messages append themselves to the write buffer
// in place, and integers use varints so typical transaction frames fit
// in a few dozen bytes. Decoding is too: Recv reuses the struct of each
// hot message type, and table names are interned per connection, so a
// name seen before costs no copy. Send encodes synchronously, so the
// owner of a hot request or reply struct may refill and resend it as
// soon as Send returns.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/writeset"
)

const (
	// ProtoVersion is the one protocol version this build speaks. Every
	// node and client of a deployment is built from the same source, so
	// nothing is negotiated: Hello carries ProtoVersion, and a server
	// answers any other version with Err{CodeBadRequest} and closes the
	// connection. Each message has exactly one payload shape. Any change
	// to a frame's shape — a field added, removed or re-encoded, or a
	// message type added — bumps ProtoVersion.
	ProtoVersion = 8

	// MaxFrame bounds one frame (type byte + payload) to keep a
	// misbehaving peer from forcing unbounded allocation.
	MaxFrame = 16 << 20
)

// magic opens every Hello payload.
var magic = [4]byte{'R', 'D', 'B', '1'}

var (
	// ErrFrameTooLarge reports a frame above MaxFrame.
	ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrame")
	// ErrBadMagic reports a handshake from something that does not
	// speak this protocol.
	ErrBadMagic = errors.New("wire: bad magic in handshake")
	// ErrVersionMismatch reports a peer speaking another protocol
	// version.
	ErrVersionMismatch = errors.New("wire: protocol version mismatch")
	// ErrUnknownMessage reports an unrecognized message type byte.
	ErrUnknownMessage = errors.New("wire: unknown message type")
	// ErrTruncated reports a payload shorter than its message needs.
	ErrTruncated = errors.New("wire: truncated payload")
	// ErrTrailingBytes reports a payload longer than its message, a
	// framing bug or corruption.
	ErrTrailingBytes = errors.New("wire: trailing bytes in payload")
)

// Conn frames messages over an underlying byte stream. It is not safe
// for concurrent use; callers own a connection for the duration of a
// transaction or RPC, which is how the client pool hands them out.
type Conn struct {
	rw   io.ReadWriter
	rbuf []byte
	wbuf []byte
	hdr  [4]byte
	// hot caches one reusable decode target per hot message type so
	// steady-state Recv does not allocate a fresh struct per frame.
	// Indexed by MsgType; only types marked in hotReusable are cached.
	hot [TForgetTxnOK + 1]Message
	// dec is Recv's decoder. It lives on the Conn because handing a
	// stack decoder to the dynamic decode call makes it escape — one
	// heap allocation per received frame.
	dec decoder
	// names interns the table names this connection has decoded (see
	// decoder.table).
	names map[string]string
}

// NewConn wraps a byte stream (normally a *net.TCPConn).
func NewConn(rw io.ReadWriter) *Conn {
	return &Conn{rw: rw, names: make(map[string]string)}
}

// Send encodes and writes one message as a single frame. The message
// is fully encoded before Send returns and is not retained, so the
// caller may reuse it for the next Send.
func (c *Conn) Send(m Message) error {
	c.wbuf = c.wbuf[:0]
	c.wbuf = append(c.wbuf, 0, 0, 0, 0, byte(m.msgType()))
	c.wbuf = m.encode(c.wbuf)
	n := len(c.wbuf) - 4
	if n > MaxFrame {
		return ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(c.wbuf[:4], uint32(n))
	_, err := c.rw.Write(c.wbuf)
	return err
}

// recvRetain bounds the read-buffer capacity a Conn keeps between
// frames. Typical transaction frames are tens of bytes, but bulk
// loads and snapshot chunks approach MaxFrame; keeping such a buffer
// would pin megabytes per connection for its remaining lifetime.
// Frames above the threshold borrow a buffer from a shared pool and
// release it before Recv returns (safe: decoded messages copy every
// retained byte out of the read buffer).
const recvRetain = 64 << 10

// bigRecvPool recycles oversized read buffers across connections.
var bigRecvPool sync.Pool

// grabBig returns a pooled buffer with capacity >= n.
func grabBig(n int) *[]byte {
	if v := bigRecvPool.Get(); v != nil {
		b := v.(*[]byte)
		if cap(*b) >= n {
			return b
		}
	}
	b := make([]byte, n)
	return &b
}

// Recv reads one frame and decodes it into a typed message. The
// returned message owns its variable-size data (strings, slices), but
// hot message structs themselves are reused by the next Recv of the
// same type on this connection — callers must not retain them across
// Recv calls (the request/reply discipline already guarantees this).
// A Records reply's record slice is reused with its struct; the
// writesets in it are fresh and may be kept.
// Table names are interned: a name this connection has decoded before
// comes back as the same string, not a fresh copy. Strings are
// immutable, so sharing them is invisible to callers.
func (c *Conn) Recv() (Message, error) {
	if _, err := io.ReadFull(c.rw, c.hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(c.hdr[:])
	if n < 1 {
		return nil, ErrTruncated
	}
	if n > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	var buf []byte
	if int(n) <= recvRetain {
		if cap(c.rbuf) < int(n) {
			c.rbuf = make([]byte, n)
		}
		buf = c.rbuf[:n]
	} else {
		pooled := grabBig(int(n))
		buf = (*pooled)[:n]
		defer bigRecvPool.Put(pooled)
	}
	if _, err := io.ReadFull(c.rw, buf); err != nil {
		return nil, err
	}
	m := c.messageFor(MsgType(buf[0]))
	if m == nil {
		return nil, fmt.Errorf("%w: %d", ErrUnknownMessage, buf[0])
	}
	c.dec = decoder{b: buf[1:], names: c.names, tables: c.dec.tables}
	d := &c.dec
	m.decode(d)
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.b) {
		return nil, ErrTrailingBytes
	}
	return m, nil
}

// hotReusable marks the message types whose decode target Recv reuses
// across frames: the per-transaction hot path, the 2PC verbs, and
// propagation. A type qualifies only when no caller retains the struct
// past its processing — the bulk and lockstep replies (Load/Dump/
// Snapshot/Stats/Members/Join) and the paxos frames are excluded
// because callers hold onto them. The strings and writesets a reused
// struct carries are still decoded fresh, so a certifier may keep a
// PrepareTxn's TxnID and WS as it keeps a Certify's WS.
var hotReusable = [TForgetTxnOK + 1]bool{
	TErr: true, TBegin: true, TBeginOK: true, TRead: true, TReadOK: true,
	TWrite: true, TWriteOK: true, TDelete: true, TCommit: true,
	TCommitOK: true, TCommitAborted: true, TAbort: true, TAbortOK: true,
	TSync: true, TSyncOK: true, TCertify: true, TCertifyOK: true,
	TCheck: true, TCheckOK: true, TFetchSince: true, TRecords: true,
	TPrepareTxn: true, TPrepareTxnOK: true, TDecideTxn: true,
	TDecideTxnOK: true, TResolveTxn: true, TResolveTxnOK: true,
	TForgetTxn: true, TForgetTxnOK: true,
}

// Reused reports whether Recv decodes m's type into a struct the Conn
// reuses for the next frame of that type, so a caller must finish with
// m before the connection receives again.
func Reused(m Message) bool {
	t := m.msgType()
	return int(t) < len(hotReusable) && hotReusable[t]
}

// messageFor returns the decode target for a type byte: the cached
// hot struct when the type is reusable, a fresh one otherwise.
func (c *Conn) messageFor(t MsgType) Message {
	if int(t) < len(c.hot) && hotReusable[t] {
		if m := c.hot[t]; m != nil {
			return m
		}
		m := newMessage(t)
		c.hot[t] = m
		return m
	}
	return newMessage(t)
}

// decoder consumes a payload with sticky error handling.
type decoder struct {
	b   []byte
	off int
	err error
	// names is the connection's table-name intern set; nil (a decoder
	// built outside Recv) copies every name.
	names map[string]string
	// tables is the Records table dictionary's scratch, kept across
	// the frames a Conn decodes.
	tables []string
}

// Interning bounds: a connection keeps at most maxInterned table names
// of at most maxInternLen bytes each, so a peer cycling through names
// cannot grow the set without limit. Names past either bound are
// copied per frame.
const (
	maxInterned  = 64
	maxInternLen = 128
)

func (d *decoder) fail() {
	if d.err == nil {
		d.err = ErrTruncated
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) bool() bool {
	if d.err != nil {
		return false
	}
	if d.off >= len(d.b) {
		d.fail()
		return false
	}
	v := d.b[d.off]
	d.off++
	return v != 0
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.b) {
		d.fail()
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

// raw returns a length-prefixed byte string still inside the payload.
func (d *decoder) raw() []byte {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)-d.off) {
		d.fail()
		return nil
	}
	b := d.b[d.off : d.off+int(n)]
	d.off += int(n)
	return b
}

// str copies a length-prefixed string out of the payload (the buffer
// is reused, so retained strings must own their bytes).
func (d *decoder) str() string { return string(d.raw()) }

// table decodes a table name. A connection sees the same few names on
// every frame, so a name already in the intern set comes back as the
// set's copy — the lookup by string(b) does not allocate — and only a
// new name is copied (and interned while the set has room).
func (d *decoder) table() string {
	b := d.raw()
	if s, ok := d.names[string(b)]; ok {
		return s
	}
	s := string(b)
	if d.err == nil && d.names != nil && len(d.names) < maxInterned && len(s) <= maxInternLen {
		d.names[s] = s
	}
	return s
}

// Append helpers used by message encoders.

func appendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

func appendVarint(b []byte, v int64) []byte {
	return binary.AppendVarint(b, v)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendWriteset encodes a writeset: entry count, then per entry the
// table, row, delete flag and value.
func appendWriteset(b []byte, ws writeset.Writeset) []byte {
	b = appendUvarint(b, uint64(len(ws.Entries)))
	for _, e := range ws.Entries {
		b = appendString(b, e.Key.Table)
		b = appendVarint(b, e.Key.Row)
		b = appendBool(b, e.Delete)
		b = appendString(b, e.Value)
	}
	return b
}

// maxPrealloc bounds slice preallocation from attacker-controlled
// element counts: a frame can claim millions of elements while
// holding only a few bytes, and element types are much wider than
// their 1-byte-minimum encodings. Decoders reserve at most this many
// elements up front and let append grow the rest, so a lying count
// fails at the truncated payload instead of amplifying into a huge
// allocation.
const maxPrealloc = 4096

// prealloc returns the capacity to reserve for a claimed count.
func prealloc(n uint64) int {
	if n > maxPrealloc {
		return maxPrealloc
	}
	return int(n)
}

// decodeWriteset is the inverse of appendWriteset.
func decodeWriteset(d *decoder) writeset.Writeset {
	n := d.uvarint()
	if d.err != nil || n == 0 {
		return writeset.Writeset{}
	}
	if n > uint64(len(d.b)-d.off) { // each entry is >= 1 byte
		d.fail()
		return writeset.Writeset{}
	}
	entries := make([]writeset.Entry, 0, prealloc(n))
	for i := uint64(0); i < n; i++ {
		var e writeset.Entry
		e.Key.Table = d.table()
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
