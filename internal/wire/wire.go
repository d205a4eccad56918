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

	"repro/internal/codec"
)

const (
	// ProtoVersion is the one protocol version this build speaks. Every
	// node and client of a deployment is built from the same source, so
	// nothing is negotiated: Hello carries ProtoVersion, and a server
	// answers any other version with Err{CodeBadRequest} and closes the
	// connection. Each message has exactly one payload shape. Any change
	// to a frame's shape — a field added, removed or re-encoded, or a
	// message type added — bumps ProtoVersion.
	ProtoVersion = 11

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
	ErrTruncated = codec.ErrTruncated
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
	// codec.Decoder.Table).
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
// A Records reply's record slice and entry arena are reused with its
// struct; only its value strings are fresh and may be kept.
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
	d := &c.dec
	d.Reset(buf[1:], c.names)
	m.decode(d)
	if err := d.Err(); err != nil {
		return nil, err
	}
	if d.Len() != 0 {
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
// PrepareTxn's WS as it keeps a Certify's WS; the id lists of DecideTxn
// and ForgetTxn and the entry arrays of Records are the exception,
// reused with their struct.
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

// decoder is the codec's decoder plus the Records table dictionary's
// scratch, kept across the frames a Conn decodes.
type decoder struct {
	codec.Decoder
	tables []string
}
