package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"

	"repro/internal/writeset"
)

// Framing. A log record is one frame:
//
//	[u32 length] [u32 CRC32C(payload)] [payload]
//
// where length counts the payload bytes. Frames are built in place:
// OpenFrame reserves the header at the end of a buffer, the payload is
// appended straight after it, and CloseFrame fills in the length and
// CRC, so a payload is encoded once, where it is written from.
const (
	// HeaderSize is the per-frame overhead: u32 length + u32 CRC.
	HeaderSize = 8
	// MaxFrame bounds one frame's payload; NextFrame treats a larger
	// length as corruption.
	MaxFrame = 64 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// OpenFrame reserves a frame header at the end of b.
func OpenFrame(b []byte) []byte {
	return append(b, make([]byte, HeaderSize)...)
}

// CloseFrame fills in the header of the frame opened at b[start:],
// whose payload runs to the end of b.
func CloseFrame(b []byte, start int) []byte {
	payload := b[start+HeaderSize:]
	binary.BigEndian.PutUint32(b[start:], uint32(len(payload)))
	binary.BigEndian.PutUint32(b[start+4:], crc32.Checksum(payload, crcTable))
	return b
}

// NextFrame returns the payload and total size of the frame at the
// start of b, or a nil payload when b does not start with a whole
// frame: it is short, its length is zero or above MaxFrame, or its CRC
// does not match — the torn tail a crash mid-write leaves behind.
func NextFrame(b []byte) ([]byte, int) {
	if len(b) < HeaderSize {
		return nil, 0
	}
	n := binary.BigEndian.Uint32(b)
	if n == 0 || n > MaxFrame || int(n) > len(b)-HeaderSize {
		return nil, 0
	}
	payload := b[HeaderSize : HeaderSize+int(n)]
	if binary.BigEndian.Uint32(b[4:]) != crc32.Checksum(payload, crcTable) {
		return nil, 0
	}
	return payload, HeaderSize + int(n)
}

// Log frame kinds: the first payload byte of a WAL frame, and of each
// frame of a Paxos value.
const (
	// KindBeginEpoch opens a WAL segment: {epoch, base}. Base is the
	// version the segment's records start above (0 for a fresh log, at
	// most the snapshot version after compaction).
	KindBeginEpoch byte = 1
	// KindWriteset stages one certified writeset: {version, writeset}.
	// It is not committed until a KindCommit at or above version.
	KindWriteset byte = 2
	// KindCommit commits every staged writeset with version <= its
	// {version} — the marker that makes a group-commit batch atomic.
	KindCommit byte = 3
	// KindSnapshot is the full state at a version: {version, tables}.
	// Compaction writes it in place of the records it replaces, and a
	// joiner journals the snapshot it was sent. Every table it names is
	// restored, empty ones included.
	KindSnapshot byte = 4
	// Kinds 5–7 are retired (the old apply, table and cursor frames),
	// and so are 8–10 (the 2PC frames while a transaction id was a
	// string).

	// KindPrepare holds an in-doubt cross-shard fragment: {txn id,
	// coordinator shard, snapshot, writeset}. The fragment holds key
	// locks until a KindDecision settles it.
	KindPrepare byte = 11
	// KindDecision holds a 2PC decision: {txn id, commit, version}. A
	// commit decision is followed, in the same write or Paxos value, by
	// the decided record's KindWriteset and KindCommit frames.
	KindDecision byte = 12
	// KindForget retires decisions: {count, txn ids}. A decision retired
	// in the write that makes it follows its record frames, so a torn
	// tail can lose the retirement but never the record.
	KindForget byte = 13

	// KindPromise records a Paxos acceptor's raised promise: {round,
	// proposer}. It and KindVote are a WAL's own frames, never part of
	// a Paxos value.
	KindPromise byte = 14
	// KindVote records an acceptor's vote: {slot, round, proposer,
	// value}. The value is opaque bytes (a replicated certifier's
	// value is itself log frames); voting at a ballot also promises it.
	KindVote byte = 15
)

// Retired reports whether kind is a retired frame kind (5–10): a log
// holding one was written by an older format and cannot be replayed.
func Retired(kind byte) bool { return kind >= 5 && kind <= 10 }

// ErrUnknownKind reports a frame whose kind byte is none of the above.
var ErrUnknownKind = errors.New("codec: unknown frame kind")

func BeginEpochFrame(b []byte, epoch, base int64) []byte {
	start := len(b)
	b = append(OpenFrame(b), KindBeginEpoch)
	b = binary.AppendVarint(b, epoch)
	return CloseFrame(binary.AppendVarint(b, base), start)
}

func WritesetFrame(b []byte, version int64, ws writeset.Writeset) []byte {
	start := len(b)
	b = append(OpenFrame(b), KindWriteset)
	b = binary.AppendVarint(b, version)
	return CloseFrame(AppendWriteset(b, ws), start)
}

func CommitFrame(b []byte, version int64) []byte {
	start := len(b)
	b = append(OpenFrame(b), KindCommit)
	return CloseFrame(binary.AppendVarint(b, version), start)
}

func PrepareFrame(b []byte, txn TxnID, coord, snapshot int64, ws writeset.Writeset) []byte {
	start := len(b)
	b = append(OpenFrame(b), KindPrepare)
	b = AppendTxnID(b, txn)
	b = binary.AppendVarint(b, coord)
	b = binary.AppendVarint(b, snapshot)
	return CloseFrame(AppendWriteset(b, ws), start)
}

func DecisionFrame(b []byte, txn TxnID, commit bool, version int64) []byte {
	start := len(b)
	b = append(OpenFrame(b), KindDecision)
	b = AppendTxnID(b, txn)
	b = AppendBool(b, commit)
	return CloseFrame(binary.AppendVarint(b, version), start)
}

func ForgetFrame(b []byte, txns []TxnID) []byte {
	start := len(b)
	b = append(OpenFrame(b), KindForget)
	return CloseFrame(AppendTxnIDs(b, txns), start)
}

func PromiseFrame(b []byte, round, proposer int64) []byte {
	start := len(b)
	b = append(OpenFrame(b), KindPromise)
	b = binary.AppendVarint(b, round)
	return CloseFrame(binary.AppendVarint(b, proposer), start)
}

func VoteFrame(b []byte, slot, round, proposer int64, value string) []byte {
	start := len(b)
	b = append(OpenFrame(b), KindVote)
	b = binary.AppendVarint(b, slot)
	b = binary.AppendVarint(b, round)
	b = binary.AppendVarint(b, proposer)
	return CloseFrame(AppendString(b, value), start)
}

// SnapshotFrame encodes a full state with tables and rows in sorted
// order, so equal states encode to equal bytes.
func SnapshotFrame(b []byte, version int64, state map[string]map[int64]string) []byte {
	start := len(b)
	b = append(OpenFrame(b), KindSnapshot)
	b = binary.AppendVarint(b, version)
	names := make([]string, 0, len(state))
	for n := range state {
		names = append(names, n)
	}
	sort.Strings(names)
	b = binary.AppendUvarint(b, uint64(len(names)))
	for _, name := range names {
		rows := state[name]
		b = AppendString(b, name)
		b = binary.AppendUvarint(b, uint64(len(rows)))
		ids := make([]int64, 0, len(rows))
		for id := range rows {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			b = binary.AppendVarint(b, id)
			b = AppendString(b, rows[id])
		}
	}
	return CloseFrame(b, start)
}

// Frame is one decoded log frame: its kind and the fields that kind
// carries (the rest stay zero).
type Frame struct {
	Kind byte
	// Epoch and Base: KindBeginEpoch.
	Epoch, Base int64
	// Version: KindWriteset, KindCommit, KindDecision, KindSnapshot.
	Version int64
	// Txn: KindPrepare, KindDecision.
	Txn TxnID
	// Forget: KindForget.
	Forget []TxnID
	// Coord and Snapshot: KindPrepare.
	Coord, Snapshot int64
	// Commit: KindDecision.
	Commit bool
	// Writeset: KindWriteset, KindPrepare.
	Writeset writeset.Writeset
	// Tables: KindSnapshot.
	Tables map[string]map[int64]string
	// Round and Proposer (a ballot): KindPromise, KindVote.
	Round, Proposer int64
	// Slot and Value: KindVote. Value still points into the payload.
	Slot  int64
	Value []byte
}

// DecodeFrame decodes one frame payload (as NextFrame returns it). A
// payload that is empty, of an unknown kind, truncated or longer than
// its fields is an error.
func DecodeFrame(payload []byte) (Frame, error) {
	if len(payload) == 0 {
		return Frame{}, ErrTruncated
	}
	f := Frame{Kind: payload[0]}
	d := NewDecoder(payload[1:])
	switch f.Kind {
	case KindBeginEpoch:
		f.Epoch = d.Varint()
		f.Base = d.Varint()
	case KindWriteset:
		f.Version = d.Varint()
		f.Writeset = d.Writeset()
	case KindCommit:
		f.Version = d.Varint()
	case KindSnapshot:
		f.Version = d.Varint()
		f.Tables = decodeTables(&d)
	case KindPrepare:
		f.Txn = d.TxnID()
		f.Coord = d.Varint()
		f.Snapshot = d.Varint()
		f.Writeset = d.Writeset()
	case KindDecision:
		f.Txn = d.TxnID()
		f.Commit = d.Bool()
		f.Version = d.Varint()
	case KindForget:
		f.Forget = d.TxnIDs(nil)
	case KindPromise:
		f.Round = d.Varint()
		f.Proposer = d.Varint()
	case KindVote:
		f.Slot = d.Varint()
		f.Round = d.Varint()
		f.Proposer = d.Varint()
		f.Value = d.Raw()
	default:
		return Frame{}, fmt.Errorf("%w %d", ErrUnknownKind, f.Kind)
	}
	switch {
	case d.Err() != nil:
		return Frame{}, d.Err()
	case d.Len() != 0:
		return Frame{}, fmt.Errorf("codec: %d trailing bytes in a kind %d frame", d.Len(), f.Kind)
	}
	return f, nil
}

// decodeTables decodes a snapshot's tables.
func decodeTables(d *Decoder) map[string]map[int64]string {
	nt := d.Count(RowWidth)
	tables := make(map[string]map[int64]string, nt)
	for i := uint64(0); i < nt && d.Err() == nil; i++ {
		name := d.Str()
		nr := d.Count(RowWidth)
		rows := make(map[int64]string, nr)
		for j := uint64(0); j < nr && d.Err() == nil; j++ {
			row := d.Varint()
			rows[row] = d.Str()
		}
		tables[name] = rows
	}
	return tables
}
