package wire

import (
	"encoding/binary"
	"errors"

	"repro/internal/codec"
	"repro/internal/writeset"
)

// MsgType identifies a frame's message.
type MsgType uint8

// Message type bytes. Gaps are left for future request/reply pairs;
// values are part of the protocol and must not be renumbered.
const (
	TErr           MsgType = 1
	THello         MsgType = 2
	THelloOK       MsgType = 3
	TBegin         MsgType = 4
	TBeginOK       MsgType = 5
	TRead          MsgType = 6
	TReadOK        MsgType = 7
	TWrite         MsgType = 8
	TWriteOK       MsgType = 9
	TDelete        MsgType = 10
	TCommit        MsgType = 11
	TCommitOK      MsgType = 12
	TCommitAborted MsgType = 13
	TAbort         MsgType = 14
	TAbortOK       MsgType = 15
	TSync          MsgType = 16
	TSyncOK        MsgType = 17
	TCreateTable   MsgType = 18
	TCreateTableOK MsgType = 19
	TLoad          MsgType = 20
	TLoadOK        MsgType = 21
	TDump          MsgType = 22
	TDumpOK        MsgType = 23
	TCertify       MsgType = 24
	TCertifyOK     MsgType = 25
	TCheck         MsgType = 26
	TCheckOK       MsgType = 27
	TFetchSince    MsgType = 28
	TRecords       MsgType = 29

	// Elastic membership: online join/leave, snapshot transfer,
	// membership discovery, live stats.
	TJoin        MsgType = 30
	TJoinOK      MsgType = 31
	TLeave       MsgType = 32
	TLeaveOK     MsgType = 33
	TSnapshotReq MsgType = 34
	TSnapshotOK  MsgType = 35
	TMembers     MsgType = 36
	TMembersOK   MsgType = 37
	TStats       MsgType = 38
	TStatsOK     MsgType = 39

	// Replicated certification. Paxos phase frames let acceptors run
	// inside each replica's server, and NotLeader is the structured
	// redirect a deposed certifier leader answers with.
	TPaxosPrepare   MsgType = 40
	TPaxosPrepareOK MsgType = 41
	TPaxosAccept    MsgType = 42
	TPaxosAcceptOK  MsgType = 43
	TNotLeader      MsgType = 46

	// Horizontal partitioning. The router's cross-shard two-phase
	// commit speaks these against each participating shard group's
	// certifier leader; the shard map itself rides on JoinOK/MembersOK/
	// StatsOK fields.
	TPrepareTxn   MsgType = 47
	TPrepareTxnOK MsgType = 48
	TDecideTxn    MsgType = 49
	TDecideTxnOK  MsgType = 50
	TResolveTxn   MsgType = 51
	TResolveTxnOK MsgType = 52
	TForgetTxn    MsgType = 53
	TForgetTxnOK  MsgType = 54
)

// Error codes carried by Err.
const (
	CodeInternal    uint8 = 1 // unexpected server-side failure
	CodeBadRequest  uint8 = 2 // protocol misuse (e.g. Read without Begin)
	CodeReadOnly    uint8 = 3 // write through a read-only transaction
	CodeUnsupported uint8 = 4 // operation this node does not serve
	CodeNoTable     uint8 = 5 // unknown table
	CodeDraining    uint8 = 6 // replica is leaving; reroute and retry elsewhere
)

// Message is one protocol message; concrete types below implement it.
type Message interface {
	msgType() MsgType
	encode(b []byte) []byte
	decode(d *decoder)
}

// newMessage returns a zero message for a type byte, or nil.
func newMessage(t MsgType) Message {
	switch t {
	case TErr:
		return &Err{}
	case THello:
		return &Hello{}
	case THelloOK:
		return &HelloOK{}
	case TBegin:
		return &Begin{}
	case TBeginOK:
		return &BeginOK{}
	case TRead:
		return &Read{}
	case TReadOK:
		return &ReadOK{}
	case TWrite:
		return &Write{}
	case TWriteOK:
		return &WriteOK{}
	case TDelete:
		return &Delete{}
	case TCommit:
		return &Commit{}
	case TCommitOK:
		return &CommitOK{}
	case TCommitAborted:
		return &CommitAborted{}
	case TAbort:
		return &Abort{}
	case TAbortOK:
		return &AbortOK{}
	case TSync:
		return &Sync{}
	case TSyncOK:
		return &SyncOK{}
	case TCreateTable:
		return &CreateTable{}
	case TCreateTableOK:
		return &CreateTableOK{}
	case TLoad:
		return &Load{}
	case TLoadOK:
		return &LoadOK{}
	case TDump:
		return &Dump{}
	case TDumpOK:
		return &DumpOK{}
	case TCertify:
		return &Certify{}
	case TCertifyOK:
		return &CertifyOK{}
	case TCheck:
		return &Check{}
	case TCheckOK:
		return &CheckOK{}
	case TFetchSince:
		return &FetchSince{}
	case TRecords:
		return &Records{}
	case TJoin:
		return &Join{}
	case TJoinOK:
		return &JoinOK{}
	case TLeave:
		return &Leave{}
	case TLeaveOK:
		return &LeaveOK{}
	case TSnapshotReq:
		return &SnapshotReq{}
	case TSnapshotOK:
		return &SnapshotOK{}
	case TMembers:
		return &Members{}
	case TMembersOK:
		return &MembersOK{}
	case TStats:
		return &Stats{}
	case TStatsOK:
		return &StatsOK{}
	case TPaxosPrepare:
		return &PaxosPrepare{}
	case TPaxosPrepareOK:
		return &PaxosPrepareOK{}
	case TPaxosAccept:
		return &PaxosAccept{}
	case TPaxosAcceptOK:
		return &PaxosAcceptOK{}
	case TNotLeader:
		return &NotLeader{}
	case TPrepareTxn:
		return &PrepareTxn{}
	case TPrepareTxnOK:
		return &PrepareTxnOK{}
	case TDecideTxn:
		return &DecideTxn{}
	case TDecideTxnOK:
		return &DecideTxnOK{}
	case TResolveTxn:
		return &ResolveTxn{}
	case TResolveTxnOK:
		return &ResolveTxnOK{}
	case TForgetTxn:
		return &ForgetTxn{}
	case TForgetTxnOK:
		return &ForgetTxnOK{}
	default:
		return nil
	}
}

// Err is the generic failure reply.
type Err struct {
	Code uint8
	Msg  string
}

func (*Err) msgType() MsgType { return TErr }
func (m *Err) encode(b []byte) []byte {
	b = append(b, m.Code)
	return codec.AppendString(b, m.Msg)
}
func (m *Err) decode(d *decoder) {
	m.Code = d.Byte()
	m.Msg = d.Str()
}

// Hello opens every connection: magic, protocol version, and the
// caller's identity. PeerID is the replica id of a peer link (so the
// primary can key propagation cursors by replica, not by connection);
// ordinary clients send -1.
type Hello struct {
	Proto  uint32
	PeerID int64
}

func (*Hello) msgType() MsgType { return THello }
func (m *Hello) encode(b []byte) []byte {
	b = append(b, magic[:]...)
	b = binary.AppendUvarint(b, uint64(m.Proto))
	return binary.AppendVarint(b, m.PeerID)
}
func (m *Hello) decode(d *decoder) {
	for i := range magic {
		if d.Byte() != magic[i] {
			d.Fail(ErrBadMagic)
		}
	}
	m.Proto = uint32(d.Uvarint())
	m.PeerID = d.Varint()
}

// HelloOK acknowledges the handshake and identifies the server.
type HelloOK struct {
	Proto  uint32
	Design string // "mm" or "sm"
	ID     int64  // replica id
}

func (*HelloOK) msgType() MsgType { return THelloOK }
func (m *HelloOK) encode(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(m.Proto))
	b = codec.AppendString(b, m.Design)
	return binary.AppendVarint(b, m.ID)
}
func (m *HelloOK) decode(d *decoder) {
	m.Proto = uint32(d.Uvarint())
	m.Design = d.Str()
	m.ID = d.Varint()
}

// Begin starts a transaction on this connection (one at a time).
// Trace is the client-chosen commit-path trace id; 0 asks the server
// to assign one.
type Begin struct {
	ReadOnly bool
	Trace    uint64
}

func (*Begin) msgType() MsgType { return TBegin }
func (m *Begin) encode(b []byte) []byte {
	b = codec.AppendBool(b, m.ReadOnly)
	return binary.AppendUvarint(b, m.Trace)
}
func (m *Begin) decode(d *decoder) {
	m.ReadOnly = d.Bool()
	m.Trace = d.Uvarint()
}

// BeginOK acknowledges Begin; Applied is the replica's applied global
// version at begin time (informational — the GSI snapshot). Trace
// echoes the transaction's trace id, server-assigned when the Begin
// carried 0.
type BeginOK struct {
	Applied int64
	Trace   uint64
}

func (*BeginOK) msgType() MsgType { return TBeginOK }
func (m *BeginOK) encode(b []byte) []byte {
	b = binary.AppendVarint(b, m.Applied)
	return binary.AppendUvarint(b, m.Trace)
}
func (m *BeginOK) decode(d *decoder) {
	m.Applied = d.Varint()
	m.Trace = d.Uvarint()
}

// Read asks for one row inside the connection's transaction.
type Read struct {
	Table string
	Row   int64
}

func (*Read) msgType() MsgType { return TRead }
func (m *Read) encode(b []byte) []byte {
	b = codec.AppendString(b, m.Table)
	return binary.AppendVarint(b, m.Row)
}
func (m *Read) decode(d *decoder) {
	m.Table = d.Table()
	m.Row = d.Varint()
}

// ReadOK returns the visible value; OK is false for absent rows.
type ReadOK struct {
	OK    bool
	Value string
}

func (*ReadOK) msgType() MsgType { return TReadOK }
func (m *ReadOK) encode(b []byte) []byte {
	b = codec.AppendBool(b, m.OK)
	return codec.AppendString(b, m.Value)
}
func (m *ReadOK) decode(d *decoder) {
	m.OK = d.Bool()
	m.Value = d.Str()
}

// Write stages an update inside the connection's transaction.
type Write struct {
	Table string
	Row   int64
	Value string
}

func (*Write) msgType() MsgType { return TWrite }
func (m *Write) encode(b []byte) []byte {
	b = codec.AppendString(b, m.Table)
	b = binary.AppendVarint(b, m.Row)
	return codec.AppendString(b, m.Value)
}
func (m *Write) decode(d *decoder) {
	m.Table = d.Table()
	m.Row = d.Varint()
	m.Value = d.Str()
}

// WriteOK acknowledges Write or Delete.
type WriteOK struct{}

func (*WriteOK) msgType() MsgType         { return TWriteOK }
func (m *WriteOK) encode(b []byte) []byte { return b }
func (m *WriteOK) decode(*decoder)        {}

// Delete stages a row removal.
type Delete struct {
	Table string
	Row   int64
}

func (*Delete) msgType() MsgType { return TDelete }
func (m *Delete) encode(b []byte) []byte {
	b = codec.AppendString(b, m.Table)
	return binary.AppendVarint(b, m.Row)
}
func (m *Delete) decode(d *decoder) {
	m.Table = d.Table()
	m.Row = d.Varint()
}

// Commit finishes the connection's transaction.
type Commit struct{}

func (*Commit) msgType() MsgType         { return TCommit }
func (m *Commit) encode(b []byte) []byte { return b }
func (m *Commit) decode(*decoder)        {}

// CommitOK reports a successful commit. Applied is the replica's
// applied global version when the commit was acknowledged —
// informational only: under asynchronous application it may still lag
// the version the certifier assigned to this transaction.
type CommitOK struct {
	Applied int64
}

func (*CommitOK) msgType() MsgType         { return TCommitOK }
func (m *CommitOK) encode(b []byte) []byte { return binary.AppendVarint(b, m.Applied) }
func (m *CommitOK) decode(d *decoder)      { m.Applied = d.Varint() }

// CommitAborted reports a certification (write-write conflict) abort;
// the client retries on a fresh snapshot.
type CommitAborted struct {
	ConflictWith int64
}

func (*CommitAborted) msgType() MsgType         { return TCommitAborted }
func (m *CommitAborted) encode(b []byte) []byte { return binary.AppendVarint(b, m.ConflictWith) }
func (m *CommitAborted) decode(d *decoder)      { m.ConflictWith = d.Varint() }

// Abort discards the connection's transaction.
type Abort struct{}

func (*Abort) msgType() MsgType         { return TAbort }
func (m *Abort) encode(b []byte) []byte { return b }
func (m *Abort) decode(*decoder)        {}

// AbortOK acknowledges Abort.
type AbortOK struct{}

func (*AbortOK) msgType() MsgType         { return TAbortOK }
func (m *AbortOK) encode(b []byte) []byte { return b }
func (m *AbortOK) decode(*decoder)        {}

// Sync asks the replica to catch up. Without Through it pulls once:
// every writeset committed so far. With Through positive it pulls only
// while it has applied less, until it gets there or WaitMillis passes.
type Sync struct {
	Through    int64
	WaitMillis uint32
}

func (*Sync) msgType() MsgType { return TSync }
func (m *Sync) encode(b []byte) []byte {
	b = binary.AppendVarint(b, m.Through)
	return binary.AppendUvarint(b, uint64(m.WaitMillis))
}
func (m *Sync) decode(d *decoder) {
	m.Through = d.Varint()
	m.WaitMillis = uint32(d.Uvarint())
}

// SyncOK reports the applied version after the sync.
type SyncOK struct {
	Applied int64
}

func (*SyncOK) msgType() MsgType         { return TSyncOK }
func (m *SyncOK) encode(b []byte) []byte { return binary.AppendVarint(b, m.Applied) }
func (m *SyncOK) decode(d *decoder)      { m.Applied = d.Varint() }

// CreateTable makes an empty table on every replica of the group: the
// receiving node commits it as a writeset (writeset.Schema) through the
// replicated log.
type CreateTable struct {
	Name string
}

func (*CreateTable) msgType() MsgType         { return TCreateTable }
func (m *CreateTable) encode(b []byte) []byte { return codec.AppendString(b, m.Name) }
func (m *CreateTable) decode(d *decoder)      { m.Name = d.Str() }

// CreateTableOK acknowledges CreateTable.
type CreateTableOK struct{}

func (*CreateTableOK) msgType() MsgType         { return TCreateTableOK }
func (m *CreateTableOK) encode(b []byte) []byte { return b }
func (m *CreateTableOK) decode(*decoder)        {}

// Load installs one chunk of rows, Values[i] at Rows[i], through the
// group's replicated log: the receiving node certifies the chunk (mm)
// or commits it at the master (sm) like any update, and every replica
// applies it from the log. Rows need not be contiguous; consecutive
// row ids encode as one-byte deltas.
type Load struct {
	Table  string
	Rows   []int64
	Values []string
}

func (*Load) msgType() MsgType { return TLoad }
func (m *Load) encode(b []byte) []byte {
	b = codec.AppendString(b, m.Table)
	b = binary.AppendUvarint(b, uint64(len(m.Rows)))
	prev := int64(0)
	for i, row := range m.Rows {
		b = binary.AppendVarint(b, row-prev)
		b = codec.AppendString(b, m.Values[i])
		prev = row
	}
	return b
}
func (m *Load) decode(d *decoder) {
	m.Table = d.Str()
	n := d.Count(codec.RowWidth)
	if d.Err() != nil {
		return
	}
	m.Rows = make([]int64, n)
	m.Values = make([]string, n)
	prev := int64(0)
	for i := range m.Rows {
		prev += d.Varint()
		m.Rows[i] = prev
		m.Values[i] = d.Str()
	}
}

// LoadOK acknowledges one Load chunk.
type LoadOK struct{}

func (*LoadOK) msgType() MsgType         { return TLoadOK }
func (m *LoadOK) encode(b []byte) []byte { return b }
func (m *LoadOK) decode(*decoder)        {}

// Dump asks for a full table snapshot (convergence checks).
type Dump struct {
	Table string
}

func (*Dump) msgType() MsgType         { return TDump }
func (m *Dump) encode(b []byte) []byte { return codec.AppendString(b, m.Table) }
func (m *Dump) decode(d *decoder)      { m.Table = d.Str() }

// DumpOK returns the table contents as parallel row/value slices.
type DumpOK struct {
	Rows   []int64
	Values []string
}

func (*DumpOK) msgType() MsgType { return TDumpOK }
func (m *DumpOK) encode(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(m.Rows)))
	for i, r := range m.Rows {
		b = binary.AppendVarint(b, r)
		b = codec.AppendString(b, m.Values[i])
	}
	return b
}
func (m *DumpOK) decode(d *decoder) {
	m.Rows, m.Values = decodeRows(d)
}

// decodeRows decodes a row count, then each row's id and value; no
// rows decode to nil slices.
func decodeRows(d *decoder) ([]int64, []string) {
	n := d.Count(codec.RowWidth)
	if d.Err() != nil || n == 0 {
		return nil, nil
	}
	rows, values := make([]int64, n), make([]string, n)
	for i := range rows {
		rows[i] = d.Varint()
		values[i] = d.Str()
	}
	return rows, values
}

// Certify submits a commit-time certification request to the
// certifier host (replica 0 in the mm design). Trace carries the
// submitting transaction's trace id so the leader's
// certify/paxos/journal/fsync spans stitch to the client's.
type Certify struct {
	Snapshot int64
	WS       writeset.Writeset
	Trace    uint64
}

func (*Certify) msgType() MsgType { return TCertify }
func (m *Certify) encode(b []byte) []byte {
	b = binary.AppendVarint(b, m.Snapshot)
	b = codec.AppendWriteset(b, m.WS)
	return binary.AppendUvarint(b, m.Trace)
}
func (m *Certify) decode(d *decoder) {
	m.Snapshot = d.Varint()
	m.WS = d.Writeset()
	m.Trace = d.Uvarint()
}

// CertifyOK carries the certification outcome.
type CertifyOK struct {
	Committed    bool
	Version      int64
	ConflictWith int64
}

func (*CertifyOK) msgType() MsgType { return TCertifyOK }
func (m *CertifyOK) encode(b []byte) []byte {
	b = codec.AppendBool(b, m.Committed)
	b = binary.AppendVarint(b, m.Version)
	return binary.AppendVarint(b, m.ConflictWith)
}
func (m *CertifyOK) decode(d *decoder) {
	m.Committed = d.Bool()
	m.Version = d.Varint()
	m.ConflictWith = d.Varint()
}

// Check is the eager (non-binding) conflict probe of §5.1.
type Check struct {
	Snapshot int64
	WS       writeset.Writeset
}

func (*Check) msgType() MsgType { return TCheck }
func (m *Check) encode(b []byte) []byte {
	b = binary.AppendVarint(b, m.Snapshot)
	return codec.AppendWriteset(b, m.WS)
}
func (m *Check) decode(d *decoder) {
	m.Snapshot = d.Varint()
	m.WS = d.Writeset()
}

// CheckOK reports whether the partial writeset already conflicts.
type CheckOK struct {
	Conflict bool
	With     int64
}

func (*CheckOK) msgType() MsgType { return TCheckOK }
func (m *CheckOK) encode(b []byte) []byte {
	b = codec.AppendBool(b, m.Conflict)
	return binary.AppendVarint(b, m.With)
}
func (m *CheckOK) decode(d *decoder) {
	m.Conflict = d.Bool()
	m.With = d.Varint()
}

// FetchSince asks the certifier host (mm) or master (sm) for all
// certified writesets with version > Version. WaitMillis > 0 turns the
// request into a long poll: the server holds it until new records
// arrive or the wait expires, which is how the peer links propagate
// writesets without busy polling.
type FetchSince struct {
	Version    int64
	WaitMillis uint32
}

func (*FetchSince) msgType() MsgType { return TFetchSince }
func (m *FetchSince) encode(b []byte) []byte {
	b = binary.AppendVarint(b, m.Version)
	return binary.AppendUvarint(b, uint64(m.WaitMillis))
}
func (m *FetchSince) decode(d *decoder) {
	m.Version = d.Varint()
	m.WaitMillis = uint32(d.Uvarint())
}

// Record is one certified writeset with its global version. Trace and
// CommitNs carry the originating transaction's trace id and the
// leader's commit wall-clock (UnixNano), letting every replica stitch
// its apply span onto the transaction's trace and measure
// commit-to-visible replication lag. Both are 0 when the leader has
// tracing disabled.
type Record struct {
	Version  int64
	WS       writeset.Writeset
	Trace    uint64
	CommitNs int64
}

// Records answers FetchSince with an ascending run of records in the
// compact propagation shape: a per-frame table dictionary and
// delta-encoded versions (see records.go). The server sends the body
// plain.
//
// A decoded Records owns its value strings but not its entry arrays:
// every record's entries are slices of one arena the struct keeps and
// the next frame decoded into it overwrites. Since Recv reuses the
// struct per connection, a receiver that keeps a decoded writeset past
// the next Records frame on its connection must copy the entries.
type Records struct {
	Recs []Record
	// Compress asks the encoder to DEFLATE the body. It is sender-side
	// intent, never transmitted: the frame's flags byte records what
	// actually happened (the encoder falls back to the plain body when
	// compression does not pay). The server leaves it unset; only the
	// benchmark's codec layer sets it.
	Compress bool
	// entries is the decode arena, at most arenaMax entries; a writeset
	// that would not fit (a catalog-load record) gets its own array.
	entries []writeset.Entry
}

// Clear drops the decoded records and the values their arena holds,
// keeping both arrays for the next frame, so a connection that sits
// idle after a fetch pins no writeset.
func (m *Records) Clear() {
	clear(m.Recs)
	m.Recs = m.Recs[:0]
	clear(m.entries)
	m.entries = m.entries[:0]
}

func (*Records) msgType() MsgType { return TRecords }

// Member is one cluster member as published by the primary: the
// replica id and the address its server listens on.
type Member struct {
	ID   int64
	Addr string
}

func appendMembers(b []byte, members []Member) []byte {
	b = binary.AppendUvarint(b, uint64(len(members)))
	for _, m := range members {
		b = binary.AppendVarint(b, m.ID)
		b = codec.AppendString(b, m.Addr)
	}
	return b
}

func decodeMembers(d *decoder) []Member {
	n := d.Count(codec.RowWidth)
	if d.Err() != nil || n == 0 {
		return nil
	}
	out := make([]Member, n)
	for i := range out {
		out[i].ID = d.Varint()
		out[i].Addr = d.Str()
	}
	return out
}

// Join asks the primary to admit a new replica into the cluster. Addr
// is the address the joiner's own server listens on, which the
// primary publishes to clients via Members. The primary
// assigns the replica id, registers a propagation cursor expectation
// (blocking certification-log GC until the joiner starts pulling) and
// bumps the membership epoch.
type Join struct {
	Addr string
}

func (*Join) msgType() MsgType         { return TJoin }
func (m *Join) encode(b []byte) []byte { return codec.AppendString(b, m.Addr) }
func (m *Join) decode(d *decoder)      { m.Addr = d.Str() }

// JoinOK admits the joiner: its assigned replica id, the membership
// epoch after admission, and the current member list (joiner
// included).
type JoinOK struct {
	ID      int64
	Epoch   int64
	Members []Member
}

func (*JoinOK) msgType() MsgType { return TJoinOK }
func (m *JoinOK) encode(b []byte) []byte {
	b = binary.AppendVarint(b, m.ID)
	b = binary.AppendVarint(b, m.Epoch)
	return appendMembers(b, m.Members)
}
func (m *JoinOK) decode(d *decoder) {
	m.ID = d.Varint()
	m.Epoch = d.Varint()
	m.Members = decodeMembers(d)
}

// Leave deregisters replica ID from the cluster: its propagation
// cursor stops gating certification-log GC and clients learn the
// departure through the next Members poll.
type Leave struct {
	ID int64
}

func (*Leave) msgType() MsgType         { return TLeave }
func (m *Leave) encode(b []byte) []byte { return binary.AppendVarint(b, m.ID) }
func (m *Leave) decode(d *decoder)      { m.ID = d.Varint() }

// LeaveOK acknowledges Leave.
type LeaveOK struct{}

func (*LeaveOK) msgType() MsgType         { return TLeaveOK }
func (m *LeaveOK) encode(b []byte) []byte { return b }
func (m *LeaveOK) decode(*decoder)        {}

// SnapshotReq asks the primary for a consistent full-state snapshot:
// every table's contents at one applied version. The snapshot streams
// as a sequence of SnapshotOK chunks over ONE connection — the server
// pins the whole snapshot on the first request and each further
// SnapshotReq on the same connection fetches the next chunk until More
// is false. The joiner installs the merged
// chunks, then catches up from Version via FetchSince — the
// state-transfer half of the join protocol.
type SnapshotReq struct{}

func (*SnapshotReq) msgType() MsgType         { return TSnapshotReq }
func (m *SnapshotReq) encode(b []byte) []byte { return b }
func (m *SnapshotReq) decode(*decoder)        {}

// TableSnap is one table's full contents inside a snapshot.
type TableSnap struct {
	Name   string
	Rows   []int64
	Values []string
}

// SnapshotOK carries one chunk of the snapshot: the applied version
// the whole snapshot is consistent at, a run of table contents (a
// large table may span several chunks under the same Name), and
// whether more chunks follow. Writesets certified after Version are
// NOT included; the joiner fetches them with FetchSince(Version).
type SnapshotOK struct {
	Version int64
	More    bool
	Tables  []TableSnap
}

func (*SnapshotOK) msgType() MsgType { return TSnapshotOK }
func (m *SnapshotOK) encode(b []byte) []byte {
	b = binary.AppendVarint(b, m.Version)
	b = codec.AppendBool(b, m.More)
	b = binary.AppendUvarint(b, uint64(len(m.Tables)))
	for _, t := range m.Tables {
		b = codec.AppendString(b, t.Name)
		b = binary.AppendUvarint(b, uint64(len(t.Rows)))
		for i, r := range t.Rows {
			b = binary.AppendVarint(b, r)
			b = codec.AppendString(b, t.Values[i])
		}
	}
	return b
}
func (m *SnapshotOK) decode(d *decoder) {
	m.Version = d.Varint()
	m.More = d.Bool()
	n := d.Count(codec.RowWidth)
	if d.Err() != nil || n == 0 {
		return
	}
	m.Tables = make([]TableSnap, 0, n)
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		var t TableSnap
		t.Name = d.Str()
		t.Rows, t.Values = decodeRows(d)
		m.Tables = append(m.Tables, t)
	}
}

// Members asks the primary for the current membership. Clients poll it
// to resize their connection pools when replicas join or leave; the
// epoch lets them skip unchanged replies cheaply.
type Members struct{}

func (*Members) msgType() MsgType         { return TMembers }
func (m *Members) encode(b []byte) []byte { return b }
func (m *Members) decode(*decoder)        {}

// MembersOK is the current membership and its epoch (bumped on every
// join or leave).
type MembersOK struct {
	Epoch   int64
	Members []Member
}

func (*MembersOK) msgType() MsgType { return TMembersOK }
func (m *MembersOK) encode(b []byte) []byte {
	b = binary.AppendVarint(b, m.Epoch)
	return appendMembers(b, m.Members)
}
func (m *MembersOK) decode(d *decoder) {
	m.Epoch = d.Varint()
	m.Members = decodeMembers(d)
}

// Stats asks a replica for its cumulative serving counters. The
// elastic controller polls these and differences successive samples
// into a live workload profile.
type Stats struct{}

func (*Stats) msgType() MsgType         { return TStats }
func (m *Stats) encode(b []byte) []byte { return b }
func (m *Stats) decode(*decoder)        {}

// StatsOK carries one replica's cumulative counters: per-class commit
// counts and summed client-visible latencies (nanoseconds), abort
// count, the applied version, and the apply stage's cumulative
// throughput counter and current lag (its backlog of versions).
// AppliedTotal is monotone, so pollers difference successive samples
// into applied-versions/sec the same way the elastic profiler
// differences commit counts.
type StatsOK struct {
	ReadCommits   int64
	UpdateCommits int64
	Aborts        int64
	ReadNs        int64
	UpdateNs      int64
	Applied       int64
	ActiveTxns    int64
	AppliedTotal  int64
	ApplyLag      int64
	// StageCounts / StageNs are the commit-path stage breakdown:
	// cumulative observation counts and summed nanoseconds, indexed
	// by pipeline stage order (certify, paxos, journal, fsync, apply,
	// ack — pipeline.Stage* constants). Zero everywhere when tracing
	// is disabled at the replica.
	StageCounts [6]int64
	StageNs     [6]int64
	// Identity and replication-lag block: the answering replica's id,
	// its view of the certifier election epoch and whether it
	// currently leads, and cumulative commit-to-visible
	// replication-lag observations (count, summed nanoseconds, worst
	// single observation).
	ReplicaID int64
	Epoch     int64
	Leading   bool
	LagCount  int64
	LagSumNs  int64
	LagMaxNs  int64
	// ShardID identifies the shard group this replica serves (0 in
	// unsharded deployments).
	ShardID int64
}

func (*StatsOK) msgType() MsgType { return TStatsOK }
func (m *StatsOK) encode(b []byte) []byte {
	b = binary.AppendVarint(b, m.ReadCommits)
	b = binary.AppendVarint(b, m.UpdateCommits)
	b = binary.AppendVarint(b, m.Aborts)
	b = binary.AppendVarint(b, m.ReadNs)
	b = binary.AppendVarint(b, m.UpdateNs)
	b = binary.AppendVarint(b, m.Applied)
	b = binary.AppendVarint(b, m.ActiveTxns)
	b = binary.AppendVarint(b, m.AppliedTotal)
	b = binary.AppendVarint(b, m.ApplyLag)
	for _, c := range m.StageCounts {
		b = binary.AppendVarint(b, c)
	}
	for _, ns := range m.StageNs {
		b = binary.AppendVarint(b, ns)
	}
	b = binary.AppendVarint(b, m.ReplicaID)
	b = binary.AppendVarint(b, m.Epoch)
	b = codec.AppendBool(b, m.Leading)
	b = binary.AppendVarint(b, m.LagCount)
	b = binary.AppendVarint(b, m.LagSumNs)
	b = binary.AppendVarint(b, m.LagMaxNs)
	return binary.AppendVarint(b, m.ShardID)
}
func (m *StatsOK) decode(d *decoder) {
	m.ReadCommits = d.Varint()
	m.UpdateCommits = d.Varint()
	m.Aborts = d.Varint()
	m.ReadNs = d.Varint()
	m.UpdateNs = d.Varint()
	m.Applied = d.Varint()
	m.ActiveTxns = d.Varint()
	m.AppliedTotal = d.Varint()
	m.ApplyLag = d.Varint()
	for i := range m.StageCounts {
		m.StageCounts[i] = d.Varint()
	}
	for i := range m.StageNs {
		m.StageNs[i] = d.Varint()
	}
	m.ReplicaID = d.Varint()
	m.Epoch = d.Varint()
	m.Leading = d.Bool()
	m.LagCount = d.Varint()
	m.LagSumNs = d.Varint()
	m.LagMaxNs = d.Varint()
	m.ShardID = d.Varint()
}

// PaxosPrepare is phase 1a of the replicated certification log,
// addressed to the acceptor embedded in this server: a promise for
// every slot, and the acceptor's votes from slot From on.
type PaxosPrepare struct {
	Round    int64
	Proposer int64
	From     int64
}

func (*PaxosPrepare) msgType() MsgType { return TPaxosPrepare }
func (m *PaxosPrepare) encode(b []byte) []byte {
	b = binary.AppendVarint(b, m.Round)
	b = binary.AppendVarint(b, m.Proposer)
	return binary.AppendVarint(b, m.From)
}
func (m *PaxosPrepare) decode(d *decoder) {
	m.Round = d.Varint()
	m.Proposer = d.Varint()
	m.From = d.Varint()
}

// PaxosVote is one acceptor vote: the slot, the ballot it was cast at
// and the value.
type PaxosVote struct {
	Slot     int64
	Round    int64
	Proposer int64
	Value    string
}

// paxosVoteWidth is the fewest bytes a PaxosVote encodes in: three
// one-byte varints and an empty value's length prefix.
const paxosVoteWidth = 4

// errPageOrder reports a PaxosPrepareOK whose votes do not ascend by
// slot, or that holds votes back without carrying any.
var errPageOrder = errors.New("wire: paxos votes out of slot order")

// PaxosPrepareOK answers PaxosPrepare: the acceptor's promise after
// the call and its votes at slots From on, in ascending slot order.
// More reports votes past the last one, which the acceptor's byte
// budget held back for the next page.
type PaxosPrepareOK struct {
	OK               bool
	PromisedRound    int64
	PromisedProposer int64
	Votes            []PaxosVote
	More             bool
}

func (*PaxosPrepareOK) msgType() MsgType { return TPaxosPrepareOK }
func (m *PaxosPrepareOK) encode(b []byte) []byte {
	b = codec.AppendBool(b, m.OK)
	b = binary.AppendVarint(b, m.PromisedRound)
	b = binary.AppendVarint(b, m.PromisedProposer)
	b = binary.AppendUvarint(b, uint64(len(m.Votes)))
	for _, v := range m.Votes {
		b = binary.AppendVarint(b, v.Slot)
		b = binary.AppendVarint(b, v.Round)
		b = binary.AppendVarint(b, v.Proposer)
		b = codec.AppendString(b, v.Value)
	}
	return codec.AppendBool(b, m.More)
}
func (m *PaxosPrepareOK) decode(d *decoder) {
	m.OK = d.Bool()
	m.PromisedRound = d.Varint()
	m.PromisedProposer = d.Varint()
	n := d.Count(paxosVoteWidth)
	if d.Err() != nil {
		return
	}
	m.Votes = nil
	if n > 0 {
		m.Votes = make([]PaxosVote, n)
	}
	for i := range m.Votes {
		v := &m.Votes[i]
		v.Slot = d.Varint()
		v.Round = d.Varint()
		v.Proposer = d.Varint()
		v.Value = d.Str()
		if i > 0 && v.Slot <= m.Votes[i-1].Slot {
			d.Fail(errPageOrder)
			return
		}
	}
	if m.More = d.Bool(); m.More && n == 0 {
		d.Fail(errPageOrder)
	}
}

// PaxosAccept is phase 2a: vote for value in slot under the ballot.
type PaxosAccept struct {
	Round    int64
	Proposer int64
	Slot     int64
	Value    string
}

func (*PaxosAccept) msgType() MsgType { return TPaxosAccept }
func (m *PaxosAccept) encode(b []byte) []byte {
	b = binary.AppendVarint(b, m.Round)
	b = binary.AppendVarint(b, m.Proposer)
	b = binary.AppendVarint(b, m.Slot)
	return codec.AppendString(b, m.Value)
}
func (m *PaxosAccept) decode(d *decoder) {
	m.Round = d.Varint()
	m.Proposer = d.Varint()
	m.Slot = d.Varint()
	m.Value = d.Str()
}

// PaxosAcceptOK answers PaxosAccept.
type PaxosAcceptOK struct {
	OK               bool
	PromisedRound    int64
	PromisedProposer int64
}

func (*PaxosAcceptOK) msgType() MsgType { return TPaxosAcceptOK }
func (m *PaxosAcceptOK) encode(b []byte) []byte {
	b = codec.AppendBool(b, m.OK)
	b = binary.AppendVarint(b, m.PromisedRound)
	return binary.AppendVarint(b, m.PromisedProposer)
}
func (m *PaxosAcceptOK) decode(d *decoder) {
	m.OK = d.Bool()
	m.PromisedRound = d.Varint()
	m.PromisedProposer = d.Varint()
}

// NotLeader is the structured redirect a node that does not host the
// certifier answers certification requests with: the paxos id of the
// node it believes leads (-1 when it knows none), that leader's epoch
// round, and the leader's address when known ("" otherwise — the
// client falls back to the Members protocol). With no leader named, a
// nonzero Epoch is the round of the leader's term that ended at a
// missed majority, in a proposal that may carry the request; 0 says
// the request was not acted on.
type NotLeader struct {
	Leader int64
	Epoch  int64
	Addr   string
}

func (*NotLeader) msgType() MsgType { return TNotLeader }
func (m *NotLeader) encode(b []byte) []byte {
	b = binary.AppendVarint(b, m.Leader)
	b = binary.AppendVarint(b, m.Epoch)
	return codec.AppendString(b, m.Addr)
}
func (m *NotLeader) decode(d *decoder) {
	m.Leader = d.Varint()
	m.Epoch = d.Varint()
	m.Addr = d.Str()
}

// PrepareTxn runs the first two-phase-commit phase for one fragment
// of cross-shard transaction TxnID at this shard group: certify WS
// against Snapshot and, on a yes vote, journal the fragment in doubt
// and lock its keys until the decision arrives. Coord is the shard
// group id coordinating the transaction — where a recovering
// participant sends ResolveTxn.
type PrepareTxn struct {
	TxnID    codec.TxnID
	Coord    int64
	Snapshot int64
	WS       writeset.Writeset
}

func (*PrepareTxn) msgType() MsgType { return TPrepareTxn }
func (m *PrepareTxn) encode(b []byte) []byte {
	b = codec.AppendTxnID(b, m.TxnID)
	b = binary.AppendVarint(b, m.Coord)
	b = binary.AppendVarint(b, m.Snapshot)
	return codec.AppendWriteset(b, m.WS)
}
func (m *PrepareTxn) decode(d *decoder) {
	m.TxnID = d.TxnID()
	m.Coord = d.Varint()
	m.Snapshot = d.Varint()
	m.WS = d.Writeset()
}

// PrepareTxnOK answers PrepareTxn. Vote=true is the group's binding
// promise to commit the fragment whenever the decision says so;
// Vote=false reports a certification conflict (ConflictWith is the
// committed version responsible, 0 when the blocker is another
// in-doubt transaction).
type PrepareTxnOK struct {
	Vote         bool
	ConflictWith int64
}

func (*PrepareTxnOK) msgType() MsgType { return TPrepareTxnOK }
func (m *PrepareTxnOK) encode(b []byte) []byte {
	b = codec.AppendBool(b, m.Vote)
	return binary.AppendVarint(b, m.ConflictWith)
}
func (m *PrepareTxnOK) decode(d *decoder) {
	m.Vote = d.Bool()
	m.ConflictWith = d.Varint()
}

// DecideTxn delivers the coordinator's decision for a prepared
// transaction to a participant group. Commit routes the
// fragment through the group's ordinary record log; abort releases
// its locks. Retire lists decisions the group retires in the same
// journal write and Paxos value: TxnID itself at a participant and for
// an abort, and the coordinator's earlier decisions, piggybacked.
// A reused struct decodes Retire into its old backing array.
type DecideTxn struct {
	TxnID  codec.TxnID
	Commit bool
	Retire []codec.TxnID
}

func (*DecideTxn) msgType() MsgType { return TDecideTxn }
func (m *DecideTxn) encode(b []byte) []byte {
	b = codec.AppendTxnID(b, m.TxnID)
	b = codec.AppendBool(b, m.Commit)
	return codec.AppendTxnIDs(b, m.Retire)
}
func (m *DecideTxn) decode(d *decoder) {
	m.TxnID = d.TxnID()
	m.Commit = d.Bool()
	m.Retire = d.TxnIDs(m.Retire)
}

// DecideTxnOK acknowledges DecideTxn with the global version the
// fragment committed at (0 for aborts).
type DecideTxnOK struct {
	Version int64
}

func (*DecideTxnOK) msgType() MsgType         { return TDecideTxnOK }
func (m *DecideTxnOK) encode(b []byte) []byte { return binary.AppendVarint(b, m.Version) }
func (m *DecideTxnOK) decode(d *decoder)      { m.Version = d.Varint() }

// ResolveTxn asks the coordinator group for the fate of an in-doubt
// transaction. A coordinator with no durable decision
// answers abort — and records that abort durably first (presumed
// abort), so a late commit can never contradict the answer.
type ResolveTxn struct {
	TxnID codec.TxnID
}

func (*ResolveTxn) msgType() MsgType         { return TResolveTxn }
func (m *ResolveTxn) encode(b []byte) []byte { return codec.AppendTxnID(b, m.TxnID) }
func (m *ResolveTxn) decode(d *decoder)      { m.TxnID = d.TxnID() }

// ResolveTxnOK answers ResolveTxn.
type ResolveTxnOK struct {
	Commit bool
}

func (*ResolveTxnOK) msgType() MsgType         { return TResolveTxnOK }
func (m *ResolveTxnOK) encode(b []byte) []byte { return codec.AppendBool(b, m.Commit) }
func (m *ResolveTxnOK) decode(d *decoder)      { m.Commit = d.Bool() }

// ForgetTxn retires fully acknowledged decisions at a group: every
// participant has applied their outcomes, so the decision records can
// stop occupying the journal and the decisions map. A reused struct
// decodes IDs into its old backing array.
type ForgetTxn struct {
	IDs []codec.TxnID
}

func (*ForgetTxn) msgType() MsgType         { return TForgetTxn }
func (m *ForgetTxn) encode(b []byte) []byte { return codec.AppendTxnIDs(b, m.IDs) }
func (m *ForgetTxn) decode(d *decoder)      { m.IDs = d.TxnIDs(m.IDs) }

// ForgetTxnOK acknowledges ForgetTxn.
type ForgetTxnOK struct{}

func (*ForgetTxnOK) msgType() MsgType         { return TForgetTxnOK }
func (m *ForgetTxnOK) encode(b []byte) []byte { return b }
func (m *ForgetTxnOK) decode(*decoder)        {}
