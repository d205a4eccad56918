// Package paxoslog persists a Paxos acceptor's promises and votes
// through the WAL's filesystem seam, so a power-cycled certifier
// replica rejoins the acceptor group without violating a promise it
// already let a proposer act on. The paper replicates the certifier
// with Paxos for fault-tolerance (§5.1); classic Paxos requires each
// acceptor to record its state on stable storage before answering, and
// this package is that stable storage.
//
// Every record is one codec frame (the WAL's framing),
//
//	[u32 length] [u32 CRC32C(payload)] [payload]
//
// whose payload is a kind byte followed by varints; an accept record's
// value is the certifier's log format, the frames the WAL journals for
// the same operation. Replay stops at the first short, oversized or
// CRC-failing frame — the torn tail a crash mid-write leaves behind —
// and Open truncates the file there, so a recovered store is always a
// valid prefix of what was written. Because the in-memory acceptor
// only replies after a persist succeeds, a truncated tail can only
// drop promises and votes the acceptor never answered for.
package paxoslog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"sync"

	"repro/internal/codec"
	"repro/internal/paxos"
	"repro/internal/wal"
)

// Record kinds.
const (
	// kindPromise records a raised promise: {round, proposer}.
	kindPromise byte = 1
	// kindAccept records a vote: {slot, round, proposer, value}. The
	// ballot doubles as a promise (voting at b implies promising b).
	kindAccept byte = 2
)

// FileName is the acceptor store's file inside its FS.
const FileName = "acceptor.log"

// ErrClosed is returned by saves on a closed store.
var ErrClosed = errors.New("paxoslog: closed")

// Store is a durable paxos.Persister over one append-only file. Saves
// return only after the record is written (and, with fsync on, synced)
// so the acceptor's persist-then-reply contract holds.
type Store struct {
	mu    sync.Mutex
	fs    wal.FS
	f     wal.File
	fsync bool
	buf   []byte
	err   error // sticky: a failed save poisons the store
}

// Open replays (or creates) the acceptor store in fsys and returns the
// store plus the restored state: the highest promise seen and the
// latest vote per slot — exactly what paxos.RestoreAcceptor takes.
func Open(fsys wal.FS, fsync bool) (*Store, paxos.Ballot, map[int]paxos.AcceptedSlot, error) {
	data, err := fsys.ReadFile(FileName)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		f, err := fsys.Create(FileName)
		if err != nil {
			return nil, paxos.Ballot{}, nil, fmt.Errorf("paxoslog: create: %w", err)
		}
		if err := fsys.SyncDir(); err != nil {
			f.Close()
			return nil, paxos.Ballot{}, nil, fmt.Errorf("paxoslog: sync dir: %w", err)
		}
		return &Store{fs: fsys, f: f, fsync: fsync}, paxos.Ballot{}, map[int]paxos.AcceptedSlot{}, nil
	case err != nil:
		return nil, paxos.Ballot{}, nil, fmt.Errorf("paxoslog: read: %w", err)
	}

	promised, slots, valid := replay(data)
	// Reopen for append, cutting any torn tail.
	f, err := fsys.OpenAppend(FileName, int64(valid))
	if err != nil {
		return nil, paxos.Ballot{}, nil, fmt.Errorf("paxoslog: open append: %w", err)
	}
	return &Store{fs: fsys, f: f, fsync: fsync}, promised, slots, nil
}

// replay scans frames, returning the restored state and the byte
// offset of the first invalid frame (the truncation point).
func replay(data []byte) (paxos.Ballot, map[int]paxos.AcceptedSlot, int) {
	var promised paxos.Ballot
	slots := make(map[int]paxos.AcceptedSlot)
	off := 0
	for {
		payload, n := codec.NextFrame(data[off:])
		if payload == nil {
			return promised, slots, off
		}
		b, slot, v, ok := decodePayload(payload)
		if !ok {
			return promised, slots, off
		}
		if promised.Less(b) {
			promised = b
		}
		if payload[0] == kindAccept {
			rec, exists := slots[slot]
			if !exists || rec.Ballot.Less(b) {
				slots[slot] = paxos.AcceptedSlot{Ballot: b, Value: v}
			}
		}
		off += n
	}
}

// decodePayload parses one record payload. For promises slot/value are
// zero.
func decodePayload(p []byte) (b paxos.Ballot, slot int, v paxos.Value, ok bool) {
	d := codec.NewDecoder(p[1:])
	switch p[0] {
	case kindPromise:
	case kindAccept:
		slot = int(d.Varint())
	default:
		return b, 0, "", false
	}
	b = paxos.Ballot{Round: int(d.Varint()), Proposer: int(d.Varint())}
	if p[0] == kindAccept {
		v = paxos.Value(d.Raw())
	}
	if d.Err() != nil || d.Len() != 0 {
		return paxos.Ballot{}, 0, "", false
	}
	return b, slot, v, true
}

// SavePromise implements paxos.Persister.
func (s *Store) SavePromise(b paxos.Ballot) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	frame := append(codec.OpenFrame(s.buf[:0]), kindPromise)
	frame = binary.AppendVarint(frame, int64(b.Round))
	frame = binary.AppendVarint(frame, int64(b.Proposer))
	return s.appendLocked(frame)
}

// SaveAccept implements paxos.Persister.
func (s *Store) SaveAccept(slot int, b paxos.Ballot, v paxos.Value) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	frame := append(codec.OpenFrame(s.buf[:0]), kindAccept)
	frame = binary.AppendVarint(frame, int64(slot))
	frame = binary.AppendVarint(frame, int64(b.Round))
	frame = binary.AppendVarint(frame, int64(b.Proposer))
	frame = codec.AppendString(frame, string(v))
	return s.appendLocked(frame)
}

// appendLocked closes and writes one frame, built at the start of
// s.buf's array, syncing when configured. The frame is written in a
// single Write call so a crash tears at most one record, which
// replay's CRC check cuts cleanly.
func (s *Store) appendLocked(frame []byte) error {
	if s.err != nil {
		return s.err
	}
	frame = codec.CloseFrame(frame, 0)
	s.buf = frame // recycle the scratch buffer
	if _, err := s.f.Write(frame); err != nil {
		s.err = fmt.Errorf("paxoslog: write: %w", err)
		return s.err
	}
	if s.fsync {
		if err := s.f.Sync(); err != nil {
			s.err = fmt.Errorf("paxoslog: sync: %w", err)
			return s.err
		}
	}
	return nil
}

// Close closes the store; further saves fail.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err == nil {
		s.err = ErrClosed
	}
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}
