// Package events is the cluster event journal: a bounded, race-safe
// ring of typed, timestamped events every node keeps about the things
// operators ask about after an incident — who led when, who joined or
// was evicted, when the WAL compacted, where the fsync stalls were,
// what the autoscaler decided and why, which transactions ran slow.
//
// The journal is deliberately tiny: fixed capacity, overwrite-oldest,
// one mutex. Every emit can also be mirrored into a metrics counter
// through the observer hook, so dashboards see event rates while the
// journal itself serves the last-N detail (JSON over /debug/events).
// Journals from different nodes merge by timestamp into one cluster
// timeline.
package events

import (
	"sort"
	"sync"
	"time"
)

// Type classifies an event. The set is append-only: dashboards and the
// per-type counters key on these strings.
type Type string

const (
	// LeaderElected: this node won a certifier election.
	LeaderElected Type = "leader_elected"
	// LeaderLost: this node stepped down (its term ended: a higher epoch
	// deposed it, or a proposal missed its majority).
	LeaderLost Type = "leader_lost"
	// MemberJoined: the primary admitted a new replica.
	MemberJoined Type = "member_joined"
	// MemberLeft: a replica deregistered gracefully.
	MemberLeft Type = "member_left"
	// MemberEvicted: the primary evicted a silent member as stale.
	MemberEvicted Type = "member_evicted"
	// WALCompacted: the write-ahead log was rewritten around a snapshot.
	WALCompacted Type = "wal_compacted"
	// FsyncStall: one group-commit fsync wait crossed the slow threshold.
	FsyncStall Type = "fsync_stall"
	// ScaleDecision: the elastic controller moved (or tried to move)
	// the replica count; fields carry the MVA inputs behind it.
	ScaleDecision Type = "scale_decision"
	// SlowTxn: a commit-path span crossed the slow-transaction threshold.
	SlowTxn Type = "slow_txn"
)

// Types lists every known event type, in a stable order — the set the
// per-type counters are registered for.
var Types = []Type{
	LeaderElected, LeaderLost,
	MemberJoined, MemberLeft, MemberEvicted,
	WALCompacted, FsyncStall, ScaleDecision, SlowTxn,
}

// Event is one journal entry. Seq orders events emitted by one node
// (wall clocks can tie or step backwards); Node is the emitting
// replica id, which keeps merged timelines attributable.
type Event struct {
	Seq    int64             `json:"seq"`
	Time   time.Time         `json:"time"`
	Type   Type              `json:"type"`
	Node   int               `json:"node"`
	Msg    string            `json:"msg,omitempty"`
	Fields map[string]string `json:"fields,omitempty"`
}

// DefaultCapacity is the journal ring size when none is given.
const DefaultCapacity = 256

// Journal is a bounded ring of events. All methods are safe for
// concurrent use and nil-safe: a nil *Journal drops every emit, so
// callers thread it unconditionally.
type Journal struct {
	node int

	mu   sync.Mutex
	buf  []Event
	next int
	full bool
	seq  int64
	obs  func(Type)
}

// NewJournal creates a journal for one node; capacity <= 0 selects
// DefaultCapacity.
func NewJournal(node, capacity int) *Journal {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Journal{node: node, buf: make([]Event, capacity)}
}

// SetObserver installs the per-emit hook (the metrics-counter mirror).
// Install before traffic; the journal does not synchronize replacement.
// The hook runs outside the journal lock and must not block.
func (j *Journal) SetObserver(fn func(Type)) {
	if j == nil {
		return
	}
	j.obs = fn
}

// Emit appends one event, overwriting the oldest past capacity. The
// fields map is retained — pass a fresh map per call.
func (j *Journal) Emit(typ Type, msg string, fields map[string]string) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.seq++
	j.buf[j.next] = Event{
		Seq:    j.seq,
		Time:   time.Now(),
		Type:   typ,
		Node:   j.node,
		Msg:    msg,
		Fields: fields,
	}
	j.next++
	if j.next == len(j.buf) {
		j.next, j.full = 0, true
	}
	obs := j.obs
	j.mu.Unlock()
	if obs != nil {
		obs(typ)
	}
}

// Len returns the number of retained events.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.full {
		return len(j.buf)
	}
	return j.next
}

// Emitted returns the total number of events emitted since creation
// (including those the ring has since overwritten).
func (j *Journal) Emitted() int64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// Recent returns up to limit retained events, newest first, copied
// out. limit <= 0 returns everything retained.
func (j *Journal) Recent(limit int) []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	n := j.next
	if j.full {
		n = len(j.buf)
	}
	if limit <= 0 || limit > n {
		limit = n
	}
	out := make([]Event, 0, limit)
	for i := 0; i < limit; i++ {
		idx := (j.next - 1 - i + len(j.buf)) % len(j.buf)
		out = append(out, j.buf[idx])
	}
	return out
}

// Merge folds per-node event lists (in any order) into one timeline,
// oldest first, ordered by timestamp with (node, seq) as the
// tiebreaker — the cluster-wide view an operator reads after pulling
// /debug/events from every node. Wall clocks across machines are not
// perfectly synchronized, so near-simultaneous events may interleave
// approximately; within one node the seq order is always preserved
// because times from one clock are monotone enough in practice and seq
// breaks exact ties.
func Merge(lists ...[]Event) []Event {
	var n int
	for _, l := range lists {
		n += len(l)
	}
	out := make([]Event, 0, n)
	for _, l := range lists {
		out = append(out, l...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if !out[i].Time.Equal(out[j].Time) {
			return out[i].Time.Before(out[j].Time)
		}
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}
