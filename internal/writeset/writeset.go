// Package writeset defines the writeset abstraction the replicated
// designs exchange: the set of rows an update transaction modified,
// with their after-images (Kemme 2000, §2 of the paper). Writesets are
// used twice: by the certifier to detect system-wide write-write
// conflicts, and by replica proxies to propagate updates.
package writeset

import (
	"fmt"
	"sort"
	"strings"
)

// Key identifies one row: the table name plus the row's primary key.
// Conflict detection is at row granularity, matching the paper.
type Key struct {
	Table string
	Row   int64
}

// String renders "table/row".
func (k Key) String() string { return fmt.Sprintf("%s/%d", k.Table, k.Row) }

// Entry is one modified row with its after-image. Delete marks a row
// removal; Value is ignored for deletes.
type Entry struct {
	Key    Key
	Value  string
	Delete bool
}

// Writeset captures an update transaction's effects.
//
// A writeset is logically immutable once constructed. Writesets built
// through New or Builder.Writeset carry a precomputed key set, which
// makes Conflicts and the certifier's inverted index O(len) without
// rebuilding hash maps per comparison; zero-value construction from an
// Entries literal remains valid and falls back to building the set on
// demand.
type Writeset struct {
	Entries []Entry

	// keys is the cached key set, nil when the writeset was built from
	// a literal. It is never mutated after construction, so copying the
	// struct (and the map pointer with it) is safe.
	keys map[Key]struct{}
}

// New constructs a writeset from entries and precomputes its key set.
// The caller must not mutate entries afterwards.
func New(entries []Entry) Writeset {
	ws := Writeset{Entries: entries}
	if len(entries) > 0 {
		ws.keys = make(map[Key]struct{}, len(entries))
		for _, e := range entries {
			ws.keys[e.Key] = struct{}{}
		}
	}
	return ws
}

// FromRows builds the writeset of a contiguous row load: values[i]
// installed at (table, start+i).
func FromRows(table string, start int64, values []string) Writeset {
	entries := make([]Entry, len(values))
	for i, v := range values {
		entries[i] = Entry{Key: Key{Table: table, Row: start + int64(i)}, Value: v}
	}
	return New(entries)
}

// Rows builds the writeset of one load chunk: values[i] installed at
// (table, rows[i]). A chunk is certified and propagated like any
// commit, so the rows need not be contiguous (a shard group loads only
// the rows it owns). Like a transaction's writeset it carries no key
// set: certification and apply only walk its entries.
func Rows(table string, rows []int64, values []string) Writeset {
	entries := make([]Entry, len(rows))
	for i, row := range rows {
		entries[i] = Entry{Key: Key{Table: table, Row: row}, Value: values[i]}
	}
	return Writeset{Entries: entries}
}

// SchemaRow is the row a CREATE TABLE writeset deletes. No loader or
// workload uses negative rows, so the tombstone it leaves is never
// visible and never conflicts with a real write.
const SchemaRow = -1

// Schema is the writeset of CREATE TABLE name: the deletion of a row
// that never existed. Applying a writeset creates the tables it names
// (sidb.DB.ApplyWriteset), so this one creates the table and nothing
// else — DDL needs no record kind of its own to be certified, journaled,
// propagated and replayed like a commit.
func Schema(name string) Writeset {
	return Writeset{Entries: []Entry{{Key: Key{Table: name, Row: SchemaRow}, Delete: true}}}
}

// keySet returns the cached key set, building one if the writeset was
// constructed from a literal.
func (ws Writeset) keySet() map[Key]struct{} {
	if ws.keys != nil {
		return ws.keys
	}
	set := make(map[Key]struct{}, len(ws.Entries))
	for _, e := range ws.Entries {
		set[e.Key] = struct{}{}
	}
	return set
}

// Contains reports whether the writeset touches key.
func (ws Writeset) Contains(key Key) bool {
	if ws.keys != nil {
		_, ok := ws.keys[key]
		return ok
	}
	for _, e := range ws.Entries {
		if e.Key == key {
			return true
		}
	}
	return false
}

// Empty reports whether the transaction modified nothing (i.e. it is
// effectively read-only and commits without certification).
func (ws Writeset) Empty() bool { return len(ws.Entries) == 0 }

// Len returns the number of modified rows.
func (ws Writeset) Len() int { return len(ws.Entries) }

// Keys returns the modified row keys in deterministic order.
func (ws Writeset) Keys() []Key {
	keys := make([]Key, len(ws.Entries))
	for i, e := range ws.Entries {
		keys[i] = e.Key
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Table != keys[j].Table {
			return keys[i].Table < keys[j].Table
		}
		return keys[i].Row < keys[j].Row
	})
	return keys
}

// Bytes estimates the wire size of the writeset: table names, an
// 8-byte row id and the value payload per entry. The paper reports
// ~275-byte average writesets for TPC-W (§6.1); this estimate feeds
// the network sensitivity analysis.
func (ws Writeset) Bytes() int {
	n := 0
	for _, e := range ws.Entries {
		n += len(e.Key.Table) + 8 + len(e.Value) + 1
	}
	return n
}

// Conflicts reports whether two writesets modify any common row.
func (ws Writeset) Conflicts(other Writeset) bool {
	if len(ws.Entries) == 0 || len(other.Entries) == 0 {
		return false
	}
	// Probe the side that already has a key set with the other side's
	// entries; when both (or neither) have one, probe the larger set
	// with the smaller entry list.
	switch {
	case ws.keys != nil && other.keys == nil:
		return probe(other.Entries, ws.keys)
	case ws.keys == nil && other.keys != nil:
		return probe(ws.Entries, other.keys)
	default:
		small, large := ws, other
		if len(small.Entries) > len(large.Entries) {
			small, large = large, small
		}
		return probe(small.Entries, large.keySet())
	}
}

// probe reports whether any entry's key is in set.
func probe(entries []Entry, set map[Key]struct{}) bool {
	for _, e := range entries {
		if _, ok := set[e.Key]; ok {
			return true
		}
	}
	return false
}

// String renders a compact representation for logs.
func (ws Writeset) String() string {
	if ws.Empty() {
		return "{}"
	}
	parts := make([]string, 0, len(ws.Entries))
	for _, k := range ws.Keys() {
		parts = append(parts, k.String())
	}
	return "{" + strings.Join(parts, " ") + "}"
}

// Builder accumulates entries while a transaction executes, the role
// the prototype's triggers play (§5.1). Later writes to the same key
// overwrite earlier ones, so a writeset holds one entry per row.
type Builder struct {
	order   []Key
	entries map[Key]Entry
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder {
	return &Builder{entries: make(map[Key]Entry)}
}

// Put records a write of value to key.
func (b *Builder) Put(key Key, value string) {
	if _, ok := b.entries[key]; !ok {
		b.order = append(b.order, key)
	}
	b.entries[key] = Entry{Key: key, Value: value}
}

// Delete records a row deletion.
func (b *Builder) Delete(key Key) {
	if _, ok := b.entries[key]; !ok {
		b.order = append(b.order, key)
	}
	b.entries[key] = Entry{Key: key, Delete: true}
}

// Len returns the number of distinct rows recorded.
func (b *Builder) Len() int { return len(b.entries) }

// Writeset returns the accumulated writeset in first-write order, with
// its key set precomputed.
func (b *Builder) Writeset() Writeset {
	entries := make([]Entry, 0, len(b.order))
	for _, k := range b.order {
		entries = append(entries, b.entries[k])
	}
	return New(entries)
}
