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

// Writeset captures an update transaction's effects: one entry per
// modified row. A writeset is immutable once constructed.
type Writeset struct {
	Entries []Entry
}

// New wraps entries as a writeset. The caller must not mutate entries
// afterwards.
func New(entries []Entry) Writeset { return Writeset{Entries: entries} }

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
// the rows it owns).
func Rows(table string, rows []int64, values []string) Writeset {
	entries := make([]Entry, len(rows))
	for i, row := range rows {
		entries[i] = Entry{Key: Key{Table: table, Row: row}, Value: values[i]}
	}
	return New(entries)
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
// Transactions write a handful of rows, so a nested scan beats
// building a set; the commit path never calls it (the certifier's
// inverted index finds conflicts).
func (ws Writeset) Conflicts(other Writeset) bool {
	for _, a := range ws.Entries {
		for _, b := range other.Entries {
			if a.Key == b.Key {
				return true
			}
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
