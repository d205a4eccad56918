package sm

import (
	"sync"

	"repro/internal/certifier"
	"repro/internal/writeset"
)

// Log is the master's writeset propagation log: committed master
// writesets keyed by their (dense) master commit version, retained
// until every slave has applied them; the single-master server's
// slaves pull from it over FetchSince. It is safe for concurrent use.
type Log struct {
	mu   sync.Mutex
	recs map[int64]writeset.Writeset
}

// NewLog returns an empty propagation log.
func NewLog() *Log {
	return &Log{recs: make(map[int64]writeset.Writeset)}
}

// Append records the writeset committed at version. Appends may race
// (commits publish to the log after releasing the commit mutex), so
// versions can arrive slightly out of order; SinceDense only ever
// hands out the contiguous prefix.
func (l *Log) Append(version int64, ws writeset.Writeset) {
	l.mu.Lock()
	l.recs[version] = ws
	l.mu.Unlock()
}

// SinceDense returns the contiguous run of records with versions
// v+1, v+2, ... that are all present, in ascending order. A version
// still in flight truncates the run — the slave proxy applies
// writesets strictly in commit order.
func (l *Log) SinceDense(v int64) []certifier.Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []certifier.Record
	for {
		v++
		ws, ok := l.recs[v]
		if !ok {
			return out
		}
		out = append(out, certifier.Record{Version: v, Writeset: ws})
	}
}

// GCBelow removes every record with version <= upTo, returning how
// many were dropped.
func (l *Log) GCBelow(upTo int64) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	removed := 0
	for v := range l.recs {
		if v <= upTo {
			delete(l.recs, v)
			removed++
		}
	}
	return removed
}

// Len returns the number of retained records.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.recs)
}
