package client

import (
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/certifier"
	"repro/internal/writeset"
)

// TestConcurrentFetchesOwnTheirRecords runs two goroutines fetching
// through one Link (meant for -race). Both check connections out of the
// same pool, whose Records replies, entry arenas and record scratch the
// connections reuse: each fetch's apply must see exactly the records
// after its own cursor, and see them intact for the whole callback
// while the other goroutine fetches on the same pool and while apply
// itself fetches again on the link, which would reuse the outer
// fetch's connection were it back in the pool.
func TestConcurrentFetchesOwnTheirRecords(t *testing.T) {
	l := NewLink(fakeServer(t), "mm", -1, time.Second)
	t.Cleanup(l.Close)
	// check reports whether recs are exactly the two records after from.
	check := func(recs []certifier.Record, from int64, when string) bool {
		if len(recs) != 2 {
			t.Errorf("fetch from %d %s: %d records, want 2", from, when, len(recs))
			return false
		}
		for j, r := range recs {
			want := from + int64(j) + 1
			if r.Version != want || len(r.Writeset.Entries) != 1 || r.Writeset.Entries[0].Value != strconv.FormatInt(want, 10) {
				t.Errorf("fetch from %d %s: record %d is version %d with %v, want version %d", from, when, j, r.Version, r.Writeset.Entries, want)
				return false
			}
		}
		return true
	}
	fetch := func(from int64, apply func([]certifier.Record)) bool {
		if n, err := l.FetchSince(from, 0, apply); err != nil || n != 2 {
			t.Errorf("fetch from %d: %d records, %v", from, n, err)
			return false
		}
		return true
	}
	var wg sync.WaitGroup
	for g := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 200 {
				from := int64(g*1_000_000 + i*10)
				ok := fetch(from, func(recs []certifier.Record) {
					if !check(recs, from, "on entry") {
						return
					}
					inner := from + 500_000
					fetch(inner, func(recs []certifier.Record) { check(recs, inner, "nested") })
					runtime.Gosched() // let the other goroutine fetch
					check(recs, from, "on return")
				})
				if !ok {
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestIdleConnectionPinsNoWriteset: the writeset a certify, check or
// prepare sent is dropped from the connection's request scratch before
// the connection goes back to the pool, whatever the reply, so an idle
// connection pins no values and keeps no alias into a write array its
// owner reuses.
func TestIdleConnectionPinsNoWriteset(t *testing.T) {
	l := NewLink(fakeServer(t), "mm", -1, time.Second)
	t.Cleanup(l.Close)
	ws := writeset.New([]writeset.Entry{{Key: writeset.Key{Table: "item", Row: 1}, Value: "v"}})
	// The fake server refuses all three; each still ends the exchange.
	_, _ = l.CertifyTraced(1, ws, 0)
	_, _ = l.Check(1, ws)
	_, _, _ = l.PrepareTxn(certifier.PreparedTxn{Snapshot: 1, Writeset: ws})
	if len(l.pool.idle) == 0 {
		t.Fatal("no connection went back to the pool")
	}
	for _, c := range l.pool.idle {
		if c.certify.WS.Entries != nil || c.check.WS.Entries != nil || c.prepare.WS.Entries != nil {
			t.Fatalf("idle connection holds writesets: certify %v, check %v, prepare %v",
				c.certify.WS.Entries, c.check.WS.Entries, c.prepare.WS.Entries)
		}
	}
}
