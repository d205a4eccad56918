package client

import (
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/certifier"
	"repro/internal/writeset"
)

// TestConcurrentFetchesOwnTheirRecords runs two goroutines fetching
// through one Link (meant for -race). Both check connections out of the
// same pool, whose Records replies are decode targets the connections
// reuse, and each reuses its own scratch slice: every fetch must return
// exactly the records after its own cursor, and the writesets it kept
// must be intact after every later fetch on either goroutine.
func TestConcurrentFetchesOwnTheirRecords(t *testing.T) {
	l := NewLink(fakeServer(t), "mm", -1, time.Second)
	t.Cleanup(l.Close)
	var wg sync.WaitGroup
	for g := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var scratch []certifier.Record
			kept := make(map[int64]writeset.Writeset)
			for i := range 200 {
				from := int64(g*1_000_000 + i*10)
				recs, err := l.FetchSinceInto(scratch[:0], from, 0)
				if err != nil {
					t.Error(err)
					return
				}
				if len(recs) != 2 {
					t.Errorf("fetch from %d returned %d records, want 2", from, len(recs))
					return
				}
				for j, r := range recs {
					if want := from + int64(j) + 1; r.Version != want || r.Writeset.Entries[0].Value != strconv.FormatInt(want, 10) {
						t.Errorf("fetch from %d: record %d is version %d with %q, want version %d", from, j, r.Version, r.Writeset.Entries[0].Value, want)
						return
					}
					kept[r.Version] = r.Writeset
				}
				clear(recs)
				scratch = recs[:0]
			}
			for v, ws := range kept {
				if got := ws.Entries[0].Value; got != strconv.FormatInt(v, 10) {
					t.Errorf("writeset of version %d changed to %q after later fetches", v, got)
					return
				}
			}
		}()
	}
	wg.Wait()
}
