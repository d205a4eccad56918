package server

import (
	"runtime"
	"strconv"
	"sync"
	"testing"

	"repro/internal/wire"
)

// TestLongPollRepliesStayPerConnection has the certifier host serve two
// peers' long polls on separate connections while a third connection
// commits (meant for -race). Each connection's FetchSince reply is its
// own reused struct: every reply must hold exactly the records after
// its own cursor, and must stay so while the other connection's next
// fetch refills its reply.
func TestLongPollRepliesStayPerConnection(t *testing.T) {
	const commits = 300
	// A GC lag past the run keeps every record fetchable however far a
	// poller falls behind.
	s, err := New(Options{Design: "mm", Listen: "127.0.0.1:0", Replicas: 1, GCLag: 2 * commits})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	dispatch := func(st *connState, req wire.Message) wire.Message {
		reply := s.dispatch(st, req)
		if e, isErr := reply.(*wire.Err); isErr {
			t.Errorf("%T: %s", req, e.Msg)
			return nil
		}
		return reply
	}
	writer := &connState{peer: -1}
	dispatch(writer, &wire.CreateTable{Name: "item"}) // version 1
	// Version v >= 2 writes row v-2 with value "v".
	last := int64(commits + 1)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range commits {
			dispatch(writer, &wire.Begin{})
			dispatch(writer, &wire.Write{Table: "item", Row: int64(i), Value: strconv.Itoa(i + 2)})
			if dispatch(writer, &wire.Commit{}) == nil {
				return
			}
		}
	}()
	for p := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := &connState{peer: int64(-10 - p)}
			for cursor := int64(1); cursor < last; {
				reply, ok := dispatch(st, &wire.FetchSince{Version: cursor, WaitMillis: 20}).(*wire.Records)
				if !ok {
					t.Errorf("peer %d: FetchSince did not return Records", p)
					return
				}
				check := func(when string) bool {
					for i, r := range reply.Recs {
						if r.Version != cursor+int64(i)+1 || r.WS.Entries[0].Value != strconv.FormatInt(r.Version, 10) {
							t.Errorf("peer %d, fetch after %d, %s: record %d is version %d with %q",
								p, cursor, when, i, r.Version, r.WS.Entries[0].Value)
							return false
						}
					}
					return true
				}
				if !check("as returned") {
					return
				}
				runtime.Gosched() // let the other peer refill its reply
				if !check("after the other peer's fetch") {
					return
				}
				// The peers advance differently, so their cursors and
				// replies differ: one re-fetches its last record.
				if n := int64(len(reply.Recs)); n > 0 {
					cursor += n - int64(p)*min(n-1, 1)
				}
			}
		}()
	}
	wg.Wait()
}
