package certifier

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/writeset"
)

// TestStressCertifyCheckGC drives concurrent Certify, Check, Since
// and GC traffic against the indexed certifier. Run under -race it
// validates the new index's synchronization; the invariant checks
// validate that pruning never loses conflict history that a live
// snapshot could still need.
func TestStressCertifyCheckGC(t *testing.T) {
	c := New()
	const (
		writers   = 8
		checkers  = 4
		perWorker = 400
		keySpace  = 64
	)
	var writerWg, bgWg sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < writers; w++ {
		w := w
		writerWg.Add(1)
		go func() {
			defer writerWg.Done()
			for i := 0; i < perWorker; i++ {
				key := int64((w + i*writers) % keySpace)
				for {
					snap := c.Version()
					out, err := c.Certify(snap, ws(key))
					if err != nil {
						// The GC goroutine may have advanced the horizon
						// past our stale snapshot; retry with a fresh one.
						continue
					}
					if out.Committed {
						break
					}
					if out.ConflictWith <= snap {
						t.Errorf("abort blamed version %d <= snapshot %d", out.ConflictWith, snap)
						return
					}
				}
			}
		}()
	}
	for r := 0; r < checkers; r++ {
		r := r
		bgWg.Add(1)
		go func() {
			defer bgWg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				snap := c.Version()
				conflict, with := c.Check(snap, ws(int64((r+i)%keySpace)))
				if conflict && with <= snap {
					t.Errorf("Check blamed version %d <= snapshot %d", with, snap)
					return
				}
				if recs := c.Since(snap); len(recs) > 0 && recs[0].Version <= snap {
					t.Errorf("Since(%d) returned version %d", snap, recs[0].Version)
					return
				}
			}
		}()
	}
	bgWg.Add(1)
	go func() {
		defer bgWg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if v := c.Version() - 32; v > 0 {
				c.GC(v)
			}
		}
	}()

	writerWg.Wait()
	close(stop)
	bgWg.Wait()

	if got := c.Version(); got != writers*perWorker {
		t.Fatalf("versions not dense under stress: %d != %d", got, writers*perWorker)
	}
	commits, _ := c.Stats()
	if commits != writers*perWorker {
		t.Fatalf("commit count %d != %d", commits, writers*perWorker)
	}
	if c.IndexSize() > keySpace {
		t.Fatalf("index grew past the key space: %d > %d", c.IndexSize(), keySpace)
	}
}

// TestStressBatcher runs the group-commit front end under heavy
// concurrent conflicting load and cross-checks totals.
func TestStressBatcher(t *testing.T) {
	c := New()
	b := NewBatcher(c, 16)
	const workers = 12
	const perWorker = 200
	var wg sync.WaitGroup
	var commits, aborts atomic.Int64
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				key := int64((w*perWorker + i) % 32)
				out, err := b.Certify(c.Version(), ws(key))
				if err != nil {
					t.Error(err)
					return
				}
				if out.Committed {
					commits.Add(1)
				} else {
					aborts.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	gotCommits, gotAborts := c.Stats()
	if gotCommits != commits.Load() || gotAborts != aborts.Load() {
		t.Fatalf("certifier stats %d/%d, clients observed %d/%d",
			gotCommits, gotAborts, commits.Load(), aborts.Load())
	}
	if c.Version() != commits.Load() {
		t.Fatalf("version %d != commits %d", c.Version(), commits.Load())
	}
}

// TestBatcherOutcomesMatchReplay runs concurrent Batcher.Certify
// callers on overlapping rows (meant for -race) and replays the
// committed log in version order. Every commit's record must carry its
// own caller's writeset and overlap nothing committed between the
// caller's snapshot and its version; every abort must name a commit
// newer than its snapshot that wrote one of its rows. A result handed
// to the wrong caller through a recycled parked request fails one of
// these.
func TestBatcherOutcomesMatchReplay(t *testing.T) {
	c := New()
	b := NewBatcher(c, 8)
	const workers, perWorker, rows = 8, 300, 24
	type call struct {
		snapshot int64
		ws       writeset.Writeset
		out      Outcome
	}
	calls := make([][]call, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := range perWorker {
				snap := max(c.Version()-int64(rng.Intn(3)), 0)
				tag := fmt.Sprintf("%d/%d", w, i)
				r1 := int64(rng.Intn(rows))
				r2 := (r1 + 1 + int64(rng.Intn(rows-1))) % rows
				ws := writeset.New([]writeset.Entry{
					{Key: writeset.Key{Table: "t", Row: r1}, Value: tag},
					{Key: writeset.Key{Table: "t", Row: r2}, Value: tag},
				})
				out, err := b.Certify(snap, ws)
				if err != nil {
					t.Error(err)
					return
				}
				calls[w] = append(calls[w], call{snap, ws, out})
			}
		}()
	}
	wg.Wait()
	log := make(map[int64]writeset.Writeset)
	for _, rec := range c.Since(0) {
		log[rec.Version] = rec.Writeset
	}
	commits := 0
	for _, cs := range calls {
		for _, cl := range cs {
			tag := cl.ws.Entries[0].Value
			if !cl.out.Committed {
				if w := cl.out.ConflictWith; w <= cl.snapshot || !log[w].Conflicts(cl.ws) {
					t.Fatalf("%s (snapshot %d) aborted on version %d, which does not conflict with it", tag, cl.snapshot, w)
				}
				continue
			}
			commits++
			if rec, ok := log[cl.out.Version]; !ok || rec.Entries[0].Value != tag {
				t.Fatalf("%s was told it committed at version %d, whose record is %v", tag, cl.out.Version, rec)
			}
			for v := cl.snapshot + 1; v < cl.out.Version; v++ {
				if log[v].Conflicts(cl.ws) {
					t.Fatalf("%s committed at %d over version %d, which wrote its rows after its snapshot %d", tag, cl.out.Version, v, cl.snapshot)
				}
			}
		}
	}
	if commits != len(log) {
		t.Fatalf("%d callers were told they committed, the log holds %d records", commits, len(log))
	}
}
