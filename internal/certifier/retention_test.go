package certifier

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// gcCopyOnPrune is the reference pruning: it rebuilds the retained log
// as a fresh copy on every prune. GC must be observably identical to
// it while trimming in place.
func gcCopyOnPrune(c *Certifier, upTo int64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if upTo <= c.lowWater {
		return 0
	}
	cut := sort.Search(len(c.records), func(i int) bool { return c.records[i].Version > upTo })
	for _, r := range c.records[:cut] {
		for _, e := range r.Writeset.Entries {
			c.index.prune(e.Key, upTo)
		}
	}
	c.records = append(c.records[:0:0], c.records[cut:]...)
	c.lowWater = upTo
	return cut
}

// errText flattens an error for comparison (nil → "").
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestCertifierGCAllocs pins the prune itself to zero allocations: a
// horizon that advances by one version per commit must not copy the
// retained log.
func TestCertifierGCAllocs(t *testing.T) {
	const retained, runs = 256, 100
	c := New()
	for i := int64(1); i <= retained+runs+1; i++ {
		if _, err := c.Certify(c.Version(), ws(i)); err != nil {
			t.Fatal(err)
		}
	}
	h := int64(0)
	allocs := testing.AllocsPerRun(runs, func() {
		h++
		if c.GC(h) != 1 {
			t.Fatalf("GC(%d) did not prune exactly one record", h)
		}
	})
	if allocs != 0 {
		t.Fatalf("GC allocates %.1f times per call with %d retained records, want 0", allocs, c.LogLen())
	}
	if c.LogLen() != retained {
		t.Fatalf("retained %d records, want %d", c.LogLen(), retained)
	}
}

// TestRetentionMatchesCopyOnPrune runs one seeded random interleaving
// of Certify, CertifyBatch, GC, Since and Check against two certifiers
// — one pruning with GC, one with the copy-on-prune reference — and
// requires every observable answer to agree.
func TestRetentionMatchesCopyOnPrune(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			got, want := New(), New()
			randWS := func() []int64 {
				keys := make([]int64, 1+rng.Intn(3))
				for i := range keys {
					keys[i] = int64(rng.Intn(48))
				}
				return keys
			}
			// randSnap stays near the head, sometimes below the horizon.
			randSnap := func() int64 {
				v := want.Version() - int64(rng.Intn(40))
				if v < 0 {
					v = 0
				}
				return v
			}
			for step := 0; step < 20000; step++ {
				switch op := rng.Intn(10); {
				case op < 4:
					snap, keys := randSnap(), randWS()
					g, gerr := got.Certify(snap, ws(keys...))
					w, werr := want.Certify(snap, ws(keys...))
					if g != w || errText(gerr) != errText(werr) {
						t.Fatalf("step %d Certify(%d, %v): got %+v/%v, want %+v/%v", step, snap, keys, g, gerr, w, werr)
					}
				case op < 6:
					reqs := make([]Request, 1+rng.Intn(4))
					for i := range reqs {
						reqs[i] = Request{Snapshot: randSnap(), Writeset: ws(randWS()...)}
					}
					g, gerr := got.CertifyBatch(reqs)
					w, werr := want.CertifyBatch(reqs)
					if errText(gerr) != errText(werr) || len(g) != len(w) {
						t.Fatalf("step %d CertifyBatch: got %v/%v, want %v/%v", step, g, gerr, w, werr)
					}
					for i := range g {
						if g[i].Outcome != w[i].Outcome || errText(g[i].Err) != errText(w[i].Err) {
							t.Fatalf("step %d CertifyBatch[%d]: got %+v, want %+v", step, i, g[i], w[i])
						}
					}
				case op < 8:
					// Mostly small advances (the live horizon's shape),
					// sometimes a stale or a large one.
					upTo := want.LowWater() + int64(rng.Intn(4)) - 1
					if rng.Intn(8) == 0 {
						upTo = want.Version() - int64(rng.Intn(8))
					}
					upTo = min(upTo, want.Version()) // callers prune applied versions only
					if g, w := got.GC(upTo), gcCopyOnPrune(want, upTo); g != w {
						t.Fatalf("step %d GC(%d) pruned %d, want %d", step, upTo, g, w)
					}
				case op < 9:
					v := want.LowWater() + int64(rng.Intn(int(want.Version()-want.LowWater())+2))
					if g, w := got.Since(v), want.Since(v); !reflect.DeepEqual(g, w) {
						t.Fatalf("step %d Since(%d): got %d records, want %d", step, v, len(g), len(w))
					}
				default:
					snap, keys := randSnap(), randWS()
					gc, gw := got.Check(snap, ws(keys...))
					wc, ww := want.Check(snap, ws(keys...))
					if gc != wc || gw != ww {
						t.Fatalf("step %d Check(%d, %v): got %v/%d, want %v/%d", step, snap, keys, gc, gw, wc, ww)
					}
				}
				if got.LogLen() != want.LogLen() || got.LowWater() != want.LowWater() || got.IndexSize() != want.IndexSize() {
					t.Fatalf("step %d: log/lowWater/index %d/%d/%d, want %d/%d/%d", step,
						got.LogLen(), got.LowWater(), got.IndexSize(), want.LogLen(), want.LowWater(), want.IndexSize())
				}
			}
			if !reflect.DeepEqual(got.Since(0), want.Since(0)) {
				t.Fatal("final retained logs differ")
			}
		})
	}
}

// TestRetentionBoundedAfterManyCycles runs 100k certify+GC cycles —
// a steady horizon lag interrupted by stalls that let the log grow and
// then prune most of it at once — and checks after every cycle that
// the backing array stays within 2×len+256 and that every trimmed
// slot was zeroed (so no pruned writeset stays reachable).
func TestRetentionBoundedAfterManyCycles(t *testing.T) {
	const cycles = 100_000
	c := New()
	for i := 1; i <= cycles; i++ {
		if _, err := c.Certify(c.Version(), ws(int64(i%64))); err != nil {
			t.Fatal(err)
		}
		stalled := i%20_000 > 15_000 // a slow peer pins the horizon
		if !stalled {
			before := c.records
			cut := c.GC(c.Version() - 256)
			for j, r := range before[:cut] {
				if !reflect.ValueOf(r).IsZero() {
					t.Fatalf("cycle %d: trimmed slot %d still holds version %d", i, j, r.Version)
				}
			}
		}
		if n, capacity := len(c.records), cap(c.records); capacity > 2*n+256 {
			t.Fatalf("cycle %d: cap %d exceeds 2×len+256 (len %d)", i, capacity, n)
		}
	}
	if c.LogLen() != 256 {
		t.Fatalf("retained %d records, want 256", c.LogLen())
	}
}

// TestSinceSurvivesConcurrentPrunes runs Since, GC and Certify
// concurrently (meant for -race) and checks that records a Since call
// returned never change afterwards, however far later prunes trim the
// log under them.
func TestSinceSurvivesConcurrentPrunes(t *testing.T) {
	c := New()
	const commits = 3000
	type fetched struct {
		recs []Record
		want []int64 // versions, then each record's first row
	}
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		batches []fetched
	)
	done := make(chan struct{})
	wg.Add(1)
	go func() { // certify
		defer wg.Done()
		defer close(done)
		for i := 0; i < commits; i++ {
			if _, err := c.Certify(c.Version(), ws(int64(i))); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // prune close behind the head
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			c.GC(c.Version() - 4)
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() { // fetch from wherever the horizon is
			defer wg.Done()
			// Fetch before checking done, so a reader scheduled only after
			// the last commit still fetches once.
			for {
				recs := c.Since(c.LowWater())
				f := fetched{recs: recs}
				for _, rec := range recs {
					f.want = append(f.want, rec.Version, rec.Writeset.Entries[0].Key.Row)
				}
				mu.Lock()
				batches = append(batches, f)
				mu.Unlock()
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	wg.Wait()
	if len(batches) == 0 {
		t.Fatal("no Since call returned")
	}
	for _, f := range batches {
		for i, rec := range f.recs {
			if rec.Version != f.want[2*i] || rec.Writeset.Entries[0].Key.Row != f.want[2*i+1] {
				t.Fatalf("a returned record changed after later prunes: version %d row %d, was %d row %d",
					rec.Version, rec.Writeset.Entries[0].Key.Row, f.want[2*i], f.want[2*i+1])
			}
		}
	}
}
