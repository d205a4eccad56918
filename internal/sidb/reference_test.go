package sidb

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/stats"
)

// refDB is a lock-free reference model of first-committer-wins SI: a
// last-writer version per row plus a value map per version horizon.
// It decides commit/abort exactly as the specification says the
// engine must, so driving both with the same operation stream checks
// the engine's semantics apart from its locking.
type refDB struct {
	version    int64
	lastWriter map[int64]int64
	values     map[int64][]refVersion
}

type refVersion struct {
	version int64
	value   string
	deleted bool
}

func newRefDB() *refDB {
	return &refDB{lastWriter: make(map[int64]int64), values: make(map[int64][]refVersion)}
}

func (r *refDB) read(row, snapshot int64) (string, bool) {
	chain := r.values[row]
	for i := len(chain) - 1; i >= 0; i-- {
		if chain[i].version <= snapshot {
			if chain[i].deleted {
				return "", false
			}
			return chain[i].value, true
		}
	}
	return "", false
}

// commit applies an update of rows at the given snapshot; it reports
// whether first-committer-wins allows the commit.
func (r *refDB) commit(snapshot int64, writes map[int64]string, deletes map[int64]bool) bool {
	for row := range writes {
		if r.lastWriter[row] > snapshot {
			return false
		}
	}
	for row := range deletes {
		if r.lastWriter[row] > snapshot {
			return false
		}
	}
	r.version++
	for row, val := range writes {
		r.lastWriter[row] = r.version
		r.values[row] = append(r.values[row], refVersion{version: r.version, value: val})
	}
	for row := range deletes {
		r.lastWriter[row] = r.version
		r.values[row] = append(r.values[row], refVersion{version: r.version, deleted: true})
	}
	return true
}

// TestShardedMatchesReference drives an identical randomized
// single-stream workload through the engine and the reference
// model: every commit/abort decision, returned version, and read
// result must match. Long-lived readers stay open across hundreds of
// commits and keep checking their snapshot against the reference, so
// pruning on install is held to what open snapshots can see.
func TestShardedMatchesReference(t *testing.T) {
	db := New()
	if err := db.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	ref := newRefDB()
	rng := stats.NewRand(0xC0FFEE)
	const rows = 128

	// Keep a window of concurrent transactions so snapshots go stale
	// and conflicts actually occur.
	type pending struct {
		tx      *Txn
		refSnap int64
		writes  map[int64]string
		deletes map[int64]bool
	}
	var window []pending

	// Long-lived read-only transactions and the steps they have left.
	type reader struct {
		tx   *Txn
		left int
	}
	var readers []reader

	for step := 0; step < 4000; step++ {
		// Open a transaction and buffer a few writes.
		tx := db.Begin()
		p := pending{
			tx:      tx,
			refSnap: tx.Snapshot(),
			writes:  make(map[int64]string),
			deletes: make(map[int64]bool),
		}
		nWrites := 1 + rng.Intn(3)
		for i := 0; i < nWrites; i++ {
			row := int64(rng.Intn(rows))
			if rng.Intn(8) == 0 {
				if err := tx.Delete("t", row); err != nil {
					t.Fatal(err)
				}
				delete(p.writes, row)
				p.deletes[row] = true
			} else {
				val := fmt.Sprintf("v%d-%d", step, i)
				if err := tx.Write("t", row, val); err != nil {
					t.Fatal(err)
				}
				delete(p.deletes, row)
				p.writes[row] = val
			}
		}
		// Cross-check a read against the reference at the snapshot.
		row := int64(rng.Intn(rows))
		if _, own := p.writes[row]; !own && !p.deletes[row] {
			got, gotOK, err := tx.Read("t", row)
			if err != nil {
				t.Fatal(err)
			}
			want, wantOK := ref.read(row, p.refSnap)
			if got != want || gotOK != wantOK {
				t.Fatalf("step %d: read(%d)@%d = %q/%v, reference %q/%v",
					step, row, p.refSnap, got, gotOK, want, wantOK)
			}
		}
		window = append(window, p)

		// Commit a random transaction from the window once it is full.
		if len(window) >= 4 {
			i := rng.Intn(len(window))
			q := window[i]
			window = append(window[:i], window[i+1:]...)
			_, v, err := q.tx.Commit()
			committed := err == nil
			if err != nil && !errors.Is(err, ErrConflict) {
				t.Fatal(err)
			}
			wantCommit := ref.commit(q.refSnap, q.writes, q.deletes)
			if committed != wantCommit {
				t.Fatalf("step %d: engine committed=%v, reference=%v (snap %d writes %v deletes %v)",
					step, committed, wantCommit, q.refSnap, q.writes, q.deletes)
			}
			if committed && v != ref.version {
				t.Fatalf("step %d: version %d, reference %d", step, v, ref.version)
			}
		}
		if len(readers) < 3 && rng.Intn(64) == 0 {
			readers = append(readers, reader{tx: db.Begin(), left: 50 + rng.Intn(1000)})
		}
		live := readers[:0]
		for _, r := range readers {
			row := int64(rng.Intn(rows))
			got, gotOK, err := r.tx.Read("t", row)
			if err != nil {
				t.Fatal(err)
			}
			want, wantOK := ref.read(row, r.tx.Snapshot())
			if got != want || gotOK != wantOK {
				t.Fatalf("step %d: long reader read(%d)@%d = %q/%v, reference %q/%v",
					step, row, r.tx.Snapshot(), got, gotOK, want, wantOK)
			}
			if r.left--; r.left == 0 {
				r.tx.Abort()
				continue
			}
			live = append(live, r)
		}
		readers = live
	}
	for _, q := range window {
		q.tx.Abort()
	}
	for _, r := range readers {
		r.tx.Abort()
	}

	// Final convergence: latest state must match row for row.
	dump, err := db.Dump("t")
	if err != nil {
		t.Fatal(err)
	}
	for row := int64(0); row < rows; row++ {
		want, wantOK := ref.read(row, ref.version)
		got, gotOK := dump[row], false
		if _, present := dump[row]; present {
			gotOK = true
		}
		if gotOK != wantOK || (wantOK && got != want) {
			t.Fatalf("row %d: engine %q/%v, reference %q/%v", row, got, gotOK, want, wantOK)
		}
	}
}

// TestStressShardedReadersWriters hammers one database with parallel
// read-only transactions, update committers and long-lived readers
// whose snapshots hold back install's pruning. Run under -race it
// exercises every lock edge of the engine; the invariants detect torn
// commits (a snapshot observing half of a transaction's writes) and
// versions pruned from under an open snapshot.
func TestStressShardedReadersWriters(t *testing.T) {
	db := New()
	if err := db.CreateTable("acct"); err != nil {
		t.Fatal(err)
	}
	// Pairs of rows (2i, 2i+1) are always written together with the
	// same value; a reader seeing two different values in one snapshot
	// has observed a torn commit.
	const pairs = 64
	load(t, db, "acct", 2*pairs, "init")

	const writers = 4
	const readers = 8
	const perWriter = 300
	var writerWg, bgWg sync.WaitGroup
	var stop atomic.Bool
	var commits atomic.Int64

	for w := 0; w < writers; w++ {
		w := w
		writerWg.Add(1)
		go func() {
			defer writerWg.Done()
			rng := stats.NewRand(uint64(0xBEEF + w))
			for i := 0; i < perWriter; i++ {
				pair := int64(rng.Intn(pairs))
				val := fmt.Sprintf("w%d-%d", w, i)
				for {
					tx := db.Begin()
					if err := tx.Write("acct", 2*pair, val); err != nil {
						t.Error(err)
						return
					}
					if err := tx.Write("acct", 2*pair+1, val); err != nil {
						t.Error(err)
						return
					}
					_, _, err := tx.Commit()
					if err == nil {
						commits.Add(1)
						break
					}
					if !errors.Is(err, ErrConflict) {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	for r := 0; r < readers; r++ {
		r := r
		bgWg.Add(1)
		go func() {
			defer bgWg.Done()
			rng := stats.NewRand(uint64(0xFEED + r))
			for !stop.Load() {
				tx := db.Begin()
				pair := int64(rng.Intn(pairs))
				a, okA, errA := tx.Read("acct", 2*pair)
				b, okB, errB := tx.Read("acct", 2*pair+1)
				if errA != nil || errB != nil {
					t.Errorf("read errors: %v %v", errA, errB)
					return
				}
				if !okA || !okB || a != b {
					t.Errorf("torn commit observed: pair %d = %q/%q (%v/%v)", pair, a, b, okA, okB)
					return
				}
				tx.Abort()
			}
		}()
	}
	// A long-lived reader takes a whole-table view, then re-reads
	// random pairs of it while the writers commit: every re-read must
	// match.
	bgWg.Add(1)
	go func() {
		defer bgWg.Done()
		rng := stats.NewRand(0xACE)
		for !stop.Load() {
			tx := db.Begin()
			first, err := tx.Scan("acct")
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 200 && !stop.Load(); i++ {
				row := int64(rng.Intn(2 * pairs))
				v, ok, err := tx.Read("acct", row)
				if err != nil || !ok || v != first[row] || v != first[row^1] {
					t.Errorf("long reader @%d: row %d = %q %v %v, first saw %q (pair %q)",
						tx.Snapshot(), row, v, ok, err, first[row], first[row^1])
					return
				}
			}
			tx.Abort()
		}
	}()
	// A competing single-row update stream outside the pair space, so
	// its installs interleave with the pair commits.
	bgWg.Add(1)
	go func() {
		defer bgWg.Done()
		for !stop.Load() {
			tx := db.Begin()
			if err := tx.Write("acct", int64(2*pairs), "side"); err != nil {
				t.Error(err)
				return
			}
			if _, _, err := tx.Commit(); err != nil && !errors.Is(err, ErrConflict) {
				t.Error(err)
				return
			}
		}
	}()

	writerWg.Wait()
	stop.Store(true)
	bgWg.Wait()

	dbCommits, _ := db.Stats()
	if dbCommits < commits.Load() {
		t.Fatalf("db counted %d commits, writers observed %d", dbCommits, commits.Load())
	}
}
