package pipeline_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/certifier"
	"repro/internal/repl/pipeline"
	"repro/internal/sidb"
	"repro/internal/stats"
	"repro/internal/wal"
	"repro/internal/writeset"
)

// genRecords certifies a deterministic stream of writesets and returns
// the certified records plus the certifier that produced them. Row
// keys are Zipf-distributed over keyspace rows across tables tables:
// theta near 1 makes writesets collide constantly (high conflict),
// theta 0 with a large keyspace makes them mostly disjoint.
func genRecords(t testing.TB, count, wsLen, keyspace, tables int, theta float64, seed uint64) ([]certifier.Record, *certifier.Certifier) {
	t.Helper()
	cert := certifier.New()
	rng := stats.NewRand(seed)
	zipf := stats.NewZipf(keyspace, theta)
	var recs []certifier.Record
	for len(recs) < count {
		entries := make([]writeset.Entry, 0, wsLen)
		seen := make(map[writeset.Key]bool, wsLen)
		for len(entries) < wsLen {
			k := writeset.Key{
				Table: fmt.Sprintf("t%d", rng.Intn(tables)),
				Row:   int64(zipf.Sample(rng)),
			}
			if seen[k] {
				continue
			}
			seen[k] = true
			entries = append(entries, writeset.Entry{Key: k, Value: fmt.Sprintf("v%d-%d", len(recs), len(entries))})
		}
		// Certify at the latest version so nothing aborts: the conflict
		// structure we want lives in the apply stage, not the certifier.
		out, err := cert.Certify(cert.Version(), writeset.New(entries))
		if err != nil || !out.Committed {
			t.Fatalf("certify: %+v %v", out, err)
		}
		recs = append(recs, certifier.Record{Version: out.Version, Writeset: writeset.New(entries)})
	}
	return recs, cert
}

// applyAll drains recs into a fresh database through an applier, in
// chunks (so batches have interesting sizes), and returns the database.
func applyAll(t testing.TB, recs []certifier.Record, chunk int) *sidb.DB {
	t.Helper()
	db := sidb.New()
	ap := pipeline.NewApplier(db)
	for i := 0; i < len(recs); i += chunk {
		end := i + chunk
		if end > len(recs) {
			end = len(recs)
		}
		if n := ap.Apply(recs[i:end]); n != end-i {
			t.Fatalf("applied %d of %d", n, end-i)
		}
	}
	return db
}

func dumpAll(t testing.TB, db *sidb.DB) map[string]map[int64]string {
	t.Helper()
	out := make(map[string]map[int64]string)
	for _, name := range db.Tables() {
		rows, err := db.Dump(name)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = rows
	}
	return out
}

// TestParallelApplyConcurrentIngest hammers one applier from many
// goroutines handing it overlapping slices of the same record stream —
// the puller-vs-Sync-handler race the pipeline serializes. Every
// record must apply exactly once and the result must equal applying
// the stream from one caller.
func TestParallelApplyConcurrentIngest(t *testing.T) {
	recs, _ := genRecords(t, 400, 4, 128, 2, 0.8, 7)
	serialDB := applyAll(t, recs, len(recs))

	db := sidb.New()
	ap := pipeline.NewApplier(db)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each goroutine re-submits the whole stream in ragged
			// chunks; duplicates and already-applied prefixes must be
			// skipped, gaps must truncate.
			chunk := 13 + 7*g
			for i := 0; i < len(recs); i += chunk {
				end := i + chunk
				if end > len(recs) {
					end = len(recs)
				}
				ap.Apply(recs[i:end])
			}
		}(g)
	}
	wg.Wait()
	// One final pass closes any gap-truncated tail.
	ap.Apply(recs)

	if got, want := ap.Applied(), int64(len(recs)); got != want {
		t.Fatalf("applied cursor %d, want %d", got, want)
	}
	if total := ap.Stats().Total; total != int64(len(recs)) {
		t.Fatalf("total applied %d, want %d (records must apply exactly once)", total, len(recs))
	}
	if got, want := dumpAll(t, db), dumpAll(t, serialDB); !reflect.DeepEqual(got, want) {
		t.Fatalf("concurrent ingest diverges from single-caller apply")
	}
}

// TestApplierGapAndDuplicate pins the version-order gate: duplicates
// are skipped, a gap truncates the run, and the skipped suffix applies
// once the hole is filled.
func TestApplierGapAndDuplicate(t *testing.T) {
	recs, _ := genRecords(t, 10, 2, 1<<10, 1, 0, 3)
	db := sidb.New()
	ap := pipeline.NewApplier(db)

	if n := ap.Apply(recs[:4]); n != 4 {
		t.Fatalf("applied %d, want 4", n)
	}
	// Duplicate prefix: nothing happens.
	if n := ap.Apply(recs[:4]); n != 0 {
		t.Fatalf("duplicate apply installed %d records", n)
	}
	// Gap: versions 6.. cannot apply before 5.
	if n := ap.Apply(recs[5:]); n != 0 {
		t.Fatalf("gapped apply installed %d records", n)
	}
	if lag := ap.Stats().Lag; lag != int64(len(recs)-4) {
		t.Fatalf("lag %d, want %d (observed head minus cursor)", lag, len(recs)-4)
	}
	// Mixed batch with duplicates + the missing version: the dense run
	// drains to the end.
	if n := ap.Apply(recs); n != len(recs)-4 {
		t.Fatalf("fill apply installed %d, want %d", n, len(recs)-4)
	}
	if got := ap.Applied(); got != int64(len(recs)) {
		t.Fatalf("cursor %d, want %d", got, len(recs))
	}
}

// TestApplierJournalOrder proves journaling stays version-ordered:
// with a replica's WAL attached as the database's journal, batches
// applied in several runs journal every version once, in strictly
// ascending order, as the same records the certifier produced — and a
// database restored from the log equals the applied one.
func TestApplierJournalOrder(t *testing.T) {
	recs, _ := genRecords(t, 200, 4, 1<<12, 2, 0, 11)
	fs := wal.NewMemFS()
	w, _, err := wal.Open(wal.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	db := sidb.New()
	db.SetJournal(w.AppendRecord)
	ap := pipeline.NewApplier(db)
	for off := 0; off < len(recs); off += 37 {
		// Overlapping batches: re-delivered versions are skipped by the
		// applier and never reach the journal twice.
		ap.Apply(recs[max(off-5, 0):min(off+37, len(recs))])
	}
	if got := ap.Applied(); got != int64(len(recs)) {
		t.Fatalf("applied %d of %d", got, len(recs))
	}
	w.Close()

	fs.PowerCycle(true)
	_, rec, err := wal.Open(wal.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != len(recs) {
		t.Fatalf("journaled %d records, want %d", len(rec.Records), len(recs))
	}
	for i, r := range rec.Records {
		if r.Version != int64(i)+1 || !reflect.DeepEqual(r.Writeset.Entries, recs[i].Writeset.Entries) {
			t.Fatalf("journal record %d is version %d, want %d with the certified writeset", i, r.Version, i+1)
		}
	}
	restored := sidb.New()
	if err := rec.Restore(restored); err != nil {
		t.Fatal(err)
	}
	for _, table := range db.Tables() {
		want, _ := db.Dump(table)
		got, err := restored.Dump(table)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("table %s restored as %d rows (%v), applied %d", table, len(got), err, len(want))
		}
	}
}

// BenchmarkApplyRecords measures apply throughput (records/sec via
// b.N) on low- and high-conflict mixes. The CI smoke step runs it with
// -benchtime=1x; end-to-end apply numbers come from the bench/ harness
// (bench/README.md, bench/CALIBRATION.md).
func BenchmarkApplyRecords(b *testing.B) {
	const batch = 256
	for _, mix := range []struct {
		name     string
		keyspace int
		theta    float64
	}{
		{"low-conflict", 1 << 16, 0},
		{"high-conflict", 64, 0.95},
	} {
		recs, _ := genRecords(b, 4096, 8, mix.keyspace, 3, mix.theta, 1)
		b.Run(mix.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ap := pipeline.NewApplier(sidb.New())
				b.StartTimer()
				for off := 0; off < len(recs); off += batch {
					ap.Apply(recs[off:min(off+batch, len(recs))])
				}
			}
			b.ReportMetric(float64(len(recs))*float64(b.N)/b.Elapsed().Seconds(), "records/s")
		})
	}
}
