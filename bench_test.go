// Benchmark harness: one benchmark per table and figure of the
// paper's evaluation (regenerating the artifact end to end), the
// ablation studies from DESIGN.md, and micro-benchmarks for the hot
// paths (MVA solving, prediction, certification, storage commits,
// cluster simulation).
//
// Regenerate everything with:
//
//	go test -bench=. -benchmem
//
// Per-experiment output is written by replicadb experiments; the benchmarks
// here time the same drivers on reduced sweeps so `go test -bench`
// terminates in minutes, not hours.
package repro

import (
	"io"
	"math/rand/v2"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"

	"repro/internal/certifier"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mva"
	"repro/internal/repl"
	"repro/internal/sidb"
	"repro/internal/wal"
	"repro/internal/workload"
	"repro/internal/writeset"
)

// benchOpts returns reduced-size experiment options; the seed varies
// per iteration so the figure-pair cache cannot short-circuit repeat
// runs.
func benchOpts(i int) experiments.Options {
	return experiments.Options{
		Replicas: []int{1, 4, 16},
		Seed:     uint64(9000 + i),
		Warmup:   10,
		Measure:  40,
	}
}

// benchExperiment times one full experiment driver.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	for i := 0; i < b.N; i++ {
		r, err := e.Run(benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
		if err := r.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// Tables.

func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }
func BenchmarkTable4(b *testing.B) { benchExperiment(b, "table4") }
func BenchmarkTable5(b *testing.B) { benchExperiment(b, "table5") }

// Figures 6-13: measured-vs-predicted scalability sweeps.

func BenchmarkFigure6(b *testing.B)  { benchExperiment(b, "fig6") }
func BenchmarkFigure7(b *testing.B)  { benchExperiment(b, "fig7") }
func BenchmarkFigure8(b *testing.B)  { benchExperiment(b, "fig8") }
func BenchmarkFigure9(b *testing.B)  { benchExperiment(b, "fig9") }
func BenchmarkFigure10(b *testing.B) { benchExperiment(b, "fig10") }
func BenchmarkFigure11(b *testing.B) { benchExperiment(b, "fig11") }
func BenchmarkFigure12(b *testing.B) { benchExperiment(b, "fig12") }
func BenchmarkFigure13(b *testing.B) { benchExperiment(b, "fig13") }

// Figure 14 and the certifier analysis (§6.3).

func BenchmarkFigure14(b *testing.B) {
	e, _ := experiments.ByID("fig14")
	for i := 0; i < b.N; i++ {
		opts := benchOpts(i)
		opts.Measure = 120 // abort statistics need a longer window
		r, err := e.Run(opts)
		if err != nil {
			b.Fatal(err)
		}
		if err := r.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCertifierAnalysis(b *testing.B) { benchExperiment(b, "certifier") }

// Ablations (DESIGN.md §6).

func BenchmarkAblationMVASolver(b *testing.B) { benchExperiment(b, "ablation-mva") }

func BenchmarkAblationConflictWindow(b *testing.B) {
	e, _ := experiments.ByID("ablation-cw")
	for i := 0; i < b.N; i++ {
		opts := benchOpts(i)
		opts.Measure = 120
		if _, err := e.Run(opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationWritesetCost(b *testing.B) { benchExperiment(b, "ablation-ws") }

func BenchmarkAblationDiscipline(b *testing.B) { benchExperiment(b, "ablation-discipline") }

// BenchmarkAblationCertifierCenter compares modeling the certifier as
// a delay center (the paper's choice, justified in §6.3.2) against a
// queueing center: the queueing variant folds the certifier service
// into the replica demand, overstating contention for update-heavy
// mixes.
func BenchmarkAblationCertifierCenter(b *testing.B) {
	m := workload.TPCWOrdering()
	delay := core.NewParams(m)
	queueing := delay
	// Fold the certifier service into the per-update CPU demand (a
	// queueing-center approximation) and remove the delay center.
	queueing.CertDelay = 0
	queueing.Mix.WC[workload.CPU] += core.DefaultCertDelay
	var sink float64
	for i := 0; i < b.N; i++ {
		a := core.PredictMM(delay, 16)
		c := core.PredictMM(queueing, 16)
		sink += a.Throughput - c.Throughput
	}
	if sink == 0 && b.N > 0 {
		b.Log("delay-center and queueing-center models coincided (unexpected)")
	}
}

// Micro-benchmarks.

func BenchmarkMVAExactSolve(b *testing.B) {
	centers := []mva.Center{{Kind: mva.Queueing}, {Kind: mva.Queueing}}
	d := []float64{0.040, 0.015}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mva.Solve(centers, d, 1.0, 640)
	}
}

func BenchmarkMVASchweitzerSolve(b *testing.B) {
	centers := []mva.Center{{Kind: mva.Queueing}, {Kind: mva.Queueing}}
	d := []float64{0.040, 0.015}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mva.SolveSchweitzer(centers, d, 1.0, 640, 0)
	}
}

func BenchmarkMVATwoClassSolve(b *testing.B) {
	centers := []mva.Center{{Kind: mva.Queueing}, {Kind: mva.Queueing}}
	demands := [2][]float64{{0.040, 0.015}, {0.012, 0.006}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mva.SolveTwoClass(centers, demands, [2]float64{1, 1}, [2]int{200, 100})
	}
}

func BenchmarkPredictMM16(b *testing.B) {
	p := core.NewParams(workload.TPCWShopping())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		core.PredictMM(p, 16)
	}
}

func BenchmarkPredictSM16(b *testing.B) {
	p := core.NewParams(workload.TPCWOrdering())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		core.PredictSM(p, 16)
	}
}

func BenchmarkCertify(b *testing.B) {
	c := certifier.New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ws := writeset.Writeset{Entries: []writeset.Entry{
			{Key: writeset.Key{Table: "t", Row: int64(i)}, Value: "v"},
		}}
		if _, err := c.Certify(c.Version(), ws); err != nil {
			b.Fatal(err)
		}
		if i%1024 == 1023 {
			c.GC(c.Version() - 64)
		}
	}
}

// BenchmarkCertifyLongLog certifies update transactions whose snapshot
// predates a long retained log (10k records, as after a slow replica
// holds back GC). The indexed certifier must keep the per-request cost
// independent of the retained-log length.
func BenchmarkCertifyLongLog(b *testing.B) {
	c := certifier.New()
	for i := int64(0); i < 10000; i++ {
		w := writeset.Writeset{Entries: []writeset.Entry{
			{Key: writeset.Key{Table: "hist", Row: i}, Value: "v"},
		}}
		if _, err := c.Certify(c.Version(), w); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := writeset.Writeset{Entries: []writeset.Entry{
			{Key: writeset.Key{Table: "live", Row: int64(i)}, Value: "v"},
		}}
		if _, err := c.Certify(0, w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCertifyLoad certifies a 65536-row table, cut into load
// records by repl.Chunks as the loader cuts it, into a fresh certifier:
// the certifier's share of loading a catalog table, where every chunk
// is a commit whose rows enter the conflict index. It reports the time
// per row and, from one extra load, the live heap the index holds per
// row (the log keeps the caller's writesets, so this is the index's
// own cost).
func BenchmarkCertifyLoad(b *testing.B) {
	ids, values := repl.Rows(1<<16, func(r int64) string { return "item-row-" + strconv.FormatInt(r, 10) })
	var wss []writeset.Writeset
	if err := repl.Chunks(ids, values, func(ids []int64, values []string) error {
		wss = append(wss, writeset.Rows("item", ids, values))
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	load := func() *certifier.Certifier {
		c := certifier.New()
		for _, ws := range wss {
			if out, err := c.Certify(c.Version(), ws); err != nil || !out.Committed {
				b.Fatalf("Certify = %+v, %v", out, err)
			}
		}
		return c
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := load()
	runtime.GC()
	runtime.ReadMemStats(&after)
	if c.IndexSize() != len(ids) {
		b.Fatalf("index holds %d keys, want %d", c.IndexSize(), len(ids))
	}
	heap := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(len(ids))

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		load()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ids)), "ns/row")
	b.ReportMetric(heap, "indexB/row")
	b.ReportMetric(float64(len(wss)), "records")
}

// BenchmarkCertifyReplicatedSequential is the group-commit baseline:
// 64 certification requests, each paying its own Paxos round.
func BenchmarkCertifyReplicatedSequential(b *testing.B) {
	c, _, err := certifier.NewReplicated(3)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 64; j++ {
			w := writeset.Writeset{Entries: []writeset.Entry{
				{Key: writeset.Key{Table: "t", Row: int64(i*64 + j)}, Value: "v"},
			}}
			if _, err := c.Certify(c.Version(), w); err != nil {
				b.Fatal(err)
			}
		}
		if i%16 == 15 {
			c.GC(c.Version() - 64)
		}
	}
}

// BenchmarkCertifyBatch is the same 64-request load as
// BenchmarkCertifyReplicatedSequential, group-committed in one Paxos
// round per batch.
func BenchmarkCertifyBatch(b *testing.B) {
	c, _, err := certifier.NewReplicated(3)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		reqs := make([]certifier.Request, 64)
		for j := range reqs {
			reqs[j] = certifier.Request{
				Snapshot: c.Version(),
				Writeset: writeset.Writeset{Entries: []writeset.Entry{
					{Key: writeset.Key{Table: "t", Row: int64(i*64 + j)}, Value: "v"},
				}},
			}
		}
		results, err := c.CertifyBatch(reqs)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if r.Err != nil || !r.Outcome.Committed {
				b.Fatalf("batch request failed: %+v", r)
			}
		}
		if i%16 == 15 {
			c.GC(c.Version() - 64)
		}
	}
}

// BenchmarkCertifyGroupCommit certifies from parallel callers through
// the group-commit front end, journaled to a WAL on an in-memory file
// system: the certifier host's commit path under -groupcommit. Each
// caller rewrites its own row, so every request commits; allocs/op is
// what one commit costs the heap, the caller's writeset aside.
func BenchmarkCertifyGroupCommit(b *testing.B) {
	w, _, err := wal.Open(wal.Options{FS: wal.NewMemFS()})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	c, err := certifier.Restore(&certifier.Replay{}, 0, w)
	if err != nil {
		b.Fatal(err)
	}
	batcher := certifier.NewBatcher(c, 0)
	var callers atomic.Int64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		ws := writeset.Writeset{Entries: []writeset.Entry{
			{Key: writeset.Key{Table: "t", Row: callers.Add(1)}, Value: "v"},
		}}
		for pb.Next() {
			out, err := batcher.Certify(c.Version(), ws)
			if err != nil || !out.Committed {
				b.Errorf("Certify = %+v, %v", out, err)
				return
			}
			// Prune far behind the head, as the host's peer horizon
			// does: a snapshot below it aborts, and a caller the
			// scheduler parked may hold one thousands of versions old.
			if out.Version%1024 == 0 {
				c.GC(out.Version - 1<<16)
			}
		}
	})
}

// BenchmarkSIDBUpdateTxn runs the update-transaction path of one
// replica's database: Begin, four writes to distinct rows (the paper's
// largest TPC-W and RUBiS update templates), Commit.
func BenchmarkSIDBUpdateTxn(b *testing.B) {
	db := sidb.New()
	if err := db.CreateTable("item"); err != nil {
		b.Fatal(err)
	}
	const rows = 4096
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tx := db.Begin()
		base := int64(i*4) % rows
		for j := int64(0); j < 4; j++ {
			if err := tx.Write("item", base+j, "stock=91"); err != nil {
				b.Fatal(err)
			}
		}
		if _, _, err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSIDBParallelReads drives read-only transactions from all
// procs against one database — the dominant operation of the TPC-W
// browsing mix. Readers share one RWMutex and never block one
// another.
func BenchmarkSIDBParallelReads(b *testing.B) {
	db := sidb.New()
	if err := db.CreateTable("item"); err != nil {
		b.Fatal(err)
	}
	const rows = 65536
	values := make([]string, rows)
	for i := range values {
		values[i] = "value"
	}
	if err := db.ApplyWriteset(writeset.FromRows("item", 0, values), 1); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int64(0)
		for pb.Next() {
			tx := db.Begin()
			if _, ok, err := tx.Read("item", i%rows); err != nil || !ok {
				b.Errorf("read: %v %v", ok, err)
				return
			}
			tx.Abort()
			i += 7919
		}
	})
}

func BenchmarkSIDBUpdateCommit(b *testing.B) {
	db := sidb.New()
	if err := db.CreateTable("item"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tx := db.Begin()
		if err := tx.Write("item", int64(i%4096), "value"); err != nil {
			b.Fatal(err)
		}
		if _, _, err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSIDBLoad installs a 32768-row table, cut into load records
// by repl.Chunks as the loader cuts it, into a fresh database: the
// apply work of loading a catalog table on every replica. Catalog ids
// are dense, so every page of the table fills.
func BenchmarkSIDBLoad(b *testing.B) {
	ids, values := repl.Rows(1<<15, func(r int64) string { return "item-row-" + strconv.FormatInt(r, 10) })
	benchLoad(b, ids, values)
}

// BenchmarkSIDBSparseLoad is BenchmarkSIDBLoad on random int64 ids,
// the worst case for paged rows: each row lands alone on a page.
func BenchmarkSIDBSparseLoad(b *testing.B) {
	ids, values := repl.Rows(1<<15, func(r int64) string { return "item-row-" + strconv.FormatInt(r, 10) })
	rng := rand.New(rand.NewPCG(1, 2))
	for i := range ids {
		ids[i] = int64(rng.Uint64())
	}
	benchLoad(b, ids, values)
}

// benchLoad times loading ids into a fresh database and reports, from
// one extra load, the live heap the loaded table holds per row (the
// values are the caller's strings, so this is the table's own cost).
func benchLoad(b *testing.B, ids []int64, values []string) {
	var wss []writeset.Writeset
	if err := repl.Chunks(ids, values, func(ids []int64, values []string) error {
		wss = append(wss, writeset.Rows("item", ids, values))
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	load := func() *sidb.DB {
		db := sidb.New()
		if n, err := db.ApplyBatch(wss); n != len(wss) || err != nil {
			b.Fatalf("ApplyBatch = %d, %v", n, err)
		}
		return db
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	db := load()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(db)
	heap := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(len(ids))

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		load()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ids)), "ns/row")
	b.ReportMetric(heap, "heapB/row")
	b.ReportMetric(float64(len(wss)), "records")
}

func BenchmarkSIDBRead(b *testing.B) {
	db := sidb.New()
	if err := db.CreateTable("item"); err != nil {
		b.Fatal(err)
	}
	seed := db.Begin()
	for i := int64(0); i < 1024; i++ {
		seed.Write("item", i, "value")
	}
	if _, _, err := seed.Commit(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tx := db.Begin()
		if _, _, err := tx.Read("item", int64(i%1024)); err != nil {
			b.Fatal(err)
		}
		tx.Abort()
	}
}

func BenchmarkClusterSimMM16(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := cluster.Run(cluster.Config{
			Mix:      workload.TPCWShopping(),
			Design:   core.MultiMaster,
			Replicas: 16,
			Seed:     uint64(i + 1),
			Warmup:   5,
			Measure:  20,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProfilePipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Profile(TPCWShopping(), uint64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEndCompare times the full §6 loop for one point:
// predict and measure TPC-W shopping MM at 8 replicas.
func BenchmarkEndToEndCompare(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := Compare(TPCWShopping(), MultiMaster, []int{8}, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if pts[0].ThroughputErr > 0.25 {
			b.Fatalf("prediction error %.0f%%", pts[0].ThroughputErr*100)
		}
	}
}

func BenchmarkAblationPerClass(b *testing.B) {
	e, _ := experiments.ByID("ablation-perclass")
	for i := 0; i < b.N; i++ {
		opts := benchOpts(i)
		opts.Measure = 90
		if _, err := e.Run(opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPredictMMPerClass16(b *testing.B) {
	p := core.NewParams(workload.TPCWShopping())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		core.PredictMMPerClass(p, 16)
	}
}
