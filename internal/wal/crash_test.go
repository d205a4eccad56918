package wal

// The crash-injection harness: a miniature durable certifier host
// (certifier + WAL journal + snapshot-isolated database journaling
// through the same WAL, as a server's host does) runs a deterministic
// workload while a CrashFS kills the
// "process" at an armed filesystem operation. The harness then
// power-cycles the filesystem — dropping unsynced state (power loss)
// or keeping it (pure process kill) — reopens the WAL, rebuilds the
// node, and asserts the durability contract:
//
//  1. every acknowledged commit is recovered, byte for byte;
//  2. nothing beyond the acknowledged set plus the single in-flight
//     request is recovered (no phantom commits), and under power-loss
//     semantics an unsynced in-flight commit is NOT visible;
//  3. the recovered versions are a dense prefix — no holes a replica
//     could stall on;
//  4. the recovered certifier state equals a reference certifier that
//     processed exactly the recovered prefix and never crashed
//     (records, version, pruning horizon and conflict decisions);
//  5. the recovered database — restored from the log, then caught up
//     from the recovered certifier — is at the certifier's version and
//     row-for-row identical to the reference.
//
// TestCrashSweep arms every operation the workload performs (and, for
// writes, a torn mid-write variant) under both power-cycle models —
// every kill point there is, found by dry run rather than enumeration.
// TestCrashNamedPoints pins the ~dozen semantically interesting points
// (mid-record, post-write-pre-fsync, post-fsync-pre-ack, mid-batch,
// each compaction stage, ...) to explicit assertions, and
// TestCrashDuringRecovery crashes the recovery itself.

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/certifier"
	"repro/internal/codec"
	"repro/internal/repl/pipeline"
	"repro/internal/sidb"
	"repro/internal/writeset"
)

// step is one action of the deterministic workload.
type step struct {
	kind string // "table", "load", "commit", "batch", "conflict", "compact"
	n    int    // batch size (batch), rows (load)
	key  int64  // row written (commit/conflict), first row (load)
}

// crashScript is the workload every crash run executes: schema, two
// load chunks, single commits, a group-commit batch, a compaction, more
// commits and a second batch, with certification aborts sprinkled in.
// Schema and load chunks are certified records like commits. Deterministic
// by construction — no clocks, no randomness.
func crashScript() []step {
	s := []step{
		{kind: "table"},
		{kind: "load", n: 8, key: 0},
		{kind: "load", n: 8, key: 8},
	}
	for i := 0; i < 6; i++ {
		s = append(s, step{kind: "commit", key: int64(i % 5)})
		if i == 2 {
			s = append(s, step{kind: "conflict", key: int64(1)})
		}
	}
	s = append(s, step{kind: "batch", n: 3})
	s = append(s, step{kind: "compact"})
	for i := 6; i < 11; i++ {
		s = append(s, step{kind: "commit", key: int64(i % 7)})
	}
	s = append(s, step{kind: "conflict", key: int64(2)})
	s = append(s, step{kind: "batch", n: 2})
	return s
}

// crashRun is the outcome of one scripted run against a (possibly
// armed) filesystem.
type crashRun struct {
	fs  *MemFS
	cfs *CrashFS

	acked []certifier.Record // Certify/CertifyBatch acknowledged these
	// inflight are writesets submitted in the call the crash landed in:
	// their durability is unknown (the "ack lost in transit" window).
	inflight []writeset.Writeset
	// postCrash are writesets submitted after the crash had already
	// fired; none of them may ever be recovered.
	postCrash []writeset.Writeset
}

// value derives the deterministic row value written by the i-th
// certified attempt.
func value(attempt int) string { return fmt.Sprintf("w%d", attempt) }

// certified returns the writeset a table, load or commit step submits
// for certification (attempt numbers the commits).
func (st step) certified(attempt int) writeset.Writeset {
	switch st.kind {
	case "table":
		return writeset.Schema("t")
	case "load":
		return writeset.FromRows("t", st.key, loadValues(st.n, st.key))
	}
	return writeset.New([]writeset.Entry{{
		Key:   writeset.Key{Table: "t", Row: st.key},
		Value: value(attempt),
	}})
}

// tryApply drains recs through the pipeline applier, tolerating the
// injected crash: after the CrashFS fired, the journal hook reports the
// dead log and the applier's invariant panic is expected — anything
// else is a real bug and re-panics. It returns how many records
// applied.
func tryApply(cfs *CrashFS, ap *pipeline.Applier, recs []certifier.Record) int {
	before := ap.Applied()
	func() {
		defer func() {
			if e := recover(); e != nil && !cfs.Crashed() {
				panic(e)
			}
		}()
		ap.Apply(recs)
	}()
	return int(ap.Applied() - before)
}

// runCrashScript executes the workload with a crash armed at op index
// armAt (-1 = never) and cut torn-write bytes, acked records flowing
// through a pipeline applier one record at a time. The database
// journals through the WAL's apply-path call like a server's host, so
// it finds every version it installs already journaled by the
// certifier and writes nothing.
func runCrashScript(t *testing.T, armAt, cut int) *crashRun {
	t.Helper()
	r := &crashRun{fs: NewMemFS()}
	r.cfs = NewCrashFS(r.fs, armAt, cut)
	w, _, err := Open(Options{FS: r.cfs, Fsync: true})
	if err != nil {
		if armAt >= 0 && errors.Is(err, ErrCrashed) {
			return r // crashed inside Open of a fresh log
		}
		t.Fatalf("open: %v", err)
	}
	cert, err := certifier.Restore(&certifier.Replay{}, 0, w)
	if err != nil {
		t.Fatal(err)
	}
	db := sidb.New()
	db.SetJournal(w.AppendRecord)
	ap := pipeline.NewApplier(db)
	attempt := 0

	submit := func(ws writeset.Writeset) {
		if r.cfs.Crashed() {
			r.postCrash = append(r.postCrash, ws)
		} else {
			r.inflight = append(r.inflight, ws)
		}
	}
	// ack records acknowledged commits and applies them locally in
	// version order.
	ack := func(recs ...certifier.Record) {
		if len(recs) == 0 {
			return // a batch whose requests all aborted
		}
		r.acked = append(r.acked, recs...)
		tryApply(r.cfs, ap, recs)
	}

	for _, st := range crashScript() {
		switch st.kind {
		case "table", "load", "commit":
			if st.kind == "commit" {
				attempt++
			}
			ws := st.certified(attempt)
			submit(ws)
			out, err := cert.Certify(cert.Version(), ws)
			if err == nil && out.Committed {
				r.inflight = r.inflight[:len(r.inflight)-1]
				ack(certifier.Record{Version: out.Version, Writeset: ws})
			}
		case "conflict":
			// A snapshot behind the newest writer of key: certifies to
			// an abort, touching neither the journal nor the log.
			attempt++
			ws := writeset.New([]writeset.Entry{{
				Key:   writeset.Key{Table: "t", Row: st.key},
				Value: value(attempt),
			}})
			out, err := cert.Certify(0, ws)
			if err == nil && out.Committed {
				t.Fatalf("conflict step committed (version %d)", out.Version)
			}
		case "batch":
			reqs := make([]certifier.Request, st.n)
			snap := cert.Version()
			for i := range reqs {
				attempt++
				reqs[i] = certifier.Request{Snapshot: snap, Writeset: writeset.New([]writeset.Entry{{
					Key:   writeset.Key{Table: "t", Row: int64(20 + i)},
					Value: value(attempt),
				}})}
				submit(reqs[i].Writeset)
			}
			results, err := cert.CertifyBatch(reqs)
			if err == nil {
				// The whole batch is durable: everything leaves the
				// in-flight set, commits ack and apply in version order.
				r.inflight = r.inflight[:len(r.inflight)-st.n]
				var committed []certifier.Record
				for i, res := range results {
					if res.Err == nil && res.Outcome.Committed {
						committed = append(committed, certifier.Record{Version: res.Outcome.Version, Writeset: reqs[i].Writeset})
					}
				}
				for _, rec := range committed {
					ack(rec)
				}
			}
		case "compact":
			snap, state, err := consistentDumpForTest(db)
			if err == nil {
				_ = w.Compact(snap, snap, state)
			}
		}
	}
	w.Close()
	return r
}

// loadValues builds the deterministic load values for rows
// [start, start+n).
func loadValues(n int, start int64) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("load-%d", start+int64(i))
	}
	return out
}

// consistentDumpForTest snapshots the database through one read
// transaction (same capture the server engines use).
func consistentDumpForTest(db *sidb.DB) (int64, map[string]map[int64]string, error) {
	tx := db.Begin()
	defer tx.Abort()
	state := make(map[string]map[int64]string)
	for _, name := range db.Tables() {
		rows, err := tx.Scan(name)
		if err != nil {
			return 0, nil, err
		}
		state[name] = rows
	}
	return tx.Snapshot(), state, nil
}

// recoverNode reopens the WAL after a power cycle and rebuilds the
// node: certifier and database from the same records (the database
// from the snapshot plus the records above it), then the database's
// catch-up from the recovered certifier, which must find nothing left.
func recoverNode(t *testing.T, fs *MemFS, keepUnsynced bool) (*Recovered, *certifier.Certifier, *sidb.DB) {
	t.Helper()
	fs.PowerCycle(keepUnsynced)
	w, rec, err := Open(Options{FS: fs, Fsync: true})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	w.Close()
	cert, err := certifier.Restore(&rec.Replay, rec.Base, nil)
	if err != nil {
		t.Fatalf("restore certifier: %v", err)
	}
	db := sidb.New()
	if err := rec.Restore(db); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if got, want := db.Version(), rec.LastVersion(); got != want {
		t.Fatalf("restored database at version %d, log ends at %d", got, want)
	}
	// Catch up like a restarted node: apply every certified record past
	// the recovered version.
	ap := pipeline.NewApplier(db)
	if err := ap.Reset(func(int64) (int64, error) { return rec.LastVersion(), nil }); err != nil {
		t.Fatal(err)
	}
	if pending := cert.Since(rec.LastVersion()); len(pending) != 0 {
		t.Fatalf("certifier holds %d records past the restored database", len(pending))
	}
	return rec, cert, db
}

// referenceNode replays the workload's durable prefix on a never-
// crashed node: the original submission order truncated to the
// recovered commit count, plus the same compaction horizon.
func referenceNode(t *testing.T, upTo int64, base int64) (*certifier.Certifier, *sidb.DB) {
	t.Helper()
	cert := certifier.New()
	db := sidb.New()
	attempt := 0
	commit := func(ws writeset.Writeset, snap int64) {
		if cert.Version() >= upTo {
			return
		}
		out, err := cert.Certify(snap, ws)
		if err != nil {
			t.Fatalf("reference certify: %v", err)
		}
		if out.Committed {
			if err := db.ApplyWriteset(ws, db.Version()+1); err != nil {
				t.Fatalf("reference apply: %v", err)
			}
		}
	}
	for _, st := range crashScript() {
		switch st.kind {
		case "table", "load", "commit":
			if st.kind == "commit" {
				attempt++
			}
			commit(st.certified(attempt), cert.Version())
		case "conflict":
			attempt++
			if cert.Version() >= upTo {
				continue
			}
			out, err := cert.Certify(0, writeset.New([]writeset.Entry{{
				Key:   writeset.Key{Table: "t", Row: st.key},
				Value: value(attempt),
			}}))
			if err != nil || out.Committed {
				t.Fatalf("reference conflict step: %+v, %v", out, err)
			}
		case "batch":
			snap := cert.Version()
			for i := 0; i < st.n; i++ {
				attempt++
				commit(writeset.New([]writeset.Entry{{
					Key:   writeset.Key{Table: "t", Row: int64(20 + i)},
					Value: value(attempt),
				}}), snap)
			}
		}
	}
	if base > 0 {
		cert.GC(base)
	}
	return cert, db
}

// checkInvariants asserts the durability contract for one crash run.
func checkInvariants(t *testing.T, label string, r *crashRun, keepUnsynced bool) {
	t.Helper()
	rec, cert, db := recoverNode(t, r.fs, keepUnsynced)

	// (3) dense prefix above the compaction base.
	for i, c := range rec.Records {
		if want := rec.Base + int64(i) + 1; c.Version != want {
			t.Fatalf("%s: recovered versions have a hole: got %d at position %d (want %d)",
				label, c.Version, i, want)
		}
	}
	last := rec.LastVersion()

	// (1) every acked commit recovered, byte for byte.
	for _, a := range r.acked {
		if a.Version <= rec.Base {
			continue // compacted into the snapshot; its rows are checked below
		}
		i := a.Version - rec.Base - 1
		if i >= int64(len(rec.Records)) {
			t.Fatalf("%s: acked version %d lost (recovered up to %d)", label, a.Version, last)
		}
		got := rec.Records[i]
		if !reflect.DeepEqual(got.Writeset.Entries, a.Writeset.Entries) {
			t.Fatalf("%s: acked version %d corrupted: %+v vs %+v", label, a.Version, got.Writeset, a.Writeset)
		}
	}

	// (2) nothing phantom: recovered = acked + (subset of in-flight).
	maxAcked := ackedMax(r)
	if rec.Base > maxAcked {
		maxAcked = rec.Base
	}
	for _, c := range rec.Records {
		if c.Version <= maxAcked {
			continue
		}
		matched := false
		for _, ws := range r.inflight {
			if reflect.DeepEqual(c.Writeset.Entries, ws.Entries) {
				matched = true
				break
			}
		}
		if !matched {
			t.Fatalf("%s: phantom recovered commit %d: %+v", label, c.Version, c.Writeset)
		}
		if !keepUnsynced {
			// Power loss: an unsynced in-flight record cannot have
			// survived, and a synced one would have been acknowledged
			// (the crash landed before its fsync returned). Either way
			// an unacked commit must not be visible.
			t.Fatalf("%s: unacked commit %d visible after power loss", label, c.Version)
		}
	}
	for _, ws := range r.postCrash {
		for _, c := range rec.Records {
			if reflect.DeepEqual(c.Writeset.Entries, ws.Entries) {
				t.Fatalf("%s: post-crash submission recovered at version %d", label, c.Version)
			}
		}
	}

	// (4) recovered certifier == never-crashed reference over the same
	// prefix: records, version, pruning horizon and decisions.
	refCert, refDB := referenceNode(t, last, rec.Base)
	if got, want := cert.Version(), refCert.Version(); got != want {
		t.Fatalf("%s: recovered version %d, reference %d", label, got, want)
	}
	if got, want := cert.LowWater(), refCert.LowWater(); got != want {
		t.Fatalf("%s: recovered lowWater %d, reference %d", label, got, want)
	}
	gotRecs, wantRecs := cert.Since(rec.Base), refCert.Since(rec.Base)
	if len(gotRecs) != len(wantRecs) {
		t.Fatalf("%s: recovered %d records, reference %d", label, len(gotRecs), len(wantRecs))
	}
	for i := range gotRecs {
		if gotRecs[i].Version != wantRecs[i].Version ||
			!reflect.DeepEqual(gotRecs[i].Writeset.Entries, wantRecs[i].Writeset.Entries) {
			t.Fatalf("%s: record %d diverges from reference: %+v vs %+v",
				label, i, gotRecs[i], wantRecs[i])
		}
	}
	// Identical certification decisions on a probe panel: for every
	// row the workload touches, a stale-snapshot probe must report the
	// same conflict verdict and version on both certifiers.
	for row := int64(0); row < 25; row++ {
		probe := writeset.New([]writeset.Entry{{Key: writeset.Key{Table: "t", Row: row}, Value: "probe"}})
		for _, snap := range []int64{rec.Base, last} {
			gc, gv := cert.Check(snap, probe)
			rc, rv := refCert.Check(snap, probe)
			if gc != rc || gv != rv {
				t.Fatalf("%s: probe row %d snap %d: recovered (%v,%d) reference (%v,%d)",
					label, row, snap, gc, gv, rc, rv)
			}
		}
	}

	// (5) the recovered database equals the reference after catch-up
	// (once anything — the schema record first — was acknowledged).
	if len(r.acked) > 0 {
		gotRows, err := db.Dump("t")
		if err != nil {
			t.Fatalf("%s: dump: %v", label, err)
		}
		wantRows, err := refDB.Dump("t")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotRows, wantRows) {
			t.Fatalf("%s: recovered database diverges:\n got %v\nwant %v", label, gotRows, wantRows)
		}
	}
}

// TestCrashSweep kills the node at every filesystem operation the
// workload performs — and for write ops also mid-write — under both
// power-cycle models, and asserts the durability contract at each.
func TestCrashSweep(t *testing.T) {
	dry := runCrashScript(t, -1, 0)
	if dry.cfs.Crashed() {
		t.Fatal("dry run crashed")
	}
	trace := dry.cfs.Trace()
	if len(trace) < 30 {
		t.Fatalf("suspiciously small trace: %d ops", len(trace))
	}
	// The dry run must behave like a plain in-memory run.
	checkInvariants(t, "dry", dry, true)

	for op, desc := range trace {
		cuts := []int{0}
		if desc.Kind == "write" && desc.Bytes > 1 {
			cuts = append(cuts, desc.Bytes/2)
		}
		for _, cut := range cuts {
			for _, keep := range []bool{false, true} {
				label := fmt.Sprintf("op%d(%s %s %dB) cut=%d keep=%v",
					op, desc.Kind, desc.Name, desc.Bytes, cut, keep)
				r := runCrashScript(t, op, cut)
				if !r.cfs.Crashed() {
					t.Fatalf("%s: crash never fired", label)
				}
				checkInvariants(t, label, r, keep)
			}
		}
	}
}

// TestCrashNamedPoints pins the semantically distinct kill points of
// the commit and compaction paths to explicit scenarios, so the
// coverage the sweep provides is legible: each point is located in the
// dry-run trace by structure, not by brittle hard-coded indices.
func TestCrashNamedPoints(t *testing.T) {
	dry := runCrashScript(t, -1, 0)
	trace := dry.cfs.Trace()

	// Locators over the trace.
	nthMatch := func(n int, pred func(Op) bool) int {
		for i, op := range trace {
			if pred(op) {
				if n == 0 {
					return i
				}
				n--
			}
		}
		t.Fatalf("named point not found in trace %v", trace)
		return -1
	}
	// Certified records in script order: the schema (0), the two load
	// chunks (1, 2), the first commit (3), ... Each journal write is
	// followed by its fsync.
	recs := recordWrites(trace)
	if len(recs) != 16 { // schema, 2 loads, 11 commits, 2 batches
		t.Fatalf("found %d record writes in trace %v, want 16", len(recs), trace)
	}
	secondLoadWrite := recs[2]
	firstCommitWrite := recs[3]
	if got := trace[firstCommitWrite]; got.Bytes < 2*codec.HeaderSize {
		t.Fatalf("misidentified commit write: %+v", got)
	}
	firstCommitSync := firstCommitWrite + 1
	tmpCreate := nthMatch(0, func(op Op) bool { return op.Kind == "create" && op.Name == tmpName })
	// The batch write: the last record write before compaction (three
	// staged writesets + marker in one buffer).
	batchWrite := -1
	for _, i := range recs {
		if i < tmpCreate {
			batchWrite = i
		}
	}
	batchBytes := trace[batchWrite].Bytes
	tmpWrite := nthMatch(0, func(op Op) bool { return op.Kind == "write" && op.Name == tmpName })
	tmpSync := nthMatch(0, func(op Op) bool { return op.Kind == "sync" && op.Name == tmpName })
	rename := nthMatch(0, func(op Op) bool { return op.Kind == "rename" })
	// The directory sync after the compaction rename (the fresh-log
	// creation issued the first one).
	dirSync := nthMatch(0, func(op Op) bool { return op.Kind == "sync-dir" })
	if dirSync < rename {
		dirSync = nthMatch(1, func(op Op) bool { return op.Kind == "sync-dir" })
	}

	points := []struct {
		name string
		op   int
		cut  int
		keep bool
		// strict demands that nothing beyond the acked set is
		// recovered (the in-flight request provably never persisted).
		strict bool
	}{
		{"load-between-chunks", secondLoadWrite, 0, true, true},
		{"load-between-chunks-powerloss", secondLoadWrite, 0, false, true},
		{"commit-pre-write", firstCommitWrite, 0, true, true},
		{"commit-mid-record-torn", firstCommitWrite, 5, true, true},
		{"commit-mid-record-torn-powerloss", firstCommitWrite, 5, false, true},
		{"commit-post-write-pre-fsync-powerloss", firstCommitSync, 0, false, true},
		{"commit-post-write-pre-fsync-kill", firstCommitSync, 0, true, false}, // durable but unacked: may be visible
		{"batch-pre-write", batchWrite, 0, true, true},
		{"batch-torn-mid-batch", batchWrite, batchBytes / 2, true, true},
		{"batch-torn-mid-batch-powerloss", batchWrite, batchBytes / 2, false, true},
		{"compact-create-tmp", tmpCreate, 0, true, true},
		{"compact-mid-tmp-write", tmpWrite, batchBytes / 3, true, true},
		{"compact-post-tmp-pre-sync", tmpSync, 0, false, true},
		{"compact-pre-rename", rename, 0, true, true},
		{"compact-post-rename-pre-dirsync-powerloss", dirSync, 0, false, true},
		{"compact-post-rename-pre-dirsync-kill", dirSync, 0, true, true},
	}
	if len(points) < 10 {
		t.Fatalf("need >= 10 named kill points, have %d", len(points))
	}
	seen := map[string]bool{}
	for _, p := range points {
		if p.op < 0 || seen[p.name] {
			t.Fatalf("bad point table: %+v", p)
		}
		seen[p.name] = true
		t.Run(p.name, func(t *testing.T) {
			r := runCrashScript(t, p.op, p.cut)
			if !r.cfs.Crashed() {
				t.Fatal("crash never fired")
			}
			checkInvariants(t, p.name, r, p.keep)
			if p.strict {
				// Re-verify the strict half directly: recovery holds
				// exactly the acked set (plus compacted history).
				rec, _, _ := recoverNode(t, r.fs, p.keep)
				if got, want := rec.LastVersion(), ackedMax(r); got != want {
					t.Fatalf("recovered to %d, acked up to %d", got, want)
				}
			}
		})
	}
}

// recordWrites locates the certifier's journal writes in a trace: the
// segment writes immediately followed by a segment fsync, in script
// order. The epoch header Open writes and syncs first is not a record.
func recordWrites(trace []Op) []int {
	var out []int
	for i := 0; i+1 < len(trace); i++ {
		if trace[i].Kind == "write" && trace[i].Name == segName &&
			trace[i+1].Kind == "sync" && trace[i+1].Name == segName {
			out = append(out, i)
		}
	}
	return out[1:]
}

func ackedMax(r *crashRun) int64 {
	max := int64(0)
	for _, a := range r.acked {
		if a.Version > max {
			max = a.Version
		}
	}
	return max
}

// TestCrashDuringRecovery crashes a node, then crashes the recovery's
// own filesystem operations (the torn-tail truncation), and checks the
// second recovery still satisfies the contract — recovery is
// idempotent.
func TestCrashDuringRecovery(t *testing.T) {
	// First crash: torn tail mid-commit-record, deep into the commit
	// sequence (the third commit after schema and loads).
	dry := runCrashScript(t, -1, 0)
	target := recordWrites(dry.cfs.Trace())[5]
	r := runCrashScript(t, target, 7)
	if !r.cfs.Crashed() {
		t.Fatal("crash never fired")
	}

	// Recovery attempt 1: crash at its first mutating op (the
	// truncating reopen).
	r.fs.PowerCycle(true)
	cfs2 := NewCrashFS(r.fs, 0, 0)
	if _, _, err := Open(Options{FS: cfs2, Fsync: true}); err == nil {
		t.Fatal("armed recovery unexpectedly succeeded")
	} else if !errors.Is(err, ErrCrashed) && !strings.Contains(err.Error(), "crash") {
		t.Fatalf("unexpected recovery error: %v", err)
	}

	// Recovery attempt 2 completes and upholds the contract.
	checkInvariants(t, "double-crash", r, true)
}
