package wal

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/certifier"
	"repro/internal/sidb"
	"repro/internal/writeset"
)

// ws builds a small writeset writing value to (table, row).
func ws(table string, row int64, value string) writeset.Writeset {
	return writeset.New([]writeset.Entry{
		{Key: writeset.Key{Table: table, Row: row}, Value: value},
	})
}

// frame wraps an already-encoded payload in its length+CRC header, for
// tests that hand-craft segments.
func frame(payload []byte) []byte {
	return closeFrame(append(openFrame(nil), payload...), 0)
}

// reopen power-cycles the fs (keeping unsynced bytes: a process kill)
// and opens a fresh WAL over it.
func reopen(t *testing.T, fs *MemFS, fsync bool) (*WAL, *Recovered) {
	t.Helper()
	fs.PowerCycle(true)
	w, rec, err := Open(Options{FS: fs, Fsync: fsync})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	return w, rec
}

func TestRoundTrip(t *testing.T) {
	fs := NewMemFS()
	w, rec, err := Open(Options{FS: fs, Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Epoch != 1 || len(rec.Records) != 0 || rec.Cursor != 0 {
		t.Fatalf("fresh log recovered %+v", rec)
	}
	if err := w.AppendTable("item"); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendApply(1, ws("item", 7, "load-7")); err != nil {
		t.Fatal(err)
	}
	seq, err := w.Append([]certifier.Record{
		{Version: 1, Writeset: ws("item", 7, "v1")},
		{Version: 2, Writeset: ws("item", 8, "v2")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(seq); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendApply(2, ws("item", 7, "v1")); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendCursor(1); err != nil {
		t.Fatal(err)
	}
	w.Close()

	_, rec = reopen(t, fs, true)
	if got, want := rec.Tables, []string{"item"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("tables %v, want %v", got, want)
	}
	if len(rec.Records) != 2 || rec.Records[0].Version != 1 || rec.Records[1].Version != 2 {
		t.Fatalf("records %+v", rec.Records)
	}
	if rec.Records[1].Writeset.Entries[0].Value != "v2" {
		t.Fatalf("writeset content lost: %+v", rec.Records[1].Writeset)
	}
	if len(rec.Applies) != 2 || rec.Applies[0].Local != 1 || rec.Applies[1].Local != 2 {
		t.Fatalf("applies %+v", rec.Applies)
	}
	if rec.Cursor != 1 {
		t.Fatalf("cursor %d, want 1", rec.Cursor)
	}
	if rec.TornBytes != 0 {
		t.Fatalf("unexpected torn tail: %d bytes", rec.TornBytes)
	}
}

// TestStagedWithoutCommitMarkerDiscarded pins the atomicity rule: a
// certified writeset is committed only once a commit marker covering
// it is on disk.
func TestStagedWithoutCommitMarkerDiscarded(t *testing.T) {
	fs := NewMemFS()
	w, _, err := Open(Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append([]certifier.Record{{Version: 1, Writeset: ws("t", 1, "a")}}); err != nil {
		t.Fatal(err)
	}
	w.Close()

	// Manually append a writeset frame with no commit marker, as a
	// torn batch would leave behind.
	data, err := fs.ReadFile(segName)
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, frame(encodeWriteset(nil, 2, ws("t", 2, "b")))...)
	f, err := fs.Create(segName)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(data)
	f.Close()

	_, rec := reopen(t, fs, false)
	if len(rec.Records) != 1 || rec.Records[0].Version != 1 {
		t.Fatalf("uncommitted staged record must be discarded, got %+v", rec.Records)
	}
	// The stale frame must also be truncated, not just skipped:
	// recovery reuses its version, and a frame left on disk would be
	// retroactively committed by the next marker at the reused version.
	if rec.TornBytes == 0 {
		t.Fatal("uncommitted staged frame left in the segment")
	}
}

// TestTornBatchFrameCannotResurrect pins the full failure the
// truncation prevents: a batch torn after its writeset frame but
// before the commit marker, a restart that reuses the version for a
// new acked commit, and a second restart — the never-acked writeset
// must not reappear as committed history at the reused version.
func TestTornBatchFrameCannotResurrect(t *testing.T) {
	fs := NewMemFS()
	w, _, err := Open(Options{FS: fs, Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := w.Append([]certifier.Record{{Version: 1, Writeset: ws("t", 1, "v1")}})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(seq); err != nil {
		t.Fatal(err)
	}
	w.Close()

	// The torn batch: a valid KindWriteset frame for version 2 lands,
	// its commit marker does not. It was never acked.
	data, err := fs.ReadFile(segName)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.OpenAppend(segName, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	f.Write(frame(encodeWriteset(nil, 2, ws("t", 9, "never-acked"))))
	f.Sync()
	f.Close()

	// Restart 1: version 2 is free again and a new commit is acked at
	// it.
	fs.PowerCycle(true)
	w2, rec, err := Open(Options{FS: fs, Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.LastVersion(); got != 1 {
		t.Fatalf("recovered to version %d, want 1", got)
	}
	seq, err = w2.Append([]certifier.Record{{Version: 2, Writeset: ws("t", 1, "acked")}})
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Sync(seq); err != nil {
		t.Fatal(err)
	}
	w2.Close()

	// Restart 2: exactly one record at version 2, the acked one. Before
	// the truncation fix, the stale staged frame was re-committed by
	// the new marker and served to peers ahead of the acked record.
	_, rec = reopen(t, fs, true)
	var at2 []certifier.Record
	for _, r := range rec.Records {
		if r.Version == 2 {
			at2 = append(at2, r)
		}
	}
	if len(at2) != 1 || at2[0].Writeset.Entries[0].Value != "acked" {
		t.Fatalf("version 2 records %+v, want exactly the acked one", at2)
	}
}

// TestTornTailTruncation appends garbage and partial frames and checks
// Open cuts the file back to the last valid record.
func TestTornTailTruncation(t *testing.T) {
	for _, tearing := range []struct {
		name string
		tail []byte
	}{
		{"garbage", []byte{0xde, 0xad, 0xbe, 0xef, 0x01}},
		{"short header", []byte{0x00, 0x00}},
		{"length overruns file", []byte{0x00, 0x00, 0xff, 0xff, 0x00, 0x00, 0x00, 0x00, 0x05}},
		{"zero length", make([]byte, headerSize)},
	} {
		t.Run(tearing.name, func(t *testing.T) {
			fs := NewMemFS()
			w, _, err := Open(Options{FS: fs})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.Append([]certifier.Record{{Version: 1, Writeset: ws("t", 1, "a")}}); err != nil {
				t.Fatal(err)
			}
			w.Close()
			data, _ := fs.ReadFile(segName)
			clean := len(data)
			f, _ := fs.Create(segName)
			f.Write(append(data, tearing.tail...))
			f.Close()

			w2, rec := reopen(t, fs, false)
			if rec.TornBytes != int64(len(tearing.tail)) {
				t.Fatalf("torn bytes %d, want %d", rec.TornBytes, len(tearing.tail))
			}
			if len(rec.Records) != 1 {
				t.Fatalf("records %+v", rec.Records)
			}
			// The file must have been physically truncated, and stay
			// appendable: a new record lands right after the cut.
			if _, err := w2.Append([]certifier.Record{{Version: 2, Writeset: ws("t", 2, "b")}}); err != nil {
				t.Fatal(err)
			}
			w2.Close()
			data2, _ := fs.ReadFile(segName)
			if len(data2) <= clean {
				t.Fatalf("append after truncation did not grow the file (%d <= %d)", len(data2), clean)
			}
			_, rec2 := reopen(t, fs, false)
			if len(rec2.Records) != 2 {
				t.Fatalf("post-truncation append lost: %+v", rec2.Records)
			}
		})
	}
}

// TestBitFlipStopsAtPrefix flips every byte of a valid log in turn and
// asserts replay never panics and always yields a prefix of the
// original record sequence — the decoder satellite requirement.
func TestBitFlipStopsAtPrefix(t *testing.T) {
	fs := NewMemFS()
	w, _, err := Open(Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	w.AppendTable("t")
	for v := int64(1); v <= 5; v++ {
		if _, err := w.Append([]certifier.Record{{Version: v, Writeset: ws("t", v, fmt.Sprintf("v%d", v))}}); err != nil {
			t.Fatal(err)
		}
		w.AppendApply(v, ws("t", v, fmt.Sprintf("v%d", v)))
	}
	w.Close()
	data, _ := fs.ReadFile(segName)
	orig, origLen := replay(data)
	if int(origLen) != len(data) || len(orig.Records) != 5 {
		t.Fatalf("baseline replay broken: %d records, %d/%d bytes", len(orig.Records), origLen, len(data))
	}

	for i := range data {
		for _, flip := range []byte{0x01, 0x80} {
			mut := append([]byte(nil), data...)
			mut[i] ^= flip
			rec, good := replay(mut)
			if good > int64(len(mut)) {
				t.Fatalf("byte %d: good length %d beyond input %d", i, good, len(mut))
			}
			if len(rec.Records) > len(orig.Records) {
				t.Fatalf("byte %d: more records than written", i)
			}
			for j, r := range rec.Records {
				// Replay must stop at the first bad CRC: every surviving
				// record is byte-identical to the original prefix.
				if r.Version != orig.Records[j].Version ||
					!reflect.DeepEqual(r.Writeset.Entries, orig.Records[j].Writeset.Entries) {
					t.Fatalf("byte %d flip %#x: record %d diverged: %+v vs %+v",
						i, flip, j, r, orig.Records[j])
				}
			}
		}
	}
}

func TestCompaction(t *testing.T) {
	fs := NewMemFS()
	w, _, err := Open(Options{FS: fs, Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	w.AppendTable("t")
	for v := int64(1); v <= 10; v++ {
		seq, err := w.Append([]certifier.Record{{Version: v, Writeset: ws("t", v%4, fmt.Sprintf("v%d", v))}})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Sync(seq); err != nil {
			t.Fatal(err)
		}
		w.AppendApply(v, ws("t", v%4, fmt.Sprintf("v%d", v)))
		w.AppendCursor(v)
	}
	before := w.Size()

	// A table created after the snapshot was captured but before the
	// swap: its frame sits in the old segment only and must survive.
	w.AppendTable("late")

	// Snapshot at version 8: rows as of v8.
	state := map[string]map[int64]string{"t": {0: "v8", 1: "v9?", 2: "v6", 3: "v7"}}
	state["t"][1] = "v5" // row1 newest <=8 is v5 (9%4==1 is v9 >8)
	if err := w.Compact(8, 8, 8, 8, []string{"t"}, state); err != nil {
		t.Fatal(err)
	}
	if w.Size() >= before {
		t.Fatalf("compaction did not shrink: %d -> %d", before, w.Size())
	}
	if w.Epoch() != 2 {
		t.Fatalf("epoch %d, want 2", w.Epoch())
	}
	// Appends continue on the new segment.
	seq, err := w.Append([]certifier.Record{{Version: 11, Writeset: ws("t", 11, "v11")}})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(seq); err != nil {
		t.Fatal(err)
	}
	w.Close()

	_, rec := reopen(t, fs, true)
	if rec.Epoch != 2 || rec.Base != 8 {
		t.Fatalf("epoch/base %d/%d, want 2/8", rec.Epoch, rec.Base)
	}
	if rec.Snapshot == nil || rec.SnapGlobal != 8 || rec.SnapLocal != 8 {
		t.Fatalf("snapshot missing or misplaced: %+v", rec)
	}
	var versions []int64
	for _, r := range rec.Records {
		versions = append(versions, r.Version)
	}
	if !reflect.DeepEqual(versions, []int64{9, 10, 11}) {
		t.Fatalf("retained records %v, want [9 10 11]", versions)
	}
	if rec.Cursor < 8 {
		t.Fatalf("cursor %d below snapshot", rec.Cursor)
	}
	if !reflect.DeepEqual(rec.Tables, []string{"t", "late"}) {
		t.Fatalf("tables across compaction: %v (the race-window table must survive)", rec.Tables)
	}

	// Restore rebuilds the database: snapshot rows then applies 9, 10.
	db := sidb.New()
	if err := rec.Restore(db); err != nil {
		t.Fatal(err)
	}
	rows, err := db.Dump("t")
	if err != nil {
		t.Fatal(err)
	}
	if rows[1] != "v9" || rows[2] != "v10" {
		t.Fatalf("restored rows %v", rows)
	}
	if db.Version() != 10 {
		t.Fatalf("restored local version %d, want 10", db.Version())
	}
}

// TestCompactRejectsStaleSnapshot pins the concurrent-compaction
// backstop: once a segment holds a snapshot at local version L, a
// Compact offering one below L (a capture taken before a competitor's
// rewrite won the race) is rejected instead of regressing the log —
// the rewrite would drop the newer snapshot frame while the applies it
// superseded are already gone, losing durably acked commits.
func TestCompactRejectsStaleSnapshot(t *testing.T) {
	fs := NewMemFS()
	w, _, err := Open(Options{FS: fs, Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	w.AppendTable("t")
	for v := int64(1); v <= 4; v++ {
		if err := w.AppendApply(v, ws("t", v, fmt.Sprintf("v%d", v))); err != nil {
			t.Fatal(err)
		}
	}
	newer := map[string]map[int64]string{"t": {1: "v1", 2: "v2", 3: "v3", 4: "v4"}}
	if err := w.Compact(4, 4, 4, 4, []string{"t"}, newer); err != nil {
		t.Fatal(err)
	}
	stale := map[string]map[int64]string{"t": {1: "v1", 2: "v2"}}
	if err := w.Compact(2, 2, 2, 2, []string{"t"}, stale); !errors.Is(err, ErrStaleSnapshot) {
		t.Fatalf("stale compact: err=%v, want ErrStaleSnapshot", err)
	}
	// Equal is idempotent, not stale.
	if err := w.Compact(4, 4, 4, 4, []string{"t"}, newer); err != nil {
		t.Fatalf("same-version compact rejected: %v", err)
	}
	w.Close()

	// The guard survives a restart: the reopened segment remembers its
	// snapshot version.
	w2, rec := reopen(t, fs, true)
	if rec.SnapLocal != 4 || rec.Snapshot["t"][4] != "v4" {
		t.Fatalf("recovered snapshot local %d %+v, want 4 with v4", rec.SnapLocal, rec.Snapshot)
	}
	if err := w2.Compact(2, 2, 2, 2, []string{"t"}, stale); !errors.Is(err, ErrStaleSnapshot) {
		t.Fatalf("stale compact after reopen: err=%v, want ErrStaleSnapshot", err)
	}
	w2.Close()
}

// TestCompactionCrashLeavesOldOrNewLog power-cycles at every
// filesystem op inside Compact and checks the log is always one of the
// two complete states.
func TestCompactionCrashLeavesOldOrNewLog(t *testing.T) {
	build := func(fs FS) *WAL {
		w, _, err := Open(Options{FS: fs, Fsync: true})
		if err != nil {
			t.Fatal(err)
		}
		for v := int64(1); v <= 6; v++ {
			seq, _ := w.Append([]certifier.Record{{Version: v, Writeset: ws("t", v, "x")}})
			w.Sync(seq)
		}
		return w
	}
	// Dry run to count compaction ops.
	mem := NewMemFS()
	cfs := NewCrashFS(mem, -1, 0)
	w := build(cfs)
	preOps := len(cfs.Trace())
	state := map[string]map[int64]string{"t": {1: "x", 2: "x", 3: "x", 4: "x"}}
	if err := w.Compact(4, 4, 4, 4, []string{"t"}, state); err != nil {
		t.Fatal(err)
	}
	totalOps := len(cfs.Trace())

	for op := preOps; op < totalOps; op++ {
		for _, keep := range []bool{false, true} {
			mem := NewMemFS()
			cfs := NewCrashFS(mem, op, 0)
			w := build(cfs)
			err := w.Compact(4, 4, 4, 4, []string{"t"}, state)
			if err == nil {
				t.Fatalf("op %d: compaction survived its own crash", op)
			}
			w.Close()
			mem.PowerCycle(keep)
			_, rec, err := Open(Options{FS: mem, Fsync: true})
			if err != nil {
				t.Fatalf("op %d keep=%v: reopen: %v", op, keep, err)
			}
			var versions []int64
			for _, r := range rec.Records {
				versions = append(versions, r.Version)
			}
			oldLog := reflect.DeepEqual(versions, []int64{1, 2, 3, 4, 5, 6}) && rec.Base == 0
			newLog := reflect.DeepEqual(versions, []int64{5, 6}) && rec.Base == 4 && rec.Snapshot != nil
			if !oldLog && !newLog {
				t.Fatalf("op %d keep=%v: neither old nor new log: versions %v base %d snap %v",
					op, keep, versions, rec.Base, rec.Snapshot != nil)
			}
		}
	}
}

// TestGroupFsync drives concurrent commits through Append+Sync and
// checks fsyncs are shared: far fewer syncs than commits.
func TestGroupFsync(t *testing.T) {
	fs := NewMemFS()
	w, _, err := Open(Options{FS: fs, Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	base := fs.Syncs()
	const n = 64
	// Stage all commits first (the window concurrent commits share),
	// then let every committer demand durability at once: the first
	// fsync covers all staged writes, everyone else finds their
	// sequence already durable.
	seqs := make([]int64, n)
	for i := range seqs {
		v := int64(i + 1)
		seq, err := w.Append([]certifier.Record{{Version: v, Writeset: ws("t", v, "x")}})
		if err != nil {
			t.Fatal(err)
		}
		seqs[i] = seq
	}
	var wg sync.WaitGroup
	for _, seq := range seqs {
		wg.Add(1)
		go func(seq int64) {
			defer wg.Done()
			if err := w.Sync(seq); err != nil {
				t.Error(err)
			}
		}(seq)
	}
	wg.Wait()
	syncs := fs.Syncs() - base
	if syncs != 1 {
		t.Fatalf("group commit should settle %d staged commits with one fsync, took %d", n, syncs)
	}
	w.Close()
	_, rec := reopen(t, fs, true)
	if len(rec.Records) != n {
		t.Fatalf("recovered %d records, want %d", len(rec.Records), n)
	}
}

// TestFsyncOffStillSurvivesProcessKill: without fsync the bytes are in
// the page cache; a process kill (keep unsynced) preserves them.
func TestFsyncOffStillSurvivesProcessKill(t *testing.T) {
	fs := NewMemFS()
	w, _, err := Open(Options{FS: fs, Fsync: false})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := w.Append([]certifier.Record{{Version: 1, Writeset: ws("t", 1, "a")}})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(seq); err != nil { // no-op
		t.Fatal(err)
	}
	// No Close: the "process" dies.
	fs.PowerCycle(true)
	_, rec, err := Open(Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 1 {
		t.Fatalf("process kill lost records: %+v", rec.Records)
	}
}

func TestCloseRejectsFurtherUse(t *testing.T) {
	fs := NewMemFS()
	w, _, err := Open(Options{FS: fs, Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if _, err := w.Append([]certifier.Record{{Version: 1, Writeset: ws("t", 1, "a")}}); err == nil {
		t.Fatal("append after close succeeded")
	}
	if err := w.Sync(0); err == nil {
		t.Fatal("sync after close succeeded")
	}
	if err := w.Compact(0, 0, 0, 0, nil, nil); err == nil {
		t.Fatal("compact after close succeeded")
	}
}

func TestDirFSRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, rec, err := Open(Options{Dir: dir, Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Epoch != 1 {
		t.Fatalf("fresh epoch %d", rec.Epoch)
	}
	w.AppendTable("t")
	seq, err := w.Append([]certifier.Record{{Version: 1, Writeset: ws("t", 1, "a")}})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(seq); err != nil {
		t.Fatal(err)
	}
	if err := w.Compact(1, 1, 1, 1, []string{"t"}, map[string]map[int64]string{"t": {1: "a"}}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	w2, rec2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if rec2.Base != 1 || rec2.Snapshot == nil {
		t.Fatalf("recovered %+v", rec2)
	}
}
