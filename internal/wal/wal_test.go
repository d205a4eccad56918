package wal

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/certifier"
	"repro/internal/codec"
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
	return codec.CloseFrame(append(codec.OpenFrame(nil), payload...), 0)
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
	if rec.Epoch != 1 || len(rec.Records) != 0 || rec.LastVersion() != 0 {
		t.Fatalf("fresh log recovered %+v", rec)
	}
	// The certifier stages versions 1 and 2 ...
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
	// ... so the apply path installing them writes nothing, ...
	size := w.Size()
	if err := w.AppendRecord(ws("item", 7, "v1"), 1); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendRecord(ws("item", 8, "v2"), 2); err != nil {
		t.Fatal(err)
	}
	if w.Size() != size {
		t.Fatalf("apply path re-journaled held versions: %d -> %d bytes", size, w.Size())
	}
	// ... and journals the next version it installs as the same record.
	if err := w.AppendRecord(ws("item", 9, "v3"), 3); err != nil {
		t.Fatal(err)
	}
	w.Close()

	_, rec = reopen(t, fs, true)
	if len(rec.Records) != 3 || rec.Records[0].Version != 1 || rec.Records[2].Version != 3 {
		t.Fatalf("records %+v", rec.Records)
	}
	if rec.Records[1].Writeset.Entries[0].Value != "v2" || rec.Records[2].Writeset.Entries[0].Value != "v3" {
		t.Fatalf("writeset content lost: %+v", rec.Records)
	}
	if rec.LastVersion() != 3 {
		t.Fatalf("last version %d, want 3", rec.LastVersion())
	}
	if rec.TornBytes != 0 {
		t.Fatalf("unexpected torn tail: %d bytes", rec.TornBytes)
	}
}

// TestRetiredFramesRefused: a CRC-valid frame of a retired kind (the
// old format's apply, table and cursor frames, and the 2PC frames of
// string transaction ids) fails Open with
// ErrRetiredFrame, and the segment is left exactly as it was — it is
// not truncated at the frame as a torn tail would be.
func TestRetiredFramesRefused(t *testing.T) {
	for kind := byte(5); kind <= 10; kind++ {
		fs := NewMemFS()
		w, _, err := Open(Options{FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		w.Close()
		data, err := fs.ReadFile(segName)
		if err != nil {
			t.Fatal(err)
		}
		// {version 1} — the old frames all led with a varint.
		data = append(data, frame([]byte{kind, 2})...)
		f, err := fs.Create(segName)
		if err != nil {
			t.Fatal(err)
		}
		f.Write(data)
		f.Close()

		fs.PowerCycle(true)
		if _, _, err := Open(Options{FS: fs}); !errors.Is(err, ErrRetiredFrame) {
			t.Fatalf("kind %d: open err=%v, want ErrRetiredFrame", kind, err)
		}
		after, err := fs.ReadFile(segName)
		if err != nil {
			t.Fatal(err)
		}
		if len(after) != len(data) {
			t.Fatalf("kind %d: segment %d bytes after the refused open, was %d", kind, len(after), len(data))
		}
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
	data = append(data, codec.WritesetFrame(nil, 2, ws("t", 2, "b"))...)
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
	f.Write(codec.WritesetFrame(nil, 2, ws("t", 9, "never-acked")))
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
		{"zero length", make([]byte, codec.HeaderSize)},
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
	for v := int64(1); v <= 5; v++ {
		// Odd versions come from the certifier, even ones from the apply
		// path; each is framed once either way.
		if v%2 == 1 {
			if _, err := w.Append([]certifier.Record{{Version: v, Writeset: ws("t", v, fmt.Sprintf("v%d", v))}}); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.AppendRecord(ws("t", v, fmt.Sprintf("v%d", v)), v); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	data, _ := fs.ReadFile(segName)
	orig, origLen, err := replay(data)
	if err != nil {
		t.Fatal(err)
	}
	if int(origLen) != len(data) || len(orig.Records) != 5 {
		t.Fatalf("baseline replay broken: %d records, %d/%d bytes", len(orig.Records), origLen, len(data))
	}

	for i := range data {
		for _, flip := range []byte{0x01, 0x80} {
			mut := append([]byte(nil), data...)
			mut[i] ^= flip
			rec, good, err := replay(mut)
			if err != nil {
				t.Fatalf("byte %d flip %#x: %v", i, flip, err)
			}
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
	if _, err := w.Append([]certifier.Record{{Version: 1, Writeset: writeset.Schema("t")}}); err != nil {
		t.Fatal(err)
	}
	for v := int64(2); v <= 10; v++ {
		seq, err := w.Append([]certifier.Record{{Version: v, Writeset: ws("t", v%4, fmt.Sprintf("v%d", v))}})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Sync(seq); err != nil {
			t.Fatal(err)
		}
	}
	before := w.Size()

	// A table created after the snapshot was captured but before the
	// swap: its schema record is above the snapshot and must survive.
	if _, err := w.Append([]certifier.Record{{Version: 11, Writeset: writeset.Schema("late")}}); err != nil {
		t.Fatal(err)
	}

	// Snapshot at version 8: rows as of v8.
	state := map[string]map[int64]string{"t": {0: "v8", 1: "v5", 2: "v6", 3: "v7"}}
	if err := w.Compact(8, 8, state); err != nil {
		t.Fatal(err)
	}
	if w.Size() >= before {
		t.Fatalf("compaction did not shrink: %d -> %d", before, w.Size())
	}
	if w.Epoch() != 2 {
		t.Fatalf("epoch %d, want 2", w.Epoch())
	}
	// Appends continue on the new segment.
	seq, err := w.Append([]certifier.Record{{Version: 12, Writeset: ws("t", 12, "v12")}})
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
	if rec.Snapshot == nil || rec.SnapVersion != 8 {
		t.Fatalf("snapshot missing or misplaced: %+v", rec)
	}
	var versions []int64
	for _, r := range rec.Records {
		versions = append(versions, r.Version)
	}
	if !reflect.DeepEqual(versions, []int64{9, 10, 11, 12}) {
		t.Fatalf("retained records %v, want [9 10 11 12]", versions)
	}
	if rec.LastVersion() != 12 {
		t.Fatalf("last version %d, want 12", rec.LastVersion())
	}

	// Restore rebuilds the database: snapshot rows, then records 9..12.
	db := sidb.New()
	if err := rec.Restore(db); err != nil {
		t.Fatal(err)
	}
	rows, err := db.Dump("t")
	if err != nil {
		t.Fatal(err)
	}
	if rows[1] != "v9" || rows[2] != "v10" || rows[12] != "v12" {
		t.Fatalf("restored rows %v", rows)
	}
	if !reflect.DeepEqual(db.Tables(), []string{"late", "t"}) {
		t.Fatalf("tables across compaction: %v (the race-window table must survive)", db.Tables())
	}
	if db.Version() != 12 {
		t.Fatalf("restored version %d, want 12", db.Version())
	}
}

// TestCompactionKeepsEmptyTable: a table with no rows is named by the
// snapshot and restored after a restart, though no record and no row
// mentions it any more.
func TestCompactionKeepsEmptyTable(t *testing.T) {
	fs := NewMemFS()
	w, _, err := Open(Options{FS: fs, Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	for v, rec := range []writeset.Writeset{writeset.Schema("empty"), writeset.Schema("t"), ws("t", 1, "a")} {
		if err := w.AppendRecord(rec, int64(v)+1); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Compact(3, 3, map[string]map[int64]string{"empty": {}, "t": {1: "a"}}); err != nil {
		t.Fatal(err)
	}
	w.Close()

	_, rec := reopen(t, fs, true)
	if len(rec.Records) != 0 || rec.LastVersion() != 3 {
		t.Fatalf("recovered %d records, last version %d; want 0 and 3", len(rec.Records), rec.LastVersion())
	}
	db := sidb.New()
	if err := rec.Restore(db); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(db.Tables(), []string{"empty", "t"}) {
		t.Fatalf("restored tables %v, want [empty t]", db.Tables())
	}
	if rows, err := db.Dump("empty"); err != nil || len(rows) != 0 {
		t.Fatalf("empty table restored as %v (%v)", rows, err)
	}
	if db.Version() != 3 {
		t.Fatalf("restored version %d, want 3", db.Version())
	}
}

// TestRestoreRefusesGap: a recovered record that does not follow the
// version before it fails the restore instead of installing around the
// hole.
func TestRestoreRefusesGap(t *testing.T) {
	rec := &Recovered{Replay: certifier.Replay{Records: []certifier.Record{
		{Version: 1, Writeset: writeset.Schema("t")},
		{Version: 3, Writeset: ws("t", 1, "a")},
	}}}
	if err := rec.Restore(sidb.New()); err == nil {
		t.Fatal("restore installed records around a missing version")
	}
}

// TestCompactRejectsStaleSnapshot pins the concurrent-compaction
// backstop: once a segment holds a snapshot at version S, a Compact
// offering one below S (a capture taken before a competitor's rewrite
// won the race) is rejected instead of regressing the log — the
// rewrite would drop the newer snapshot frame while the records it
// superseded are already gone, losing durably acked commits.
func TestCompactRejectsStaleSnapshot(t *testing.T) {
	fs := NewMemFS()
	w, _, err := Open(Options{FS: fs, Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	for v := int64(1); v <= 4; v++ {
		if err := w.AppendRecord(ws("t", v, fmt.Sprintf("v%d", v)), v); err != nil {
			t.Fatal(err)
		}
	}
	newer := map[string]map[int64]string{"t": {1: "v1", 2: "v2", 3: "v3", 4: "v4"}}
	if err := w.Compact(4, 4, newer); err != nil {
		t.Fatal(err)
	}
	stale := map[string]map[int64]string{"t": {1: "v1", 2: "v2"}}
	if err := w.Compact(2, 2, stale); !errors.Is(err, ErrStaleSnapshot) {
		t.Fatalf("stale compact: err=%v, want ErrStaleSnapshot", err)
	}
	// Equal is idempotent, not stale.
	if err := w.Compact(4, 4, newer); err != nil {
		t.Fatalf("same-version compact rejected: %v", err)
	}
	w.Close()

	// The guard survives a restart: the reopened segment remembers its
	// snapshot version.
	w2, rec := reopen(t, fs, true)
	if rec.SnapVersion != 4 || rec.Snapshot["t"][4] != "v4" {
		t.Fatalf("recovered snapshot version %d %+v, want 4 with v4", rec.SnapVersion, rec.Snapshot)
	}
	if err := w2.Compact(2, 2, stale); !errors.Is(err, ErrStaleSnapshot) {
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
	if err := w.Compact(4, 4, state); err != nil {
		t.Fatal(err)
	}
	totalOps := len(cfs.Trace())

	for op := preOps; op < totalOps; op++ {
		for _, keep := range []bool{false, true} {
			mem := NewMemFS()
			cfs := NewCrashFS(mem, op, 0)
			w := build(cfs)
			err := w.Compact(4, 4, state)
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
	if err := w.Compact(0, 0, nil); err == nil {
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
	seq, err := w.Append([]certifier.Record{{Version: 1, Writeset: ws("t", 1, "a")}})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(seq); err != nil {
		t.Fatal(err)
	}
	if err := w.Compact(1, 1, map[string]map[int64]string{"t": {1: "a"}}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	w2, rec2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if rec2.Base != 1 || rec2.Snapshot == nil || rec2.LastVersion() != 1 {
		t.Fatalf("recovered %+v", rec2)
	}
}
