package wal

import (
	"hash/fnv"
	"testing"

	"repro/internal/certifier"
	"repro/internal/codec"
)

func prep(id codec.TxnID, coord, snapshot, row int64) certifier.PreparedTxn {
	return certifier.PreparedTxn{
		ID: id, Coord: coord, Snapshot: snapshot,
		Writeset: ws("t", row, "prep-"+id.String()),
	}
}

// tid names a test transaction: the same name is always the same id.
func tid(name string) codec.TxnID {
	h := fnv.New64a()
	h.Write([]byte(name))
	return codec.TxnID{Epoch: 1, Seq: int64(h.Sum64() >> 1)}
}

// TestTwoPCRoundTrip replays the full prepare → decide → forget
// lifecycle through a power cycle at each stage.
func TestTwoPCRoundTrip(t *testing.T) {
	fs := NewMemFS()
	w, _, err := Open(Options{FS: fs, Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	p := prep(tid("x1"), 2, 0, 7)
	seq, err := w.AppendPrepare(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(seq); err != nil {
		t.Fatal(err)
	}
	w.Close()

	w, rec := reopen(t, fs, true)
	if len(rec.Prepared) != 1 || rec.Prepared[0].ID != tid("x1") ||
		rec.Prepared[0].Coord != 2 || rec.Prepared[0].Writeset.Entries[0].Key.Row != 7 {
		t.Fatalf("prepared after cycle: %+v", rec.Prepared)
	}
	if len(rec.Decisions) != 0 {
		t.Fatalf("unexpected decisions: %+v", rec.Decisions)
	}

	// Commit decision: decision frame + the decided record, one write.
	recs := []certifier.Record{{Version: 1, Writeset: p.Writeset}}
	seq, err = w.AppendDecision(tid("x1"), true, 1, recs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(seq); err != nil {
		t.Fatal(err)
	}
	w.Close()

	w, rec = reopen(t, fs, true)
	d, ok := rec.Decisions[tid("x1")]
	if !ok || !d.Commit || d.Version != 1 {
		t.Fatalf("decision after cycle: %+v ok=%v", d, ok)
	}
	if len(rec.Records) != 1 || rec.Records[0].Version != 1 {
		t.Fatalf("decided record after cycle: %+v", rec.Records)
	}
	// The prepared entry survives a commit decision on purpose: a torn
	// record needs the writeset for the re-commit. Restore sees
	// Version <= recovered version and reinstates nothing.
	if len(rec.Prepared) != 1 {
		t.Fatalf("prepared entry dropped by commit decision: %+v", rec.Prepared)
	}

	seq, err = w.AppendForget([]codec.TxnID{tid("x1")})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(seq); err != nil {
		t.Fatal(err)
	}
	w.Close()

	_, rec = reopen(t, fs, true)
	if len(rec.Decisions) != 0 || len(rec.Prepared) != 0 {
		t.Fatalf("forget did not clear 2pc state: %+v %+v", rec.Prepared, rec.Decisions)
	}
}

// TestTwoPCAbortDropsPrepared: an abort decision retires the prepared
// entry at replay (presumed abort has no re-commit to feed).
func TestTwoPCAbortDropsPrepared(t *testing.T) {
	fs := NewMemFS()
	w, _, err := Open(Options{FS: fs, Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.AppendPrepare(prep(tid("a"), 0, 0, 1)); err != nil {
		t.Fatal(err)
	}
	seq, err := w.AppendDecision(tid("a"), false, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(seq); err != nil {
		t.Fatal(err)
	}
	w.Close()
	_, rec := reopen(t, fs, true)
	if len(rec.Prepared) != 0 {
		t.Fatalf("aborted prepare survived replay: %+v", rec.Prepared)
	}
	d, ok := rec.Decisions[tid("a")]
	if !ok || d.Commit {
		t.Fatalf("abort decision lost: %+v ok=%v", d, ok)
	}
}

// TestTornDecisionRecommit pins the whole torn-tail recovery chain:
// AppendDecision puts the decision frame FIRST in its single write, so
// a tear between decision and record leaves {prepare, decision} on
// disk with the record gone. Replay surfaces both; Restore
// re-commits the fragment from the prepared writeset at the decided
// version — the acked commit survives the tear.
func TestTornDecisionRecommit(t *testing.T) {
	fs := NewMemFS()
	w, _, err := Open(Options{FS: fs, Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	p := prep(tid("torn"), 1, 0, 9)
	seq, err := w.AppendPrepare(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(seq); err != nil {
		t.Fatal(err)
	}
	pre, _ := fs.ReadFile(segName)
	preLen := len(pre)
	recs := []certifier.Record{{Version: 1, Writeset: p.Writeset}}
	if _, err := w.AppendDecision(tid("torn"), true, 1, recs, nil); err != nil {
		t.Fatal(err)
	}
	w.Close()

	// Tear the write after the decision frame: keep exactly
	// [prepare..][decision frame], cut the writeset+commit frames.
	full, _ := fs.ReadFile(segName)
	decFrame := len(codec.DecisionFrame(nil, tid("torn"), true, 1))
	cut := preLen + decFrame
	if cut >= len(full) {
		t.Fatalf("nothing to tear: cut=%d len=%d", cut, len(full))
	}
	f, _ := fs.Create(segName)
	f.Write(full[:cut])
	f.Close()

	w2, rec := reopen(t, fs, true)
	defer w2.Close()
	if len(rec.Records) != 0 {
		t.Fatalf("torn record resurrected: %+v", rec.Records)
	}
	d, ok := rec.Decisions[tid("torn")]
	if !ok || !d.Commit || d.Version != 1 {
		t.Fatalf("decision lost with the tear: %+v ok=%v", d, ok)
	}
	if len(rec.Prepared) != 1 {
		t.Fatalf("prepared writeset lost, cannot re-commit: %+v", rec.Prepared)
	}

	// Recovery re-commits: the certifier ends at the decided version
	// with the fragment in its log, re-journaled through the WAL.
	c, err := certifier.Restore(&rec.Replay, rec.Base, w2)
	if err != nil {
		t.Fatal(err)
	}
	if c.Version() != 1 {
		t.Fatalf("recovered version %d, want 1", c.Version())
	}
	got := c.Since(0)
	if len(got) != 1 || got[0].Writeset.Entries[0].Key.Row != 9 {
		t.Fatalf("re-committed record: %+v", got)
	}
}

// TestDecideAndRetireTornTail: a participant's decide-and-retire is
// one write — decision, record, then the retirement — so a tear at any
// byte of it loses a suffix: the retirement alone (the decision
// survives, to be retired again later), the record too (re-committed
// from the prepare), or everything (still in doubt). A record never
// outlives its decision, and a retirement never outlives its record.
func TestDecideAndRetireTornTail(t *testing.T) {
	fs := NewMemFS()
	w, _, err := Open(Options{FS: fs, Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	id := tid("retire")
	p := prep(id, 1, 0, 9)
	if _, err := w.AppendPrepare(p); err != nil {
		t.Fatal(err)
	}
	pre, _ := fs.ReadFile(segName)
	recs := []certifier.Record{{Version: 1, Writeset: p.Writeset}}
	if _, err := w.AppendDecision(id, true, 1, recs, []codec.TxnID{id}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	full, _ := fs.ReadFile(segName)
	for cut := len(pre); cut <= len(full); cut++ {
		torn := NewMemFS()
		f, _ := torn.Create(segName)
		f.Write(full[:cut])
		f.Close()
		w2, rec := reopen(t, torn, true)
		_, decided := rec.Decisions[id]
		switch {
		case cut == len(full):
			if decided || len(rec.Prepared) != 0 || len(rec.Records) != 1 {
				t.Fatalf("whole write: decided %v, prepared %+v, records %+v", decided, rec.Prepared, rec.Records)
			}
		case len(rec.Records) == 1:
			if !decided || len(rec.Prepared) != 1 {
				t.Fatalf("cut %d: record without its decision and fragment", cut)
			}
		case decided:
			if len(rec.Prepared) != 1 {
				t.Fatalf("cut %d: decision without the fragment to re-commit", cut)
			}
		default:
			if len(rec.Prepared) != 1 {
				t.Fatalf("cut %d: in-doubt fragment lost", cut)
			}
		}
		w2.Close()
	}
}

// TestCompactRetiresSettledTwoPC: compaction keeps in-doubt prepares
// and undecided/unforgotten decisions but drops settled ones.
func TestCompactRetiresSettledTwoPC(t *testing.T) {
	fs := NewMemFS()
	w, _, err := Open(Options{FS: fs, Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	// aborted+decided: fully settled once the abort is on disk (the
	// decision itself survives until a Forget retires it).
	if _, err := w.AppendPrepare(prep(tid("settled"), 0, 0, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AppendDecision(tid("settled"), false, 0, nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AppendForget([]codec.TxnID{tid("settled")}); err != nil {
		t.Fatal(err)
	}
	// still in doubt: must survive compaction.
	if _, err := w.AppendPrepare(prep(tid("doubt"), 1, 0, 2)); err != nil {
		t.Fatal(err)
	}
	// decided but not forgotten: the decision must survive.
	if _, err := w.AppendPrepare(prep(tid("decided"), 1, 0, 3)); err != nil {
		t.Fatal(err)
	}
	seq, err := w.AppendDecision(tid("decided"), false, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(seq); err != nil {
		t.Fatal(err)
	}
	if err := w.Compact(0, 0, map[string]map[int64]string{}); err != nil {
		t.Fatal(err)
	}
	w.Close()

	_, rec := reopen(t, fs, true)
	if len(rec.Prepared) != 1 || rec.Prepared[0].ID != tid("doubt") {
		t.Fatalf("compaction kept wrong prepares: %+v", rec.Prepared)
	}
	if _, ok := rec.Decisions[tid("decided")]; !ok {
		t.Fatal("unforgotten decision dropped by compaction")
	}
	if _, ok := rec.Decisions[tid("settled")]; ok {
		t.Fatal("forgotten decision survived compaction")
	}
}
