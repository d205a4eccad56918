package wal

import (
	"bytes"
	"maps"
	"reflect"
	"slices"
	"testing"

	"repro/internal/certifier"
	"repro/internal/codec"
	"repro/internal/paxos"
)

// journaledPaxosRun drives one replicated certifier, journaling to a
// WAL, through a batch, a single commit, a 2PC commit, a 2PC abort and
// a prepare left in doubt — values and ids include bytes that are not
// valid UTF-8. It returns the certifier, the WAL's filesystem and the
// Paxos log a new leader recovers.
func journaledPaxosRun(t *testing.T) (*certifier.Certifier, *MemFS, map[int]paxos.Value) {
	t.Helper()
	fs := NewMemFS()
	w, _, err := Open(Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	c, tr, err := certifier.NewReplicated(3)
	if err != nil {
		t.Fatal(err)
	}
	c.SetJournal(w)
	if _, err := c.CertifyBatch([]certifier.Request{
		{Snapshot: 0, Writeset: ws("t", 1, "\xff\xfea")},
		{Snapshot: 0, Writeset: ws("t", 2, "b")},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Certify(c.Version(), ws("t\xfe", 3, "c")); err != nil {
		t.Fatal(err)
	}
	for i, id := range []string{"commit\xff", "abort\xff", "doubt\xff"} {
		p := certifier.PreparedTxn{ID: tid(id), Coord: 1, Snapshot: c.Version(), Writeset: ws("t", int64(10+i), id)}
		if vote, _, err := c.Prepare(p); err != nil || !vote {
			t.Fatalf("prepare %q: %v %v", id, vote, err)
		}
	}
	if _, err := c.Decide(tid("commit\xff"), true); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Decide(tid("abort\xff"), false); err != nil {
		t.Fatal(err)
	}
	w.Close()
	_, log, err := paxos.NewProposer(1, []int{0, 1, 2}, tr).Campaign("noop")
	if err != nil {
		t.Fatal(err)
	}
	return c, fs, log
}

// TestPaxosValuesAreWALFrames pins the one log format: the value a
// replicated certifier proposes for an operation is the exact bytes
// its WAL appends for it, so the segment after its epoch header is the
// chosen values, slot by slot.
func TestPaxosValuesAreWALFrames(t *testing.T) {
	_, fs, log := journaledPaxosRun(t)
	var values []byte
	for _, slot := range slices.Sorted(maps.Keys(log)) {
		values = append(values, log[slot]...)
	}
	data, err := fs.ReadFile(segName)
	if err != nil {
		t.Fatal(err)
	}
	frames, ok := bytes.CutPrefix(data, codec.BeginEpochFrame(nil, 1, 0))
	if !ok {
		t.Fatal("segment does not open with the epoch header")
	}
	if !bytes.Equal(frames, values) {
		t.Fatalf("WAL frames differ from the Paxos values:\n%q\nvs\n%q", frames, values)
	}
}

// TestWALAndPaxosRecoverTheSameState replays the same operations from
// the WAL and from the Paxos log: both give the same records, in-doubt
// set and decisions.
func TestWALAndPaxosRecoverTheSameState(t *testing.T) {
	leader, fs, log := journaledPaxosRun(t)
	fromPaxos, err := certifier.Recover(log)
	if err != nil {
		t.Fatal(err)
	}
	w, rec := reopen(t, fs, false)
	defer w.Close()
	fromWAL, err := certifier.Restore(&rec.Replay, rec.Base, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]*certifier.Certifier{"paxos": fromPaxos, "wal": fromWAL} {
		if got, want := c.Since(0), leader.Since(0); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s records %q, leader %q", name, got, want)
		}
		in := c.InDoubt()
		if len(in) != 1 || in[0].ID != tid("doubt\xff") || !reflect.DeepEqual(in[0].Writeset, ws("t", 12, "doubt\xff")) {
			t.Fatalf("%s in-doubt set %q", name, in)
		}
		for _, id := range []string{"commit\xff", "abort\xff"} {
			got, ok := c.Decided(tid(id))
			want, _ := leader.Decided(tid(id))
			if !ok || got != want {
				t.Fatalf("%s decision for %q: %+v, leader %+v", name, id, got, want)
			}
		}
	}
}
