package wal

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/codec"
	"repro/internal/paxos"
)

func ballot(round, proposer int) paxos.Ballot {
	return paxos.Ballot{Round: round, Proposer: proposer}
}

// TestAcceptorRoundTrip: the promises and votes a WAL saves come back
// at Open as the highest promise and the newest vote per slot.
func TestAcceptorRoundTrip(t *testing.T) {
	fs := NewMemFS()
	w, rec, err := Open(Options{FS: fs, Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Promised != (paxos.Ballot{}) || len(rec.Votes) != 0 {
		t.Fatalf("fresh log holds acceptor state: %s %v", rec.Promised, rec.Votes)
	}
	if err := w.SavePromise(ballot(2, 1)); err != nil {
		t.Fatal(err)
	}
	if err := w.SaveAccept(0, ballot(2, 1), "v0"); err != nil {
		t.Fatal(err)
	}
	if err := w.SaveAccept(1, ballot(2, 1), "v1"); err != nil {
		t.Fatal(err)
	}
	// A newer vote for slot 0 supersedes the older one.
	if err := w.SaveAccept(0, ballot(3, 2), "v0'"); err != nil {
		t.Fatal(err)
	}
	w.Close()

	_, rec = reopen(t, fs, true)
	if rec.Promised != ballot(3, 2) {
		t.Fatalf("promised = %s, want 3.2 (accept implies promise)", rec.Promised)
	}
	if got := rec.Votes[0]; got.Ballot != ballot(3, 2) || got.Value != "v0'" {
		t.Fatalf("slot 0 = %+v, want newest vote", got)
	}
	if got := rec.Votes[1]; got.Ballot != ballot(2, 1) || got.Value != "v1" {
		t.Fatalf("slot 1 = %+v", got)
	}
}

// TestAcceptorClosedRefusesSaves: a closed WAL refuses the acceptor's
// saves, so the acceptor refuses to reply.
func TestAcceptorClosedRefusesSaves(t *testing.T) {
	w, _, err := Open(Options{FS: NewMemFS()})
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if err := w.SavePromise(ballot(1, 0)); !errors.Is(err, ErrClosed) {
		t.Fatalf("promise on closed log: %v", err)
	}
	if err := w.SaveAccept(0, ballot(1, 0), "v"); !errors.Is(err, ErrClosed) {
		t.Fatalf("vote on closed log: %v", err)
	}
}

// TestAcceptorTornTailTruncated: half a frame after a vote is cut at
// Open, the vote survives, and later saves land cleanly after the cut.
func TestAcceptorTornTailTruncated(t *testing.T) {
	fs := NewMemFS()
	w, _, err := Open(Options{FS: fs, Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.SaveAccept(0, ballot(1, 0), "kept"); err != nil {
		t.Fatal(err)
	}
	w.Close()

	// Tear the tail: append half a frame, as a crash mid-write would.
	data, err := fs.ReadFile(segName)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.OpenAppend(segName, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0, 0, 0, 9, 0xde, 0xad})
	f.Close()

	w2, rec := reopen(t, fs, true)
	if rec.TornBytes != 6 || rec.Promised != ballot(1, 0) || rec.Votes[0].Value != "kept" {
		t.Fatalf("torn tail corrupted the prefix: torn %d, %s %v", rec.TornBytes, rec.Promised, rec.Votes)
	}
	if err := w2.SaveAccept(1, ballot(2, 1), "after"); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	_, rec = reopen(t, fs, true)
	if rec.Promised != ballot(2, 1) || rec.Votes[1].Value != "after" || rec.Votes[0].Value != "kept" {
		t.Fatalf("post-truncation save lost: %s %v", rec.Promised, rec.Votes)
	}
}

// TestAcceptorCorruptMiddleStopsReplay: a bit flip in the first vote
// ends replay there; nothing after it is restored.
func TestAcceptorCorruptMiddleStopsReplay(t *testing.T) {
	fs := NewMemFS()
	w, _, err := Open(Options{FS: fs, Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	w.SaveAccept(0, ballot(1, 0), "first")
	w.SaveAccept(1, ballot(1, 0), "second")
	w.Close()

	data, err := fs.ReadFile(segName)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a bit inside the first vote's payload, past the epoch header.
	data[len(codec.BeginEpochFrame(nil, 1, 0))+codec.HeaderSize+2] ^= 0xff
	f, err := fs.Create(segName)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(data)
	f.Close()

	_, rec := reopen(t, fs, true)
	if len(rec.Votes) != 0 || rec.Promised != (paxos.Ballot{}) {
		t.Fatalf("replay continued past corruption: %s %v", rec.Promised, rec.Votes)
	}
}

// TestAcceptorPersistBeforeReply sweeps a crash over every filesystem
// op of a fixed save script and asserts the acceptor contract: a save
// that returned nil must be fully restored after the crash, under both
// power-loss (fsync on) and process-kill semantics.
func TestAcceptorPersistBeforeReply(t *testing.T) {
	type model struct {
		name         string
		fsync        bool
		keepUnsynced bool
	}
	models := []model{
		{"power-loss", true, false},
		{"process-kill", false, true},
	}
	script := func(w *WAL) []error {
		return []error{
			w.SavePromise(ballot(1, 0)),
			w.SaveAccept(0, ballot(1, 0), "a"),
			w.SaveAccept(1, ballot(1, 0), "b"),
			w.SavePromise(ballot(2, 1)),
			w.SaveAccept(1, ballot(2, 1), "b'"),
		}
	}
	// Dry run to size the op trace.
	dry := NewCrashFS(NewMemFS(), -1, 0)
	w, _, err := Open(Options{FS: dry, Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	script(w)
	w.Close()
	ops := len(dry.Trace())
	if ops < 5 {
		t.Fatalf("trace unexpectedly short: %d ops", ops)
	}

	for _, m := range models {
		for armAt := 0; armAt < ops; armAt++ {
			for _, cut := range []int{0, 5} {
				name := fmt.Sprintf("%s/arm=%d/cut=%d", m.name, armAt, cut)
				mem := NewMemFS()
				cfs := NewCrashFS(mem, armAt, cut)
				w, _, err := Open(Options{FS: cfs, Fsync: m.fsync})
				if err != nil {
					continue // crashed during open: nothing acked
				}
				errs := script(w)

				mem.PowerCycle(m.keepUnsynced)
				_, rec, err := Open(Options{FS: mem, Fsync: m.fsync})
				if err != nil {
					t.Fatalf("%s: reopen: %v", name, err)
				}
				// Every save that returned nil must be visible.
				wantPromise := paxos.Ballot{}
				wantSlots := map[int]paxos.AcceptedSlot{}
				note := func(b paxos.Ballot, slot int, v paxos.Value, vote bool) {
					if wantPromise.Less(b) {
						wantPromise = b
					}
					if vote {
						wantSlots[slot] = paxos.AcceptedSlot{Ballot: b, Value: v}
					}
				}
				if errs[0] == nil {
					note(ballot(1, 0), 0, "", false)
				}
				if errs[1] == nil {
					note(ballot(1, 0), 0, "a", true)
				}
				if errs[2] == nil {
					note(ballot(1, 0), 1, "b", true)
				}
				if errs[3] == nil {
					note(ballot(2, 1), 0, "", false)
				}
				if errs[4] == nil {
					note(ballot(2, 1), 1, "b'", true)
				}
				if rec.Promised.Less(wantPromise) {
					t.Fatalf("%s: acked promise lost: restored %s, want >= %s", name, rec.Promised, wantPromise)
				}
				for slot, want := range wantSlots {
					got, ok := rec.Votes[slot]
					if !ok || got.Ballot.Less(want.Ballot) {
						t.Fatalf("%s: acked vote lost for slot %d: got %+v, want %+v", name, slot, got, want)
					}
					if got.Ballot == want.Ballot && got.Value != want.Value {
						t.Fatalf("%s: slot %d value changed: %q vs %q", name, slot, got.Value, want.Value)
					}
				}
			}
		}
	}
}

// TestCompactionKeepsAcceptorState: a Paxos node's log, compacted,
// reopens with the same promise and votes; compaction drops only the
// superseded promises and votes, and the compaction trigger does not
// count the acceptor's bytes, which compaction cannot drop.
func TestCompactionKeepsAcceptorState(t *testing.T) {
	fs := NewMemFS()
	w, _, err := Open(Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	save := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	save(w.SavePromise(ballot(1, 0)))
	for v := int64(1); v <= 4; v++ {
		before := w.Size()
		save(w.SaveAccept(int(v-1), ballot(1, 0), paxos.Value(fmt.Sprintf("value-%d", v))))
		if w.Size() != before {
			t.Fatalf("a vote moved the compaction trigger: %d -> %d", before, w.Size())
		}
		save(w.AppendRecord(ws("t", v, fmt.Sprintf("row-%d", v)), v))
	}
	save(w.SavePromise(ballot(2, 1)))
	save(w.SaveAccept(1, ballot(2, 1), "value-2'")) // supersedes slot 1's vote
	save(w.SavePromise(ballot(3, 2)))
	w.Close()

	w, want := reopen(t, fs, false)
	save(w.Compact(4, 4, map[string]map[int64]string{"t": {1: "row-1", 2: "row-2", 3: "row-3", 4: "row-4"}}))
	w.Close()

	data, err := fs.ReadFile(segName)
	if err != nil {
		t.Fatal(err)
	}
	var promises, votes int
	for _, f := range Frames(data) {
		switch f.Kind {
		case codec.KindPromise:
			promises++
		case codec.KindVote:
			votes++
		}
	}
	if promises != 1 || votes != 4 {
		t.Fatalf("compacted log holds %d promises and %d votes, want 1 and 4", promises, votes)
	}
	w, got := reopen(t, fs, false)
	defer w.Close()
	if got.Promised != want.Promised || !reflect.DeepEqual(got.Votes, want.Votes) {
		t.Fatalf("compaction changed the acceptor state:\n%s %v\nwant\n%s %v", got.Promised, got.Votes, want.Promised, want.Votes)
	}
	if got.Promised != ballot(3, 2) || got.Votes[1].Value != "value-2'" {
		t.Fatalf("reopened state %s %v", got.Promised, got.Votes)
	}
	if len(got.Records) != 0 || got.SnapVersion != 4 {
		t.Fatalf("compaction kept %d records, snapshot %d", len(got.Records), got.SnapVersion)
	}
	if w.Size() != int64(len(data))-acceptorBytes(data) {
		t.Fatalf("Size %d counts acceptor bytes (segment %d)", w.Size(), len(data))
	}
}

// acceptorBytes sums the on-disk size of a segment's promise and vote
// frames.
func acceptorBytes(data []byte) int64 {
	var n int64
	for _, f := range Frames(data) {
		if acceptorFrame(f.Kind) {
			n += int64(f.Size)
		}
	}
	return n
}
