package paxoslog

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/codec"
	"repro/internal/paxos"
	"repro/internal/wal"
)

func ballot(round, proposer int) paxos.Ballot {
	return paxos.Ballot{Round: round, Proposer: proposer}
}

func TestStoreRoundTrip(t *testing.T) {
	fs := wal.NewMemFS()
	s, promised, slots, err := Open(fs, true)
	if err != nil {
		t.Fatal(err)
	}
	if promised != (paxos.Ballot{}) || len(slots) != 0 {
		t.Fatalf("fresh store not empty: %s %v", promised, slots)
	}
	if err := s.SavePromise(ballot(2, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveAccept(0, ballot(2, 1), "v0"); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveAccept(1, ballot(2, 1), "v1"); err != nil {
		t.Fatal(err)
	}
	// A newer vote for slot 0 supersedes the older one.
	if err := s.SaveAccept(0, ballot(3, 2), "v0'"); err != nil {
		t.Fatal(err)
	}
	s.Close()

	_, promised, slots, err = Open(fs, true)
	if err != nil {
		t.Fatal(err)
	}
	if promised != ballot(3, 2) {
		t.Fatalf("promised = %s, want 3.2 (accept implies promise)", promised)
	}
	if got := slots[0]; got.Ballot != ballot(3, 2) || got.Value != "v0'" {
		t.Fatalf("slot 0 = %+v, want newest vote", got)
	}
	if got := slots[1]; got.Ballot != ballot(2, 1) || got.Value != "v1" {
		t.Fatalf("slot 1 = %+v", got)
	}
}

func TestStoreClosedRefusesSaves(t *testing.T) {
	fs := wal.NewMemFS()
	s, _, _, err := Open(fs, false)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := s.SavePromise(ballot(1, 0)); !errors.Is(err, ErrClosed) {
		t.Fatalf("save on closed store: %v", err)
	}
}

func TestStoreTornTailTruncated(t *testing.T) {
	fs := wal.NewMemFS()
	s, _, _, err := Open(fs, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SaveAccept(0, ballot(1, 0), "kept"); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Tear the tail: append half a frame, as a crash mid-write would.
	data, err := fs.ReadFile(FileName)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.OpenAppend(FileName, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0, 0, 0, 9, 0xde, 0xad})
	f.Close()

	s2, promised, slots, err := Open(fs, true)
	if err != nil {
		t.Fatal(err)
	}
	if promised != ballot(1, 0) || slots[0].Value != "kept" {
		t.Fatalf("torn tail corrupted the prefix: %s %v", promised, slots)
	}
	// The tail was cut; new saves land cleanly after it.
	if err := s2.SaveAccept(1, ballot(2, 1), "after"); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	_, promised, slots, err = Open(fs, true)
	if err != nil {
		t.Fatal(err)
	}
	if promised != ballot(2, 1) || slots[1].Value != "after" {
		t.Fatalf("post-truncation save lost: %s %v", promised, slots)
	}
}

func TestStoreCorruptMiddleStopsReplay(t *testing.T) {
	fs := wal.NewMemFS()
	s, _, _, err := Open(fs, true)
	if err != nil {
		t.Fatal(err)
	}
	s.SaveAccept(0, ballot(1, 0), "first")
	s.SaveAccept(1, ballot(1, 0), "second")
	s.Close()

	data, err := fs.ReadFile(FileName)
	if err != nil {
		t.Fatal(err)
	}
	data[codec.HeaderSize+2] ^= 0xff // flip a bit inside the first payload
	f, err := fs.Create(FileName)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(data)
	f.Close()

	_, promised, slots, err := Open(fs, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(slots) != 0 || promised != (paxos.Ballot{}) {
		t.Fatalf("replay continued past corruption: %s %v", promised, slots)
	}
}

// TestStorePersistBeforeReply sweeps a crash over every filesystem op
// of a fixed save script and asserts the acceptor contract: a save
// that returned nil must be fully restored after the crash, under both
// power-loss (fsync on) and process-kill semantics.
func TestStorePersistBeforeReply(t *testing.T) {
	type model struct {
		name         string
		fsync        bool
		keepUnsynced bool
	}
	models := []model{
		{"power-loss", true, false},
		{"process-kill", false, true},
	}
	script := func(s *Store) []error {
		return []error{
			s.SavePromise(ballot(1, 0)),
			s.SaveAccept(0, ballot(1, 0), "a"),
			s.SaveAccept(1, ballot(1, 0), "b"),
			s.SavePromise(ballot(2, 1)),
			s.SaveAccept(1, ballot(2, 1), "b'"),
		}
	}
	// Dry run to size the op trace.
	mem := wal.NewMemFS()
	dry := wal.NewCrashFS(mem, -1, 0)
	s, _, _, err := Open(dry, true)
	if err != nil {
		t.Fatal(err)
	}
	script(s)
	s.Close()
	ops := len(dry.Trace())
	if ops < 5 {
		t.Fatalf("trace unexpectedly short: %d ops", ops)
	}

	for _, m := range models {
		for armAt := 0; armAt < ops; armAt++ {
			for _, cut := range []int{0, 5} {
				name := fmt.Sprintf("%s/arm=%d/cut=%d", m.name, armAt, cut)
				mem := wal.NewMemFS()
				cfs := wal.NewCrashFS(mem, armAt, cut)
				s, _, _, err := Open(cfs, m.fsync)
				if err != nil {
					continue // crashed during open: nothing acked
				}
				errs := script(s)

				mem.PowerCycle(m.keepUnsynced)
				_, promised, slots, err := Open(mem, m.fsync)
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
				if promised.Less(wantPromise) {
					t.Fatalf("%s: acked promise lost: restored %s, want >= %s", name, promised, wantPromise)
				}
				for slot, want := range wantSlots {
					got, ok := slots[slot]
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
