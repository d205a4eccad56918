package wal

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/certifier"
	"repro/internal/codec"
	"repro/internal/paxos"
	"repro/internal/writeset"
)

// fuzzSeedLog builds a representative valid log covering the record
// kinds — certifier and apply-path records, a 2PC prepare and a
// compaction snapshot with an empty table — for the fuzz corpus.
func fuzzSeedLog(tb testing.TB) []byte {
	tb.Helper()
	fs := NewMemFS()
	w, _, err := Open(Options{FS: fs})
	if err != nil {
		tb.Fatal(err)
	}
	w.AppendRecord(writeset.Schema("items"), 1)
	w.Append([]certifier.Record{
		{Version: 2, Writeset: writeset.FromRows("items", 0, []string{"a", "b", "c"})},
		{Version: 3, Writeset: ws("items", 1, "y")},
	})
	w.AppendRecord(ws("items", 1, "y"), 3) // already held: writes nothing
	appendPrepare(w, certifier.PreparedTxn{ID: tid("x1"), Coord: 1, Snapshot: 3, Writeset: ws("items", 4, "p")})
	w.Compact(2, 2, map[string]map[int64]string{"items": {0: "a", 1: "b", 2: "c"}, "empty": {}})
	w.AppendRecord(ws("items", 2, "z"), 4)
	w.Close()
	data, err := fs.ReadFile(segName)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// fuzzTwoPCLog builds a valid log of the 2PC frame kinds: prepares, a
// participant's decide-and-retire, a coordinator's decide retiring an
// earlier decision, an abort, and a multi-id forget.
func fuzzTwoPCLog(tb testing.TB) []byte {
	tb.Helper()
	fs := NewMemFS()
	w, _, err := Open(Options{FS: fs})
	if err != nil {
		tb.Fatal(err)
	}
	a, b, c := tid("a"), tid("b"), tid("c")
	w.AppendRecord(writeset.Schema("items"), 1)
	appendPrepare(w, certifier.PreparedTxn{ID: a, Coord: 0, Snapshot: 1, Writeset: ws("items", 1, "a")})
	appendPrepare(w, certifier.PreparedTxn{ID: b, Coord: 1, Snapshot: 1, Writeset: ws("items", 2, "b")})
	appendDecision(w, a, true, 2, []certifier.Record{{Version: 2, Writeset: ws("items", 1, "a")}}, nil)
	appendDecision(w, b, true, 3, []certifier.Record{{Version: 3, Writeset: ws("items", 2, "b")}}, []codec.TxnID{b})
	appendPrepare(w, certifier.PreparedTxn{ID: c, Coord: 0, Snapshot: 3, Writeset: ws("items", 3, "c")})
	appendDecision(w, c, true, 4, []certifier.Record{{Version: 4, Writeset: ws("items", 3, "c")}}, []codec.TxnID{a})
	appendDecision(w, tid("d"), false, 0, nil, []codec.TxnID{tid("d")})
	appendForget(w, []codec.TxnID{c, tid("e")})
	w.Close()
	data, err := fs.ReadFile(segName)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// fuzzPaxosLog builds a valid log of a Paxos node: its acceptor's
// promises and votes — a superseded vote, a value of log frames and one
// that is not valid UTF-8 — among the apply path's records, and a
// compaction that carries the promise and votes in force.
func fuzzPaxosLog(tb testing.TB) []byte {
	tb.Helper()
	fs := NewMemFS()
	w, _, err := Open(Options{FS: fs})
	if err != nil {
		tb.Fatal(err)
	}
	value, _ := certifier.AppendRecords(nil, []certifier.Record{{Version: 1, Writeset: writeset.Schema("items")}})
	w.SavePromise(ballot(1, 0))
	w.SaveAccept(0, ballot(1, 0), paxos.Value(value))
	w.AppendRecord(writeset.Schema("items"), 1)
	w.SaveAccept(1, ballot(1, 0), "\xff\xfe")
	w.SavePromise(ballot(2, 1))
	w.SaveAccept(1, ballot(2, 1), "noop")
	w.Compact(1, 1, map[string]map[int64]string{"items": {}})
	w.SaveAccept(2, ballot(2, 1), "")
	w.AppendRecord(ws("items", 1, "y"), 2)
	w.Close()
	data, err := fs.ReadFile(segName)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// FuzzWALDecode feeds arbitrary bytes (seeded with valid and
// bit-flipped logs) to the replay parser: it must never panic, must
// stop at the first bad frame (the accepted prefix re-parses to the
// identical state), and must never claim more input than it was given.
// This mirrors the wire package's malformed-frame tests for the
// network decoder.
func FuzzWALDecode(f *testing.F) {
	seed := fuzzSeedLog(f)
	f.Add(seed)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	for _, i := range []int{3, len(seed) / 2, len(seed) - 2} {
		mut := append([]byte(nil), seed...)
		mut[i] ^= 0x40
		f.Add(mut)
	}
	f.Add(seed[:len(seed)-3]) // torn tail
	f.Add(append(append([]byte(nil), seed...), 0x00, 0x00))
	twoPC := fuzzTwoPCLog(f)
	f.Add(twoPC)
	f.Add(twoPC[:len(twoPC)-5])                                          // a retirement torn off its decide
	f.Add(append(append([]byte(nil), twoPC...), frame([]byte{9, 2})...)) // a retired kind
	px := fuzzPaxosLog(f)
	f.Add(px)
	f.Add(px[:len(px)-4]) // a record torn after the votes
	for _, i := range []int{len(px) / 3, len(px) / 2} {
		mut := append([]byte(nil), px...)
		mut[i] ^= 0x11
		f.Add(mut)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, good, err := replay(data) // must not panic
		if err != nil {
			// Only a retired frame kind fails replay outright.
			if !errors.Is(err, ErrRetiredFrame) || rec != nil || good != 0 {
				t.Fatalf("replay failed with %v (rec %v, good %d)", err, rec, good)
			}
			return
		}
		if good < 0 || good > int64(len(data)) {
			t.Fatalf("accepted prefix %d outside input of %d bytes", good, len(data))
		}
		// Replay is deterministic and prefix-stable: parsing just the
		// accepted prefix yields the same state and consumes all of it
		// — i.e. replay stopped at the first bad frame and nothing
		// after it leaked into the result.
		rec2, good2, err := replay(data[:good])
		if err != nil {
			t.Fatalf("re-parse of accepted prefix: %v", err)
		}
		if good2 != good {
			t.Fatalf("re-parse of accepted prefix stops at %d, not %d", good2, good)
		}
		if !reflect.DeepEqual(rec, rec2) {
			t.Fatalf("re-parse diverged:\n%+v\nvs\n%+v", rec, rec2)
		}
		// Committed versions are strictly increasing: no certifier can
		// be rebuilt with holes filled by garbage.
		for i := 1; i < len(rec.Records); i++ {
			if rec.Records[i].Version <= rec.Records[i-1].Version {
				t.Fatalf("recovered versions not increasing: %d then %d",
					rec.Records[i-1].Version, rec.Records[i].Version)
			}
		}
	})
}

// TestFuzzCorpusSmoke runs the fuzz body over the seed corpus in plain
// `go test` runs (the CI path does not run the fuzz engine).
func TestFuzzCorpusSmoke(t *testing.T) {
	seed := fuzzSeedLog(t)
	rec, good, err := replay(seed)
	if err != nil || good != int64(len(seed)) {
		t.Fatalf("seed log torn at %d/%d (%v)", good, len(seed), err)
	}
	if len(rec.Records) != 2 || rec.Records[0].Version != 3 || rec.Records[1].Version != 4 ||
		rec.Base != 2 || rec.SnapVersion != 2 || len(rec.Snapshot) != 2 || len(rec.Prepared) != 1 {
		t.Fatalf("seed log recovered %+v", rec)
	}
	px, good, err := replay(fuzzPaxosLog(t))
	if err != nil || px.Promised != ballot(2, 1) || len(px.Votes) != 3 || px.Votes[1].Value != "noop" ||
		len(px.Records) != 1 || px.Records[0].Version != 2 {
		t.Fatalf("Paxos seed log recovered %+v (%v)", px, err)
	}
	if want := int64(len(fuzzPaxosLog(t))); good != want {
		t.Fatalf("Paxos seed log torn at %d/%d", good, want)
	}
	// Every single-byte corruption still yields a clean prefix parse.
	for i := range seed {
		mut := append([]byte(nil), seed...)
		mut[i] ^= 0xa5
		_, good, err := replay(mut)
		if err != nil {
			t.Fatalf("byte %d: %v", i, err)
		}
		if good > int64(len(mut)) {
			t.Fatalf("byte %d: accepted beyond input", i)
		}
		_, good2, err := replay(mut[:good])
		if err != nil || good2 != good {
			t.Fatalf("byte %d: unstable prefix %d vs %d (%v)", i, good, good2, err)
		}
	}
}
