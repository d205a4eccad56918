package certifier

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/paxos"
	"repro/internal/writeset"
)

// fuzzSeeds returns well-formed Paxos values of every kind, and the
// malformed ones the decoder must refuse: truncated, bit-flipped,
// trailing garbage and a writeset without its commit marker.
func fuzzSeeds() []string {
	ws1 := writeset.New([]writeset.Entry{
		{Key: writeset.Key{Table: "accounts", Row: 7}, Value: "balance=\xff\xfe12"},
		{Key: writeset.Key{Table: "audit", Row: -1}, Delete: true},
	})
	batch := string(batchValue(Record{Version: 41, Writeset: ws1}, Record{Version: 42, Writeset: ws(2)}))
	x1, x2 := codec.TxnID{Epoch: -1, Seq: 1 << 40}, codec.TxnID{Epoch: 2, Seq: 2}
	decide, _ := AppendDecision(nil, x1, true, 43, []Record{{Version: 43, Writeset: ws1}}, nil)
	prepare := AppendPrepare(nil, PreparedTxn{ID: x1, Coord: 2, Snapshot: 40, Writeset: ws1})
	abort, _ := AppendDecision(nil, x2, false, 0, nil, []codec.TxnID{x2})
	// A participant's decide-and-retire after its prepare, and a
	// coordinator's decide retiring an earlier decision.
	retired, _ := AppendDecision(slices.Clip(prepare), x1, true, 43, []Record{{Version: 43, Writeset: ws1}}, []codec.TxnID{x1})
	piggy, _ := AppendDecision(nil, x2, true, 0, nil, []codec.TxnID{x1})
	seeds := []string{batch, "", "noop", string(decide), string(prepare), string(abort),
		string(retired), string(piggy), string(codec.ForgetFrame(nil, []codec.TxnID{x1, x2}))}
	for _, i := range []int{1, len(batch) / 2, len(batch) - 2} {
		mut := []byte(batch)
		mut[i] ^= 0x40
		seeds = append(seeds, string(mut))
	}
	return append(seeds,
		batch[:len(batch)-3],
		batch+"\x00\x00",
		string(codec.WritesetFrame(nil, 1, ws(1))), // no commit marker
		string(codec.BeginEpochFrame(nil, 1, 0)),   // a WAL-only frame
		string(bytes.Repeat([]byte{0xff}, 64)),
	)
}

// replayed is the state one value decodes to, with empty collections
// normalised so a round trip compares equal.
func replayed(t *testing.T, v paxos.Value) (Replay, error) {
	t.Helper()
	var rp Replay
	err := rp.Value(v)
	if len(rp.Decisions) == 0 {
		rp.Decisions = nil
	}
	return rp, err
}

// FuzzDecodeRecord hammers the one Paxos-value decoder (Replay.Value)
// with malformed, truncated and bit-flipped inputs: it must error
// cleanly and never panic — these bytes arrive from the network on
// the election path — and an accepted value must round-trip.
func FuzzDecodeRecord(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data string) {
		rp, err := replayed(t, paxos.Value(data)) // must not panic
		if err != nil {
			return
		}
		// Re-encode the decoded state as log frames and decode it again:
		// the state must come back equal, so nothing decoded depends on
		// bytes the encoders would not produce.
		var b []byte
		for _, p := range rp.Prepared {
			b = AppendPrepare(b, p)
		}
		for id, d := range rp.Decisions {
			b, _ = AppendDecision(b, id, d.Commit, d.Version, nil, nil)
		}
		b, _ = AppendRecords(b, rp.Records)
		rp2, err := replayed(t, paxos.Value(b))
		if err != nil {
			t.Fatalf("re-encoded state does not decode: %v", err)
		}
		if !reflect.DeepEqual(rp, rp2) {
			t.Fatalf("round-trip diverged:\n%+v\nvs\n%+v", rp, rp2)
		}
	})
}

// FuzzDecodeRecords checks that an accepted value is bounded by its
// input: each record and entry costs encoded bytes, so a tiny input
// claiming a huge batch is impossible — a guard against decoded size
// amplification.
func FuzzDecodeRecords(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data string) {
		rp, err := replayed(t, paxos.Value(data)) // must not panic
		if err != nil {
			return
		}
		if n := len(rp.Records) + len(rp.Prepared) + len(rp.Decisions); n > len(data) {
			t.Fatalf("%d log entries decoded from %d bytes", n, len(data))
		}
		for _, rec := range rp.Records {
			if len(rec.Writeset.Entries) > len(data) {
				t.Fatalf("%d entries decoded from %d bytes", len(rec.Writeset.Entries), len(data))
			}
		}
	})
}

// TestValueDecodeIsStrict pins what the fuzz seeds exercise: a Paxos
// value decodes to its last byte or not at all — only a WAL file's
// tail may be torn.
func TestValueDecodeIsStrict(t *testing.T) {
	batch := string(batchValue(Record{Version: 1, Writeset: ws(1)}, Record{Version: 2, Writeset: ws(2)}))
	bad := map[string]string{
		"truncated":         batch[:len(batch)-1],
		"bit-flipped":       batch[:12] + string(batch[12]^1) + batch[13:],
		"trailing garbage":  batch + "\x00",
		"no commit marker":  string(codec.WritesetFrame(nil, 1, ws(1))),
		"marker below":      string(codec.CommitFrame(codec.WritesetFrame(nil, 2, ws(1)), 1)),
		"WAL-only frame":    string(codec.SnapshotFrame(nil, 1, nil)),
		"over the max size": strings.Repeat("x", codec.MaxFrame+1),
	}
	for name, v := range bad {
		if recs, err := decodeValue(paxos.Value(v)); err == nil {
			t.Errorf("%s: decoded to %d records, want an error", name, len(recs))
		}
	}
	if recs, err := decodeValue(paxos.Value(batch)); err != nil || len(recs) != 2 {
		t.Fatalf("well-formed batch: %d records, %v", len(recs), err)
	}
}
