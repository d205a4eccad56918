package certifier

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/paxos"
	"repro/internal/writeset"
)

// fuzzSeedRecord builds one well-formed encoded record.
func fuzzSeedRecord(f *testing.F) paxos.Value {
	f.Helper()
	ws := writeset.New([]writeset.Entry{
		{Key: writeset.Key{Table: "accounts", Row: 7}, Value: "balance=12"},
		{Key: writeset.Key{Table: "audit", Row: -1}, Delete: true},
	})
	v, err := encodeRecord(Record{Version: 42, Writeset: ws})
	if err != nil {
		f.Fatal(err)
	}
	return v
}

// fuzzSeedBatch builds one well-formed encoded batch.
func fuzzSeedBatch(f *testing.F) paxos.Value {
	f.Helper()
	ws := func(row int64) writeset.Writeset {
		return writeset.New([]writeset.Entry{{Key: writeset.Key{Table: "t", Row: row}, Value: "x"}})
	}
	v, err := encodeBatch([]Record{
		{Version: 1, Writeset: ws(1)},
		{Version: 2, Writeset: ws(2)},
	})
	if err != nil {
		f.Fatal(err)
	}
	return v
}

// FuzzDecodeRecord hammers the Paxos value decoder with malformed,
// truncated and bit-flipped inputs: it must error cleanly, never panic
// and never over-allocate — these bytes arrive from the network on the
// election path.
func FuzzDecodeRecord(f *testing.F) {
	seed := fuzzSeedRecord(f)
	f.Add(string(seed))
	f.Add("")
	f.Add("noop")
	f.Add("{")
	f.Add(`{"Version":-1}`)
	f.Add(string(bytes.Repeat([]byte{0xff}, 64)))
	for _, i := range []int{1, len(seed) / 2, len(seed) - 2} {
		mut := []byte(seed)
		mut[i] ^= 0x40
		f.Add(string(mut))
	}
	f.Add(string(seed[:len(seed)-3])) // truncated

	f.Fuzz(func(t *testing.T, data string) {
		rec, err := DecodeRecord(paxos.Value(data)) // must not panic
		if err != nil {
			return
		}
		// A decoded record must round-trip: re-encoding and re-decoding
		// yields the same record, so nothing decoded depends on bytes
		// the encoder would not produce.
		enc, err := encodeRecord(rec)
		if err != nil {
			t.Fatalf("accepted record does not re-encode: %v", err)
		}
		rec2, err := DecodeRecord(enc)
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		if !reflect.DeepEqual(rec, rec2) {
			t.Fatalf("round-trip diverged:\n%+v\nvs\n%+v", rec, rec2)
		}
	})
}

// FuzzDecodeRecords covers the batch-or-single sniffing path.
func FuzzDecodeRecords(f *testing.F) {
	single := fuzzSeedRecord(f)
	batch := fuzzSeedBatch(f)
	f.Add(string(single))
	f.Add(string(batch))
	f.Add("")
	f.Add("noop")
	f.Add("[")
	f.Add("[{]")
	f.Add("[]")
	f.Add(string(bytes.Repeat([]byte{'['}, 64)))
	for _, i := range []int{1, len(batch) / 2, len(batch) - 2} {
		mut := []byte(batch)
		mut[i] ^= 0x40
		f.Add(string(mut))
	}
	f.Add(string(batch[:len(batch)-3]))

	f.Fuzz(func(t *testing.T, data string) {
		recs, err := DecodeRecords(paxos.Value(data)) // must not panic
		if err != nil {
			return
		}
		// Accepted batches must be bounded by the input: each record
		// costs a handful of JSON bytes at minimum, so a tiny input
		// claiming a huge batch is impossible — a guard against decoded
		// size amplification.
		if len(recs) > len(data) {
			t.Fatalf("%d records decoded from %d bytes", len(recs), len(data))
		}
		for _, rec := range recs {
			if len(rec.Writeset.Entries) > len(data) {
				t.Fatalf("%d entries decoded from %d bytes", len(rec.Writeset.Entries), len(data))
			}
		}
	})
}
