package codec

import (
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/writeset"
)

// countInput is a count n followed by left bytes of elements.
func countInput(n uint64, left int) []byte {
	return append(binary.AppendUvarint(nil, n), make([]byte, left)...)
}

// TestCountWidth: a count passes while its elements fit in the bytes
// left at their minimum width, n*w <= Len(), and fails one past that,
// at every width and at a count whose product overflows.
func TestCountWidth(t *testing.T) {
	const left = 12
	for _, w := range []int{1, RowWidth, EntryWidth} {
		fit := uint64(left / w)
		d := NewDecoder(countInput(fit, left))
		if n := d.Count(w); n != fit || d.Err() != nil {
			t.Fatalf("w=%d: Count of %d elements in %d bytes = %d, %v", w, fit, left, n, d.Err())
		}
		for _, lie := range []uint64{fit + 1, math.MaxUint64 / uint64(w), math.MaxUint64} {
			d := NewDecoder(countInput(lie, left))
			if n := d.Count(w); n != 0 || !errors.Is(d.Err(), ErrTruncated) {
				t.Fatalf("w=%d: Count of %d elements in %d bytes = %d, %v; want 0, ErrTruncated", w, lie, left, n, d.Err())
			}
		}
	}
	// Fit checks a count read before the elements' bytes are reached.
	d := NewDecoder(make([]byte, 7))
	if n := d.Fit(2, 4); n != 0 || !errors.Is(d.Err(), ErrTruncated) {
		t.Fatalf("Fit(2, 4) over 7 bytes = %d, %v", n, d.Err())
	}
}

// TestLyingCountAllocatesNothing: a writeset whose entry count fits
// the bytes left at one byte an entry but not at EntryWidth fails
// before its entry array is allocated.
func TestLyingCountAllocatesNothing(t *testing.T) {
	in := countInput(5, 5*EntryWidth-1)
	var err error
	allocs := testing.AllocsPerRun(100, func() {
		d := NewDecoder(in)
		if ws := d.Writeset(); len(ws.Entries) != 0 {
			t.Fatalf("decoded %d entries", len(ws.Entries))
		}
		err = d.Err()
	})
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("Writeset err = %v, want ErrTruncated", err)
	}
	if allocs != 0 {
		t.Fatalf("a lying count allocated %.0f times, want 0", allocs)
	}
}

// TestFramesRoundTrip: an honest frame of every kind decodes to what
// was encoded, and loses a field when its payload is cut short.
func TestFramesRoundTrip(t *testing.T) {
	ws := writeset.New([]writeset.Entry{
		{Key: writeset.Key{Table: "item", Row: 7}, Value: "v7"},
		{Key: writeset.Key{Table: "", Row: writeset.SchemaRow}, Delete: true},
		{Key: writeset.Key{Table: "item", Row: math.MinInt64}, Value: ""},
	})
	state := map[string]map[int64]string{
		"item":  {0: "a", 63: "", math.MaxInt64: "z"},
		"empty": {},
	}
	tx := TxnID{Epoch: -1 << 62, Seq: 7}
	cases := []struct {
		frame []byte
		want  Frame
	}{
		{BeginEpochFrame(nil, 3, 40), Frame{Kind: KindBeginEpoch, Epoch: 3, Base: 40}},
		{WritesetFrame(nil, 41, ws), Frame{Kind: KindWriteset, Version: 41, Writeset: ws}},
		{CommitFrame(nil, 41), Frame{Kind: KindCommit, Version: 41}},
		{SnapshotFrame(nil, 42, state), Frame{Kind: KindSnapshot, Version: 42, Tables: state}},
		{SnapshotFrame(nil, 43, nil), Frame{Kind: KindSnapshot, Version: 43, Tables: map[string]map[int64]string{}}},
		{PrepareFrame(nil, tx, 2, 40, ws), Frame{Kind: KindPrepare, Txn: tx, Coord: 2, Snapshot: 40, Writeset: ws}},
		{DecisionFrame(nil, tx, true, 44), Frame{Kind: KindDecision, Txn: tx, Commit: true, Version: 44}},
		{ForgetFrame(nil, []TxnID{tx, {Epoch: 2, Seq: 1}}), Frame{Kind: KindForget, Forget: []TxnID{tx, {Epoch: 2, Seq: 1}}}},
		{PromiseFrame(nil, 7, 2), Frame{Kind: KindPromise, Round: 7, Proposer: 2}},
		{VoteFrame(nil, 9, 7, 2, "\xff\x00v"), Frame{Kind: KindVote, Slot: 9, Round: 7, Proposer: 2, Value: []byte("\xff\x00v")}},
		{VoteFrame(nil, 0, 1, 0, ""), Frame{Kind: KindVote, Round: 1, Value: []byte{}}},
	}
	for _, tc := range cases {
		payload, size := NextFrame(tc.frame)
		if size != len(tc.frame) {
			t.Fatalf("kind %d: NextFrame size %d, want %d", tc.want.Kind, size, len(tc.frame))
		}
		got, err := DecodeFrame(payload)
		if err != nil {
			t.Fatalf("kind %d: %v", tc.want.Kind, err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("kind %d: decoded %+v, want %+v", tc.want.Kind, got, tc.want)
		}
		if _, err := DecodeFrame(payload[:len(payload)-1]); err == nil {
			t.Fatalf("kind %d: a payload one byte short decoded", tc.want.Kind)
		}
	}
}
