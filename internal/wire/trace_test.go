package wire

import (
	"testing"

	"repro/internal/writeset"
)

// TestTraceRoundTripV4 checks that the trace-id fields on the
// commit-path messages survive the wire.
func TestTraceRoundTripV4(t *testing.T) {
	ws := writeset.New([]writeset.Entry{
		{Key: writeset.Key{Table: "item", Row: 7}, Value: "v7"},
	})
	if got := roundTrip(t, &Begin{Trace: 0xDEADBEEFCAFE}).(*Begin); got.Trace != 0xDEADBEEFCAFE {
		t.Fatalf("Begin.Trace = %#x", got.Trace)
	}
	if got := roundTrip(t, &BeginOK{Applied: 9, Trace: 1}).(*BeginOK); got.Trace != 1 || got.Applied != 9 {
		t.Fatalf("BeginOK = %+v", got)
	}
	cert := roundTrip(t, &Certify{Snapshot: 4, WS: ws, Trace: 1 << 63}).(*Certify)
	if cert.Trace != 1<<63 || cert.Snapshot != 4 || !wsEqual(cert.WS, ws) {
		t.Fatalf("Certify = %+v", cert)
	}
	recs := roundTrip(t, &Records{Recs: []Record{
		{Version: 10, WS: ws, Trace: 77, CommitNs: 1234567890},
		{Version: 11}, // zero meta must stay zero
	}}).(*Records)
	if recs.Recs[0].Trace != 77 || recs.Recs[0].CommitNs != 1234567890 {
		t.Fatalf("Records[0] meta = %+v", recs.Recs[0])
	}
	if recs.Recs[1].Trace != 0 || recs.Recs[1].CommitNs != 0 {
		t.Fatalf("Records[1] meta = %+v", recs.Recs[1])
	}
}

// FuzzTraceRecord fuzzes the Record trace metadata through a full
// encode/decode cycle.
func FuzzTraceRecord(f *testing.F) {
	f.Add(uint64(0), int64(0), int64(1), "item", int64(7), "v")
	f.Add(uint64(1), int64(-1), int64(1<<40), "", int64(-9), "")
	f.Add(^uint64(0), int64(1<<62), int64(2), "orders", int64(0), "long value \x00 with bytes")
	f.Fuzz(func(t *testing.T, trace uint64, commitNs, version int64, table string, row int64, value string) {
		ws := writeset.New([]writeset.Entry{
			{Key: writeset.Key{Table: table, Row: row}, Value: value},
		})
		rec := Record{Version: version, WS: ws, Trace: trace, CommitNs: commitNs}

		got := roundTrip(t, &Records{Recs: []Record{rec}}).(*Records)
		g := got.Recs[0]
		if g.Trace != trace || g.CommitNs != commitNs || g.Version != version || !wsEqual(g.WS, ws) {
			t.Fatalf("record mismatch: %+v vs %+v", g, rec)
		}
	})
}

// FuzzTraceBeginCertify fuzzes the scalar trace carriers.
func FuzzTraceBeginCertify(f *testing.F) {
	f.Add(uint64(0), int64(0), true)
	f.Add(^uint64(0), int64(-5), false)
	f.Add(uint64(1<<53), int64(1<<60), true)
	f.Fuzz(func(t *testing.T, trace uint64, snapshot int64, readOnly bool) {
		b := roundTrip(t, &Begin{ReadOnly: readOnly, Trace: trace}).(*Begin)
		if b.Trace != trace || b.ReadOnly != readOnly {
			t.Fatalf("Begin mismatch: %+v", b)
		}
		ok := roundTrip(t, &BeginOK{Applied: snapshot, Trace: trace}).(*BeginOK)
		if ok.Trace != trace || ok.Applied != snapshot {
			t.Fatalf("BeginOK mismatch: %+v", ok)
		}
		c := roundTrip(t, &Certify{Snapshot: snapshot, Trace: trace}).(*Certify)
		if c.Trace != trace || c.Snapshot != snapshot {
			t.Fatalf("Certify mismatch: %+v", c)
		}
	})
}
