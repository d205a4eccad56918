package certifier

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/paxos"
	"repro/internal/writeset"
)

// binWS writes bytes that are not valid UTF-8, in a table name and in
// a value: a log format that is not binary-safe rewrites them.
func binWS(row int64) writeset.Writeset {
	return writeset.New([]writeset.Entry{
		{Key: writeset.Key{Table: "t\xfe", Row: row}, Value: "\xff\xfebin"},
	})
}

// TestLogIsBinarySafe commits binary values, and prepares and decides
// 2PC transactions with binary ids, through a replicated certifier,
// then rebuilds state from its Paxos log along every recovery path.
// Each must hand back the committed bytes, not a lossy re-encoding of
// them.
func TestLogIsBinarySafe(t *testing.T) {
	// Two ids whose encodings differ only in byte order.
	doubt, decided := codec.TxnID{Epoch: 1, Seq: 2}, codec.TxnID{Epoch: 2, Seq: 1}
	ids := []int{0, 1, 2}
	c, tr, err := NewReplicated(3)
	if err != nil {
		t.Fatal(err)
	}
	if out, err := c.Certify(0, binWS(1)); err != nil || !out.Committed {
		t.Fatalf("certify: %+v %v", out, err)
	}
	if _, err := c.CertifyBatch([]Request{
		{Snapshot: 1, Writeset: binWS(2)},
		{Snapshot: 1, Writeset: binWS(3)},
	}); err != nil {
		t.Fatal(err)
	}
	for _, p := range []PreparedTxn{
		{ID: doubt, Coord: 1, Snapshot: c.Version(), Writeset: binWS(10)},
		{ID: decided, Coord: 1, Snapshot: c.Version(), Writeset: binWS(11)},
	} {
		if vote, _, err := c.Prepare(p); err != nil || !vote {
			t.Fatalf("prepare %q: %v %v", p.ID, vote, err)
		}
	}
	if v, err := c.Decide(decided, true); err != nil || v != 4 {
		t.Fatalf("decide: %d %v", v, err)
	}
	want := c.Since(0)
	if len(want) != 4 {
		t.Fatalf("leader log holds %d records, want 4", len(want))
	}

	sameRecords := func(t *testing.T, r *Certifier) {
		t.Helper()
		if got := r.Since(0); !reflect.DeepEqual(got, want) {
			t.Fatalf("recovered records\n%q\nwant\n%q", got, want)
		}
	}
	sameTwoPC := func(t *testing.T, r *Certifier) {
		t.Helper()
		in := r.InDoubt()
		if len(in) != 1 || in[0].ID != doubt || !reflect.DeepEqual(in[0].Writeset, binWS(10)) {
			t.Fatalf("recovered in-doubt set %q, want %q", in, doubt)
		}
		if d, ok := r.Decided(decided); !ok || !d.Commit || d.Version != 4 {
			t.Fatalf("recovered decision for %q: %+v %v", decided, d, ok)
		}
	}

	t.Run("Recover", func(t *testing.T) {
		_, log, err := paxos.NewProposer(1, ids, tr).Campaign("noop")
		if err != nil {
			t.Fatal(err)
		}
		r, err := Recover(log)
		if err != nil {
			t.Fatal(err)
		}
		sameRecords(t, r)
		sameTwoPC(t, r)
	})
	t.Run("ReconcileLog", func(t *testing.T) {
		// Node 2 saw none of the traffic as leader: promoting it folds
		// the quorum log in, records and 2PC state alike.
		r, _, err := Promote(2, ids, tr)
		if err != nil {
			t.Fatal(err)
		}
		sameRecords(t, r)
		sameTwoPC(t, r)
	})
	t.Run("TwoPCRestore", func(t *testing.T) {
		r, _, err := Promote(1, ids, tr)
		if err != nil {
			t.Fatal(err)
		}
		sameTwoPC(t, r)
		sameRecords(t, r)
	})
	t.Run("Fold", func(t *testing.T) {
		// The value a leader proposes for version 4 of a binary writeset,
		// taken from a scratch certifier's log.
		s, _, err := NewReplicated(3)
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(1); i <= 4; i++ {
			w := ws(i)
			if i == 4 {
				w = binWS(100)
			}
			if _, err := s.Certify(s.Version(), w); err != nil {
				t.Fatal(err)
			}
		}
		stale, ok := s.proposer.Chosen(3)
		if !ok {
			t.Fatal("scratch certifier has no slot 3")
		}
		// Leader a certifies versions 1..3; its proposal for version 4
		// reaches its own acceptor and node 1's. The new leader b's
		// campaign recovers it through node 1, and Recover folds it in.
		accs := []*paxos.Acceptor{paxos.NewAcceptor(0), paxos.NewAcceptor(1), paxos.NewAcceptor(2)}
		ftr := paxos.NewLocalTransport(accs...)
		a, _, err := Promote(0, ids, ftr)
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(1); i <= 3; i++ {
			if _, err := a.Certify(i-1, ws(i)); err != nil {
				t.Fatal(err)
			}
		}
		for _, acc := range accs[:2] {
			if rep, err := acc.Accept(a.Epoch(), 3, stale); err != nil || !rep.OK {
				t.Fatalf("stale accept: %+v %v", rep, err)
			}
		}
		ftr.SetDown(0, true)
		b, _, err := Promote(1, ids, ftr)
		if err != nil {
			t.Fatal(err)
		}
		ftr.SetDown(0, false)
		if out, err := b.Certify(3, ws(200)); err != nil || out.Version != 5 {
			t.Fatalf("certify after fold: %+v %v", out, err)
		}
		recs := b.Since(3)
		if len(recs) != 2 || !reflect.DeepEqual(recs[0].Writeset, binWS(100)) {
			t.Fatalf("folded record %q, want %q", recs, binWS(100))
		}
	})
}

// TestOneEntryRecordIsSmall pins the size of the common Paxos value:
// one record writing one 40-byte value (its JSON encoding took 151
// bytes).
func TestOneEntryRecordIsSmall(t *testing.T) {
	v := batchValue(Record{Version: 1000, Writeset: writeset.New([]writeset.Entry{
		{Key: writeset.Key{Table: "order_line", Row: 4242}, Value: strings.Repeat("v", 40)},
	})})
	if len(v) > 80 {
		t.Fatalf("one-entry record encodes to %d bytes, want at most 80", len(v))
	}
}
