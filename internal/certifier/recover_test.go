package certifier

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/paxos"
)

// gateJournal is a Log whose Sync blocks until released (or fails
// with err), for observing the not-yet-durable window.
type gateJournal struct {
	seq      int64
	appended chan struct{}
	release  chan struct{}
	err      error
}

func (g *gateJournal) AppendFrames([]byte, int64) (int64, error) {
	g.seq++
	close(g.appended)
	return g.seq, nil
}

func (g *gateJournal) Sync(seq int64) error {
	<-g.release
	return g.err
}

// TestSinceWithholdsUndurableRecords pins the propagation/durability
// ordering: a certified record must not be served by Since until its
// journal sync completes — a peer must never replicate a commit a
// power loss could still erase from this certifier (the version would
// be reassigned on recovery and the peer would skip its replacement).
func TestSinceWithholdsUndurableRecords(t *testing.T) {
	g := &gateJournal{appended: make(chan struct{}), release: make(chan struct{})}
	c := journaled(t, g)
	done := make(chan Outcome, 1)
	go func() {
		out, err := c.Certify(0, ws(1))
		if err != nil {
			t.Error(err)
		}
		done <- out
	}()
	<-g.appended // staged in the journal, sync still pending
	if recs := c.Since(0); len(recs) != 0 {
		t.Fatalf("un-synced record served to peers: %+v", recs)
	}
	close(g.release)
	out := <-done
	if !out.Committed || out.Version != 1 {
		t.Fatalf("certify outcome %+v", out)
	}
	if recs := c.Since(0); len(recs) != 1 || recs[0].Version != 1 {
		t.Fatalf("durable record not served: %+v", recs)
	}
}

// TestSinceWithholdsAfterSyncFailure: a failed sync leaves the record
// in memory (the outcome is unknown) but permanently invisible to
// propagation, so the cluster converges on the durable prefix.
func TestSinceWithholdsAfterSyncFailure(t *testing.T) {
	g := &gateJournal{appended: make(chan struct{}), release: make(chan struct{}), err: errors.New("disk gone")}
	close(g.release)
	c := journaled(t, g)
	if _, err := c.Certify(0, ws(1)); err == nil {
		t.Fatal("certify acknowledged a commit whose sync failed")
	}
	if recs := c.Since(0); len(recs) != 0 {
		t.Fatalf("non-durable record served to peers: %+v", recs)
	}
}

// TestRecoverMixedBatchedAndSingleEntries closes the gap left by PR 1:
// a log interleaving group-committed batches and single entries must
// recover a certifier whose lowWater and Since are indistinguishable
// from one that never restarted.
func TestRecoverMixedBatchedAndSingleEntries(t *testing.T) {
	c, tr, err := NewReplicated(3)
	if err != nil {
		t.Fatal(err)
	}
	// Interleave: single, batch of 3 (with one intra-batch abort),
	// single, batch of 2, single — slots 0..4.
	if _, err := c.Certify(0, ws(1)); err != nil {
		t.Fatal(err)
	}
	results, err := c.CertifyBatch([]Request{
		{Snapshot: 1, Writeset: ws(2)},
		{Snapshot: 0, Writeset: ws(1)}, // conflicts with version 1
		{Snapshot: 1, Writeset: ws(3)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if results[1].Outcome.Committed {
		t.Fatal("intra-batch conflict committed")
	}
	if _, err := c.Certify(c.Version(), ws(4)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CertifyBatch([]Request{
		{Snapshot: c.Version(), Writeset: ws(5)},
		{Snapshot: c.Version(), Writeset: ws(6)},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Certify(c.Version(), ws(7, 8)); err != nil {
		t.Fatal(err)
	}

	p1 := paxos.NewProposer(1, []int{0, 1, 2}, tr)
	_, log, err := p1.Campaign("noop")
	if err != nil {
		t.Fatal(err)
	}
	r, err := Recover(log)
	if err != nil {
		t.Fatal(err)
	}

	if got, want := r.Version(), c.Version(); got != want {
		t.Fatalf("recovered version %d, original %d", got, want)
	}
	if got, want := r.LogLen(), c.LogLen(); got != want {
		t.Fatalf("recovered log length %d, original %d", got, want)
	}
	if got, want := r.LowWater(), c.LowWater(); got != want {
		t.Fatalf("recovered lowWater %d, original %d", got, want)
	}
	// Since must agree at every cursor position, batched entries
	// flattened back into their individual records.
	for v := int64(0); v <= c.Version(); v++ {
		got, want := r.Since(v), c.Since(v)
		if len(got) != len(want) {
			t.Fatalf("Since(%d): %d records recovered, %d original", v, len(got), len(want))
		}
		for i := range got {
			if got[i].Version != want[i].Version ||
				!reflect.DeepEqual(got[i].Writeset.Entries, want[i].Writeset.Entries) {
				t.Fatalf("Since(%d)[%d]: %+v vs %+v", v, i, got[i], want[i])
			}
		}
	}
	// Identical conflict decisions over every key and snapshot.
	for key := int64(1); key <= 8; key++ {
		for snap := int64(0); snap <= c.Version(); snap++ {
			gc, gv := r.Check(snap, ws(key))
			oc, ov := c.Check(snap, ws(key))
			if gc != oc || gv != ov {
				t.Fatalf("Check(key %d, snap %d): recovered (%v,%d), original (%v,%d)",
					key, snap, gc, gv, oc, ov)
			}
		}
	}
}

// TestRecoverMixedLogWithCompactedPrefix drives the same comparison
// when the early slots were compacted to no-ops: the recovered
// lowWater must equal that of a never-restarted certifier GC'd to the
// same horizon, and Since must agree over the retained suffix.
func TestRecoverMixedLogWithCompactedPrefix(t *testing.T) {
	// Never-restarted reference: versions 1..6 certified (batch 1-3,
	// singles 4 and 5, batch 6), then GC'd up to version 3.
	ref := New()
	if _, err := ref.CertifyBatch([]Request{
		{Snapshot: 0, Writeset: ws(1)},
		{Snapshot: 0, Writeset: ws(2)},
		{Snapshot: 0, Writeset: ws(3)},
	}); err != nil {
		t.Fatal(err)
	}
	for v := int64(4); v <= 5; v++ {
		if _, err := ref.Certify(ref.Version(), ws(v)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ref.CertifyBatch([]Request{{Snapshot: 5, Writeset: ws(6)}}); err != nil {
		t.Fatal(err)
	}
	ref.GC(3)

	// The compacted log a backup would recover: no-op slots for the
	// pruned batch, then one-record batches.
	log := map[int]paxos.Value{
		0: "noop",
		1: batchValue(Record{Version: 4, Writeset: ws(4)}),
		2: batchValue(Record{Version: 5, Writeset: ws(5)}),
		3: batchValue(Record{Version: 6, Writeset: ws(6)}),
	}

	r, err := Recover(log)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := r.LowWater(), ref.LowWater(); got != want {
		t.Fatalf("recovered lowWater %d, reference %d", got, want)
	}
	for v := int64(3); v <= 6; v++ {
		got, want := r.Since(v), ref.Since(v)
		if len(got) != len(want) {
			t.Fatalf("Since(%d): %d vs %d records", v, len(got), len(want))
		}
		for i := range got {
			if got[i].Version != want[i].Version {
				t.Fatalf("Since(%d)[%d]: version %d vs %d", v, i, got[i].Version, want[i].Version)
			}
		}
	}
	// Both abort pre-horizon snapshots the same way.
	preR, errR := r.Certify(2, ws(99))
	preRef, errRef := ref.Certify(2, ws(99))
	if preR != preRef || errR != nil || errRef != nil {
		t.Fatalf("pre-horizon verdict differs: recovered %+v/%v, reference %+v/%v", preR, errR, preRef, errRef)
	}
	if preR.Committed {
		t.Fatal("pre-horizon snapshot accepted")
	}
	// And both accept an at-horizon snapshot with the same next version.
	outR, err := r.Certify(3, ws(99))
	if err != nil || !outR.Committed {
		t.Fatalf("recovered at-horizon certify: %+v %v", outR, err)
	}
	outRef, err := ref.Certify(3, ws(99))
	if err != nil || !outRef.Committed || outRef.Version != outR.Version {
		t.Fatalf("reference at-horizon certify: %+v vs %+v (%v)", outRef, outR, err)
	}
}
