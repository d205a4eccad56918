package certifier

import (
	"testing"

	"repro/internal/paxos"
)

// foldScenario builds the divergence hazard the fold path exists for:
// leader A (node 0) certifies versions 1..3, then its in-flight
// proposal for version 4 reaches only its own acceptor (a deposal
// mid-accept). Node 0 is unreachable while node 1 campaigns, so the
// new leader recovers only slots 0..2 and has no idea slot 3 exists —
// until its own first proposal's phase 1 resurrects the stale value.
func foldScenario(t *testing.T) *Certifier {
	t.Helper()
	accs := []*paxos.Acceptor{paxos.NewAcceptor(0), paxos.NewAcceptor(1), paxos.NewAcceptor(2)}
	tr := paxos.NewLocalTransport(accs...)
	a := NewReplicatedOver(0, []int{0, 1, 2}, tr, true)
	for i := int64(1); i <= 3; i++ {
		if out, err := a.Certify(i-1, ws(i)); err != nil || !out.Committed {
			t.Fatalf("seed certify %d: %+v %v", i, out, err)
		}
	}
	staleWS := ws(100)
	staleWS.Entries[0].Value = "stale"
	stale := batchValue(Record{Version: 4, Writeset: staleWS})
	if rep, err := accs[0].Accept(a.Epoch(), 3, stale); err != nil || !rep.OK {
		t.Fatalf("stale accept: %+v %v", rep, err)
	}
	tr.SetDown(0, true)
	b, _, err := Promote(1, []int{0, 1, 2}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Version(); got != 3 {
		t.Fatalf("promoted at version %d, want 3 (slot 3 must be invisible)", got)
	}
	tr.SetDown(0, false)
	return b
}

// TestCertifyFoldsResurrectedProposal pins the fix for the
// divergence: when the new leader's proposal adopts the deposed
// leader's resurrected value, that value must be folded into the log
// at the version it embeds, and the leader's own record re-versioned
// behind it. Certifying around it would choose two different records
// with the same version — which record a replica applies would then
// depend on which leader it heard it from.
func TestCertifyFoldsResurrectedProposal(t *testing.T) {
	b := foldScenario(t)
	out, err := b.Certify(3, ws(200))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Committed || out.Version != 5 {
		t.Fatalf("certify after fold = %+v, want commit at version 5", out)
	}
	recs := b.Since(3)
	if len(recs) != 2 || recs[0].Version != 4 || recs[1].Version != 5 {
		t.Fatalf("folded log suffix: %+v", recs)
	}
	if recs[0].Writeset.Entries[0].Key.Row != 100 {
		t.Fatalf("version 4 is not the resurrected record: %+v", recs[0])
	}
	if recs[1].Writeset.Entries[0].Key.Row != 200 {
		t.Fatalf("version 5 is not the new leader's record: %+v", recs[1])
	}
}

// TestCertifyFoldConflictAborts: the folded record commits, and the
// new leader's own transaction must re-run the conflict check against
// it — here they write the same key, so the transaction aborts against
// the resurrected version 4 instead of committing a lost update.
func TestCertifyFoldConflictAborts(t *testing.T) {
	b := foldScenario(t)
	out, err := b.Certify(3, ws(100))
	if err != nil {
		t.Fatal(err)
	}
	if out.Committed || out.ConflictWith != 4 {
		t.Fatalf("want abort against folded version 4, got %+v", out)
	}
	if got := b.Version(); got != 4 {
		t.Fatalf("version %d after fold+abort, want 4", got)
	}
}

// TestCertifyBatchFoldsResurrectedProposal: the group-commit path
// re-stages the whole batch after a fold — versions shift by one and
// a request colliding with the resurrected record flips to an abort.
func TestCertifyBatchFoldsResurrectedProposal(t *testing.T) {
	b := foldScenario(t)
	results, err := b.CertifyBatch([]Request{
		{Snapshot: 3, Writeset: ws(200)},
		{Snapshot: 3, Writeset: ws(100)}, // collides with the resurrected record
	})
	if err != nil {
		t.Fatal(err)
	}
	if !results[0].Outcome.Committed || results[0].Outcome.Version != 5 {
		t.Fatalf("batch[0] = %+v, want commit at version 5", results[0].Outcome)
	}
	if results[1].Outcome.Committed || results[1].Outcome.ConflictWith != 4 {
		t.Fatalf("batch[1] = %+v, want abort against folded version 4", results[1].Outcome)
	}
	recs := b.Since(3)
	if len(recs) != 2 || recs[0].Version != 4 || recs[1].Version != 5 {
		t.Fatalf("folded log suffix: %+v", recs)
	}
}
