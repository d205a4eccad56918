package certifier

import (
	"testing"

	"repro/internal/paxos"
)

// staleVoteScenario builds the hazard a leader change leaves behind:
// leader A (node 0) certifies versions 1..3, then its in-flight
// proposal for version 4 reaches its own acceptor and, with held, node
// 1's too, before it is deposed. Node 0 is unreachable while node 1
// campaigns, so the campaign sees the vote only when node 1 holds it.
// Node 0 is reachable again once B leads.
func staleVoteScenario(t *testing.T, held bool) *Certifier {
	t.Helper()
	accs := []*paxos.Acceptor{paxos.NewAcceptor(0), paxos.NewAcceptor(1), paxos.NewAcceptor(2)}
	tr := paxos.NewLocalTransport(accs...)
	a, _, err := Promote(0, []int{0, 1, 2}, tr)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 3; i++ {
		if out, err := a.Certify(i-1, ws(i)); err != nil || !out.Committed {
			t.Fatalf("seed certify %d: %+v %v", i, out, err)
		}
	}
	staleWS := ws(100)
	staleWS.Entries[0].Value = "stale"
	stale := batchValue(Record{Version: 4, Writeset: staleWS})
	holders := accs[:1]
	if held {
		holders = accs[:2]
	}
	for _, acc := range holders {
		if rep, err := acc.Accept(proposerOf(a).CurrentBallot(), 3, stale); err != nil || !rep.OK {
			t.Fatalf("stale accept: %+v %v", rep, err)
		}
	}
	tr.SetDown(0, true)
	b, _, err := Promote(1, []int{0, 1, 2}, tr)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(3)
	if held {
		want = 4
	}
	if got := b.Version(); got != want {
		t.Fatalf("promoted at version %d, want %d", got, want)
	}
	tr.SetDown(0, false)
	return b
}

// TestCertifyOverwritesUnrecoveredVote: a vote only the severed
// acceptor held was never chosen, and the new leader's phase 2 at its
// higher ballot takes the slot. Version 4 is the new leader's record;
// the stale one is never adopted.
func TestCertifyOverwritesUnrecoveredVote(t *testing.T) {
	b := staleVoteScenario(t, false)
	out, err := b.Certify(3, ws(200))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Committed || out.Version != 4 {
		t.Fatalf("certify = %+v, want commit at version 4", out)
	}
	recs := b.Since(3)
	if len(recs) != 1 || recs[0].Writeset.Entries[0].Key.Row != 200 {
		t.Fatalf("log suffix %+v, want only the new leader's record", recs)
	}
	v, _ := proposerOf(b).Chosen(3)
	if chosen, err := decodeValue(v); err != nil || len(chosen) != 1 || chosen[0].Writeset.Entries[0].Key.Row != 200 {
		t.Fatalf("slot 3 holds %+v (%v), not the new leader's record", chosen, err)
	}
}

// TestUnrecoveredVoteCannotConflict: the new leader's transaction
// writes the key of the unrecovered vote and commits at version 4 — a
// vote that was never chosen conflicts with nothing.
func TestUnrecoveredVoteCannotConflict(t *testing.T) {
	b := staleVoteScenario(t, false)
	out, err := b.Certify(3, ws(100))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Committed || out.Version != 4 {
		t.Fatalf("certify = %+v, want commit at version 4", out)
	}
	if v := b.Since(3)[0].Writeset.Entries[0].Value; v == "stale" {
		t.Fatal("version 4 holds the stale value")
	}
}

// TestCertifyBatchOverwritesUnrecoveredVote: the group-commit path
// takes the slot the same way, at versions 4 and 5.
func TestCertifyBatchOverwritesUnrecoveredVote(t *testing.T) {
	b := staleVoteScenario(t, false)
	results, err := b.CertifyBatch([]Request{
		{Snapshot: 3, Writeset: ws(200)},
		{Snapshot: 3, Writeset: ws(100)},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int64{4, 5} {
		if !results[i].Outcome.Committed || results[i].Outcome.Version != want {
			t.Fatalf("batch[%d] = %+v, want commit at version %d", i, results[i].Outcome, want)
		}
	}
}

// TestCertifyAfterRecoveredVote: a vote a campaign majority member
// held is recovered by the campaign, at the version it embeds, and the
// new leader certifies behind it. Certifying around it would choose
// two different records with the same version.
func TestCertifyAfterRecoveredVote(t *testing.T) {
	b := staleVoteScenario(t, true)
	out, err := b.Certify(3, ws(200))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Committed || out.Version != 5 {
		t.Fatalf("certify after recovery = %+v, want commit at version 5", out)
	}
	recs := b.Since(3)
	if len(recs) != 2 || recs[0].Version != 4 || recs[1].Version != 5 {
		t.Fatalf("log suffix: %+v", recs)
	}
	if recs[0].Writeset.Entries[0].Key.Row != 100 {
		t.Fatalf("version 4 is not the recovered record: %+v", recs[0])
	}
	if recs[1].Writeset.Entries[0].Key.Row != 200 {
		t.Fatalf("version 5 is not the new leader's record: %+v", recs[1])
	}
}

// TestRecoveredVoteConflictAborts: the recovered record is committed,
// so a transaction writing its key from an older snapshot aborts
// against version 4 instead of committing a lost update.
func TestRecoveredVoteConflictAborts(t *testing.T) {
	b := staleVoteScenario(t, true)
	out, err := b.Certify(3, ws(100))
	if err != nil {
		t.Fatal(err)
	}
	if out.Committed || out.ConflictWith != 4 {
		t.Fatalf("want abort against recovered version 4, got %+v", out)
	}
	if got := b.Version(); got != 4 {
		t.Fatalf("version %d after the abort, want 4", got)
	}
}

// TestCertifyBatchAfterRecoveredVote: in a batch behind a recovered
// record, a disjoint request commits at version 5 and one colliding
// with the record aborts.
func TestCertifyBatchAfterRecoveredVote(t *testing.T) {
	b := staleVoteScenario(t, true)
	results, err := b.CertifyBatch([]Request{
		{Snapshot: 3, Writeset: ws(200)},
		{Snapshot: 3, Writeset: ws(100)}, // collides with the recovered record
	})
	if err != nil {
		t.Fatal(err)
	}
	if !results[0].Outcome.Committed || results[0].Outcome.Version != 5 {
		t.Fatalf("batch[0] = %+v, want commit at version 5", results[0].Outcome)
	}
	if results[1].Outcome.Committed || results[1].Outcome.ConflictWith != 4 {
		t.Fatalf("batch[1] = %+v, want abort against recovered version 4", results[1].Outcome)
	}
	recs := b.Since(3)
	if len(recs) != 2 || recs[0].Version != 4 || recs[1].Version != 5 {
		t.Fatalf("log suffix: %+v", recs)
	}
}
