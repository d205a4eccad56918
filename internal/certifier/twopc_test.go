package certifier

import (
	"hash/fnv"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/paxos"
)

func prep(id codec.TxnID, snapshot int64, keys ...int64) PreparedTxn {
	return PreparedTxn{ID: id, Snapshot: snapshot, Writeset: ws(keys...)}
}

// tid names a test transaction: the same name is always the same id.
func tid(name string) codec.TxnID {
	h := fnv.New64a()
	h.Write([]byte(name))
	return codec.TxnID{Epoch: 1, Seq: int64(h.Sum64() >> 1)}
}

// TestPrepareDecideCommit walks the happy path: a prepared fragment
// locks its keys against ordinary certification, the commit decision
// assigns the next global version and lands in the record log like
// any commit, and Forget clears the bookkeeping.
func TestPrepareDecideCommit(t *testing.T) {
	c := New()
	if out, _ := c.Certify(0, ws(1)); !out.Committed {
		t.Fatal("seed certify failed")
	}
	vote, _, err := c.Prepare(prep(tid("t1"), c.Version(), 10))
	if err != nil || !vote {
		t.Fatalf("prepare: vote=%v err=%v", vote, err)
	}
	// The lock blocks overlapping certification even at a current
	// snapshot — the prepared fragment holds a binding yes-vote.
	if out, _ := c.Certify(c.Version(), ws(10)); out.Committed {
		t.Fatal("certify committed past a prepared lock")
	}
	// Disjoint traffic is unaffected.
	if out, _ := c.Certify(c.Version(), ws(11)); !out.Committed {
		t.Fatal("disjoint certify blocked by unrelated lock")
	}
	want := c.Version() + 1
	ver, err := c.Decide(tid("t1"), true)
	if err != nil || ver != want {
		t.Fatalf("decide: version=%d err=%v, want %d", ver, err, want)
	}
	// Idempotent: a duplicate decide echoes the recorded outcome.
	if v2, err := c.Decide(tid("t1"), true); err != nil || v2 != ver {
		t.Fatalf("duplicate decide: %d %v", v2, err)
	}
	// A contradictory duplicate is an error, never a silent flip.
	if _, err := c.Decide(tid("t1"), false); err == nil {
		t.Fatal("contradictory decide accepted")
	}
	recs := c.Since(ver - 1)
	if len(recs) != 1 || recs[0].Version != ver || recs[0].Writeset.Entries[0].Key.Row != 10 {
		t.Fatalf("decided record not in log: %+v", recs)
	}
	// The lock is released: the key certifies again at the new version.
	if out, _ := c.Certify(c.Version(), ws(10)); !out.Committed {
		t.Fatal("lock survived the decision")
	}
	if len(c.InDoubt()) != 0 {
		t.Fatalf("in doubt after decide: %+v", c.InDoubt())
	}
	if err := c.Forget(tid("t1")); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Decided(tid("t1")); ok {
		t.Fatal("decision survived Forget")
	}
}

// TestPrepareConflicts pins the three no-vote cases: a stale snapshot
// against committed history, an overlap with another prepared
// fragment, and — for contrast — the idempotent duplicate that still
// votes yes.
func TestPrepareConflicts(t *testing.T) {
	c := New()
	c.Certify(0, ws(1))
	vote, with, err := c.Prepare(prep(tid("stale"), 0, 1))
	if err != nil || vote {
		t.Fatalf("stale prepare voted yes (err=%v)", err)
	}
	if with != 1 {
		t.Fatalf("conflict attributed to version %d, want 1", with)
	}
	if vote, _, _ := c.Prepare(prep(tid("a"), c.Version(), 5)); !vote {
		t.Fatal("clean prepare voted no")
	}
	if vote, _, _ := c.Prepare(prep(tid("b"), c.Version(), 5, 6)); vote {
		t.Fatal("overlapping prepare voted yes")
	}
	if vote, _, _ := c.Prepare(prep(tid("a"), c.Version(), 5)); !vote {
		t.Fatal("duplicate prepare flipped its vote")
	}
	// Abort releases the lock; the key is immediately certifiable.
	if ver, err := c.Decide(tid("a"), false); err != nil || ver != 0 {
		t.Fatalf("abort decide: %d %v", ver, err)
	}
	if out, _ := c.Certify(c.Version(), ws(5)); !out.Committed {
		t.Fatal("abort did not release the lock")
	}
	// Commit for a transaction never prepared here is an error.
	if _, err := c.Decide(tid("ghost"), true); err == nil {
		t.Fatal("commit decision for unknown txn accepted")
	}
}

// TestPresumedAbortResolve pins the recovery contract: a coordinator
// with no durable decision answers abort and WRITES THAT DOWN, so a
// delayed commit decision for the same transaction can never
// contradict the answer it already gave.
func TestPresumedAbortResolve(t *testing.T) {
	c := New()
	commit, err := c.Resolve(tid("ghost"))
	if err != nil || commit {
		t.Fatalf("resolve unknown: commit=%v err=%v", commit, err)
	}
	if d, ok := c.Decided(tid("ghost")); !ok || d.Commit {
		t.Fatalf("presumed abort not recorded: %+v ok=%v", d, ok)
	}
	if _, err := c.Decide(tid("ghost"), true); err == nil {
		t.Fatal("commit accepted after presumed abort was answered")
	}
	// Resolve echoes a recorded commit too.
	c.Certify(0, ws(1))
	c.Prepare(prep(tid("x"), c.Version(), 2))
	c.Decide(tid("x"), true)
	if commit, err := c.Resolve(tid("x")); err != nil || !commit {
		t.Fatalf("resolve decided commit: %v %v", commit, err)
	}
}

// TestPreparedLockBlocksBatch checks CertifyBatch honours prepared
// locks like the singleton path.
func TestPreparedLockBlocksBatch(t *testing.T) {
	c := New()
	c.Certify(0, ws(1))
	if vote, _, _ := c.Prepare(prep(tid("p"), c.Version(), 7)); !vote {
		t.Fatal("prepare voted no")
	}
	snap := c.Version()
	outs, err := c.CertifyBatch([]Request{
		{Snapshot: snap, Writeset: ws(7)},
		{Snapshot: snap, Writeset: ws(8)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].Outcome.Committed {
		t.Fatal("batch certified past a prepared lock")
	}
	if !outs[1].Outcome.Committed {
		t.Fatal("disjoint batch entry blocked")
	}
}

// TestReplicatedPrepareSurvivesPromote pins failover inheritance: a
// prepare proposed through Paxos must reappear — lock and all — on a
// backup promoted after the leader dies, and a decision recorded
// before the failover must be answerable by the new leader.
func TestReplicatedPrepareSurvivesPromote(t *testing.T) {
	accs := []*paxos.Acceptor{paxos.NewAcceptor(0), paxos.NewAcceptor(1), paxos.NewAcceptor(2)}
	tr := paxos.NewLocalTransport(accs...)
	a, _, err := Promote(0, []int{0, 1, 2}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if out, err := a.Certify(0, ws(1)); err != nil || !out.Committed {
		t.Fatalf("seed: %+v %v", out, err)
	}
	// One decided-abort txn and one still in doubt at failover time.
	if vote, _, err := a.Prepare(prep(tid("dead"), a.Version(), 40)); err != nil || !vote {
		t.Fatalf("prepare dead: %v %v", vote, err)
	}
	if _, err := a.Decide(tid("dead"), false); err != nil {
		t.Fatal(err)
	}
	if vote, _, err := a.Prepare(prep(tid("doubt"), a.Version(), 50)); err != nil || !vote {
		t.Fatalf("prepare doubt: %v %v", vote, err)
	}

	tr.SetDown(0, true)
	b, _, err := Promote(1, []int{0, 1, 2}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(b.InDoubt()); got != 1 || b.InDoubt()[0].ID != tid("doubt") {
		t.Fatalf("promoted in-doubt set: %+v", b.InDoubt())
	}
	if out, _ := b.Certify(b.Version(), ws(50)); out.Committed {
		t.Fatal("promoted leader certified past an inherited lock")
	}
	if commit, err := b.Resolve(tid("dead")); err != nil || commit {
		t.Fatalf("promoted leader lost the abort decision: %v %v", commit, err)
	}
	want := b.Version() + 1
	ver, err := b.Decide(tid("doubt"), true)
	if err != nil || ver != want {
		t.Fatalf("promoted decide: %d %v want %d", ver, err, want)
	}
	recs := b.Since(ver - 1)
	if len(recs) != 1 || recs[0].Writeset.Entries[0].Key.Row != 50 {
		t.Fatalf("decided record missing after failover: %+v", recs)
	}
}

// recordingTxnJournal captures 2PC journal traffic for assertion.
type recordingTxnJournal struct {
	seq      int64
	synced   int64
	syncErr  error
	prepares []PreparedTxn
	decides  []codec.TxnID
	forgets  []codec.TxnID
	appends  [][]Record
}

func (r *recordingTxnJournal) Append(recs []Record) (int64, error) {
	r.appends = append(r.appends, recs)
	r.seq++
	return r.seq, nil
}
func (r *recordingTxnJournal) Sync(seq int64) error {
	if r.syncErr != nil {
		return r.syncErr
	}
	if seq > r.synced {
		r.synced = seq
	}
	return nil
}
func (r *recordingTxnJournal) AppendPrepare(p PreparedTxn) (int64, error) {
	r.prepares = append(r.prepares, p)
	r.seq++
	return r.seq, nil
}
func (r *recordingTxnJournal) AppendDecision(txn codec.TxnID, commit bool, version int64, recs []Record, _ []codec.TxnID) (int64, error) {
	r.decides = append(r.decides, txn)
	if commit {
		r.appends = append(r.appends, recs)
	}
	r.seq++
	return r.seq, nil
}
func (r *recordingTxnJournal) AppendForget(txns []codec.TxnID) (int64, error) {
	r.forgets = append(r.forgets, txns...)
	r.seq++
	return r.seq, nil
}

// TestTwoPCJournaling asserts every 2PC transition is journaled and
// synced before it is acknowledged.
func TestTwoPCJournaling(t *testing.T) {
	j := &recordingTxnJournal{}
	c := journaled(t, j)
	if vote, _, err := c.Prepare(prep(tid("t"), 0, 3)); err != nil || !vote {
		t.Fatalf("prepare: %v %v", vote, err)
	}
	if len(j.prepares) != 1 || j.prepares[0].ID != tid("t") || j.synced != j.seq {
		t.Fatalf("prepare not journaled+synced: %+v synced=%d seq=%d", j.prepares, j.synced, j.seq)
	}
	ver, err := c.Decide(tid("t"), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(j.decides) != 1 || len(j.appends) != 1 || j.appends[0][0].Version != ver || j.synced != j.seq {
		t.Fatalf("decision not journaled with its record: decides=%v appends=%+v", j.decides, j.appends)
	}
	if err := c.Forget(tid("t")); err != nil {
		t.Fatal(err)
	}
	if len(j.forgets) != 1 || j.synced != j.seq {
		t.Fatalf("forget not journaled+synced: %v", j.forgets)
	}
}

// TestPrepareSyncFailureRefusesVote: an unreplicated certifier whose
// journal sync fails must NOT vote yes — the vote's durability is the
// whole point of the prepare.
func TestPrepareSyncFailureRefusesVote(t *testing.T) {
	j := &recordingTxnJournal{syncErr: errSyncFailed}
	c := journaled(t, j)
	vote, _, err := c.Prepare(prep(tid("t"), 0, 3))
	if vote {
		t.Fatal("voted yes on an undurable prepare")
	}
	if err == nil || !strings.Contains(err.Error(), "vote outcome unknown") {
		t.Fatalf("err = %v", err)
	}
}

var errSyncFailed = &syncError{}

type syncError struct{}

func (*syncError) Error() string { return "sync failed" }

// TestRestoreTwoPCRecommitsTornDecision pins the torn-tail recovery
// argument: the decision frame leads the record frames in one write,
// so recovery can find a commit decision whose record was lost. The
// decided version must equal recovered-version+1 (journal appends are
// version-ordered) and the fragment is re-committed from the prepared
// writeset at exactly that version.
func TestRestoreTwoPCRecommitsTornDecision(t *testing.T) {
	// Recovered history: versions 1..2; decision for "t" at version 3,
	// record torn off.
	base := []Record{
		{Version: 1, Writeset: ws(1)},
		{Version: 2, Writeset: ws(2)},
	}
	prepared := []PreparedTxn{prep(tid("t"), 2, 9)}
	decisions := map[codec.TxnID]TwoPCDecision{tid("t"): {Commit: true, Version: 3}}
	c, err := Restore(&Replay{Records: base, Prepared: prepared, Decisions: decisions}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Version() != 3 {
		t.Fatalf("version after re-commit = %d, want 3", c.Version())
	}
	recs := c.Since(2)
	if len(recs) != 1 || recs[0].Version != 3 || recs[0].Writeset.Entries[0].Key.Row != 9 {
		t.Fatalf("re-committed record: %+v", recs)
	}
	if len(c.InDoubt()) != 0 {
		t.Fatalf("re-committed txn still in doubt: %+v", c.InDoubt())
	}
	// A gap between the decision and the log is corruption, not a tear.
	bad := map[codec.TxnID]TwoPCDecision{tid("t"): {Commit: true, Version: 5}}
	if _, err := Restore(&Replay{Records: base, Prepared: prepared, Decisions: bad}, 0, nil); err == nil {
		t.Fatal("version gap accepted")
	}
}

// TestRestoreTwoPCInDoubt: an undecided prepare relocks its keys on
// recovery and stays queryable via InDoubt until resolved.
func TestRestoreTwoPCInDoubt(t *testing.T) {
	c, err := Restore(&Replay{
		Records:  []Record{{Version: 1, Writeset: ws(1)}},
		Prepared: []PreparedTxn{prep(tid("d"), 1, 4)},
	}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.InDoubt(); len(got) != 1 || got[0].ID != tid("d") {
		t.Fatalf("in doubt: %+v", got)
	}
	if out, _ := c.Certify(c.Version(), ws(4)); out.Committed {
		t.Fatal("certified past a recovered in-doubt lock")
	}
	// Resolution (here: abort) releases it.
	if _, err := c.Decide(tid("d"), false); err != nil {
		t.Fatal(err)
	}
	if out, _ := c.Certify(c.Version(), ws(4)); !out.Committed {
		t.Fatal("lock survived resolution")
	}
}

// TestPromoteForgetsRetiredDecisions: retirements travel in the Paxos
// log like the decisions they retire, so a backup promoted after 100
// prepare/decide/retire cycles inherits no in-doubt fragment and no
// decision — whether the cycle retired through Forget or in the
// decide's own value — and every decided record.
func TestPromoteForgetsRetiredDecisions(t *testing.T) {
	const cycles = 100
	ids := []int{0, 1, 2}
	c, tr, err := NewReplicated(3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range int64(cycles) {
		id := codec.TxnID{Epoch: 1, Seq: i + 1}
		if vote, _, err := c.Prepare(prep(id, c.Version(), i)); err != nil || !vote {
			t.Fatalf("cycle %d prepare: %v %v", i, vote, err)
		}
		if i%2 == 0 {
			if _, err := c.Decide(id, true); err != nil {
				t.Fatalf("cycle %d decide: %v", i, err)
			}
			if err := c.Forget(id); err != nil {
				t.Fatalf("cycle %d forget: %v", i, err)
			}
		} else if _, err := c.Decide(id, true, id); err != nil {
			t.Fatalf("cycle %d decide-and-retire: %v", i, err)
		}
	}
	p, _, err := Promote(1, ids, tr)
	if err != nil {
		t.Fatal(err)
	}
	if in := p.InDoubt(); len(in) != 0 {
		t.Fatalf("promoted backup holds %d in-doubt fragments", len(in))
	}
	for i := range int64(cycles) {
		if d, ok := p.Decided(codec.TxnID{Epoch: 1, Seq: i + 1}); ok {
			t.Fatalf("promoted backup resurrected cycle %d's decision %+v", i, d)
		}
	}
	if p.Version() != cycles || len(p.Since(0)) != cycles {
		t.Fatalf("promoted backup at version %d with %d records, want %d", p.Version(), len(p.Since(0)), cycles)
	}
}
