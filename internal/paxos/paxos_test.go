package paxos

import (
	"errors"
	"fmt"
	"maps"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

// cluster builds n acceptors wired by a LocalTransport.
func cluster(n int) ([]*Acceptor, []int, *LocalTransport) {
	var accs []*Acceptor
	var ids []int
	for i := 0; i < n; i++ {
		accs = append(accs, NewAcceptor(i))
		ids = append(ids, i)
	}
	return accs, ids, NewLocalTransport(accs...)
}

// lead campaigns p into a term, failing the test if it loses.
func lead(t *testing.T, p *Proposer) {
	t.Helper()
	if _, _, err := p.Campaign("noop"); err != nil {
		t.Fatalf("proposer %d campaign: %v", p.id, err)
	}
}

// propose offers v through p, campaigning whenever p does not lead — it
// has not campaigned yet, or a rival deposed it — as a replicated
// service does on taking over.
func propose(p *Proposer, v Value) (int, error) {
	for range 1000 {
		slot, err := p.Propose(v)
		var dep DeposedError
		if !errors.As(err, &dep) && !errors.Is(err, ErrNotLeader) {
			return slot, err
		}
		if _, _, err := p.Campaign("noop"); err != nil {
			return 0, err
		}
	}
	return 0, fmt.Errorf("proposer %d starved", p.id)
}

func TestBallotOrdering(t *testing.T) {
	a := Ballot{Round: 1, Proposer: 0}
	b := Ballot{Round: 1, Proposer: 1}
	c := Ballot{Round: 2, Proposer: 0}
	if !a.Less(b) || !b.Less(c) || c.Less(a) {
		t.Fatal("ballot ordering broken")
	}
	if a.Less(a) {
		t.Fatal("ballot less than itself")
	}
	if a.String() != "1.0" {
		t.Fatalf("String = %q", a.String())
	}
}

func TestSingleProposerDecides(t *testing.T) {
	_, ids, tr := cluster(3)
	p := NewProposer(0, ids, tr)
	lead(t, p)
	for i := 0; i < 10; i++ {
		v := Value(fmt.Sprintf("cmd-%d", i))
		slot, err := p.Propose(v)
		if err != nil {
			t.Fatal(err)
		}
		if slot != i {
			t.Fatalf("value %d landed in slot %d", i, slot)
		}
		got, ok := p.Chosen(slot)
		if !ok || got != v {
			t.Fatalf("slot %d: chosen %q %v", slot, got, ok)
		}
	}
}

func TestAcceptorPromiseBlocksOldBallots(t *testing.T) {
	a := NewAcceptor(0)
	high := Ballot{Round: 5, Proposer: 1}
	low := Ballot{Round: 3, Proposer: 0}
	if rep, err := a.Prepare(high, 0); err != nil || !rep.OK {
		t.Fatal("first prepare rejected")
	}
	if rep, err := a.Prepare(low, 0); err != nil || rep.OK || rep.Promised != high {
		t.Fatal("old ballot prepared after newer promise, or its rejection hid the promise")
	}
	if rep, err := a.Accept(low, 0, "x"); err != nil || rep.OK {
		t.Fatal("old ballot accepted after newer promise")
	}
	if rep, err := a.Accept(high, 0, "y"); err != nil || !rep.OK {
		t.Fatal("promised ballot rejected at accept")
	}
}

func TestPrepareReturnsAcceptedValue(t *testing.T) {
	a := NewAcceptor(0)
	b1 := Ballot{Round: 1, Proposer: 0}
	a.Prepare(b1, 3)
	a.Accept(b1, 3, "first")
	b2 := Ballot{Round: 2, Proposer: 1}
	rep, err := a.Prepare(b2, 3)
	if err != nil || !rep.OK || len(rep.Votes) != 1 || rep.Votes[0] != (Vote{Slot: 3, Ballot: b1, Value: "first"}) {
		t.Fatalf("prepare did not surface accepted value: %+v (%v)", rep, err)
	}
	if rep, _ := a.Prepare(b2, 4); len(rep.Votes) != 0 || rep.More {
		t.Fatalf("prepare from slot 4 returned votes below it: %+v", rep)
	}
}

func TestValueSurvivesLeaderChange(t *testing.T) {
	// Leader 0 decides slots 0..4, then dies. Leader 1 recovers and
	// must observe exactly the same log.
	_, ids, tr := cluster(3)
	p0 := NewProposer(0, ids, tr)
	lead(t, p0)
	want := map[int]Value{}
	for i := 0; i < 5; i++ {
		v := Value(fmt.Sprintf("v%d", i))
		slot, err := p0.Propose(v)
		if err != nil {
			t.Fatal(err)
		}
		want[slot] = v
	}
	tr.SetDown(0, true) // old leader unreachable

	p1 := NewProposer(1, ids, tr)
	_, log, err := p1.Campaign("noop")
	if err != nil {
		t.Fatal(err)
	}
	for slot, v := range want {
		if log[slot] != v {
			t.Fatalf("slot %d: recovered %q, want %q", slot, log[slot], v)
		}
	}
}

// TestNoMajorityFails: a phase 2 that misses its majority fails, and
// it ends the term: no ballot deposed it, and the proposer refuses the
// next proposal until it campaigns again.
func TestNoMajorityFails(t *testing.T) {
	_, ids, tr := cluster(3)
	p := NewProposer(0, ids, tr)
	lead(t, p)
	tr.SetDown(1, true)
	tr.SetDown(2, true)
	if _, err := p.Propose("x"); !errors.Is(err, ErrNoMajority) {
		t.Fatalf("expected ErrNoMajority, got %v", err)
	}
	if by, ended := p.TermEnded(); !ended || by != (Ballot{}) {
		t.Fatalf("after a missed majority TermEnded = %s, %v; want the term ended with no deposing ballot", by, ended)
	}
	if _, err := p.Propose("y"); !errors.Is(err, ErrNotLeader) {
		t.Fatalf("proposal after the term ended: %v, want ErrNotLeader", err)
	}
}

func TestMinoritySeveredStillDecides(t *testing.T) {
	_, ids, tr := cluster(3)
	tr.SetDown(2, true)
	p := NewProposer(0, ids, tr)
	lead(t, p)
	slot, err := p.Propose("survives")
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := p.Chosen(slot); !ok || v != "survives" {
		t.Fatalf("chosen = %q %v", v, ok)
	}
}

func TestCompetingProposersAgree(t *testing.T) {
	// Two proposers interleave proposals, each deposing the other by
	// campaigning; for every slot both must observe the same decided
	// value (the fundamental safety property).
	_, ids, tr := cluster(3)
	p0 := NewProposer(0, ids, tr)
	p1 := NewProposer(1, ids, tr)
	for i := 0; i < 10; i++ {
		if _, err := propose(p0, Value(fmt.Sprintf("a%d", i))); err != nil {
			t.Fatal(err)
		}
		if _, err := propose(p1, Value(fmt.Sprintf("b%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Compare overlapping views.
	for slot := 0; slot < 20; slot++ {
		v0, ok0 := p0.Chosen(slot)
		v1, ok1 := p1.Chosen(slot)
		if ok0 && ok1 && v0 != v1 {
			t.Fatalf("slot %d: divergent decisions %q vs %q", slot, v0, v1)
		}
	}
}

func TestConcurrentProposersSafety(t *testing.T) {
	// Hammer the cluster from several goroutines, each proposer
	// campaigning whenever another deposed it. Afterwards every slot
	// with a majority-accepted value must be consistent across the
	// proposers' chosen maps. A ballot embeds its proposer's id, so
	// each proposer has an id of its own.
	_, ids, tr := cluster(3)
	const workers = 4
	const perWorker = 15
	proposers := make([]*Proposer, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		proposers[w] = NewProposer(w, ids, tr)
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				_, err := propose(proposers[w], Value(fmt.Sprintf("w%d-%d", w, i)))
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	// Cross-check all proposers agree wherever their knowledge
	// overlaps.
	maxSlot := 0
	for _, p := range proposers {
		if n := p.ChosenCount(); n > maxSlot {
			maxSlot = n
		}
	}
	for slot := 0; slot < maxSlot; slot++ {
		var seen *Value
		for _, p := range proposers {
			if v, ok := p.Chosen(slot); ok {
				if seen != nil && *seen != v {
					t.Fatalf("slot %d: %q vs %q", slot, *seen, v)
				}
				val := v
				seen = &val
			}
		}
	}
}

func TestRecoverIdempotent(t *testing.T) {
	_, ids, tr := cluster(3)
	p := NewProposer(0, ids, tr)
	lead(t, p)
	p.Propose("a")
	p.Propose("b")
	_, log1, err := p.Campaign("noop")
	if err != nil {
		t.Fatal(err)
	}
	_, log2, err := p.Campaign("noop")
	if err != nil {
		t.Fatal(err)
	}
	if len(log1) != len(log2) {
		t.Fatalf("recover changed log size: %d vs %d", len(log1), len(log2))
	}
	for s, v := range log1 {
		if log2[s] != v {
			t.Fatalf("slot %d changed across recovers", s)
		}
	}
}

func TestUnknownNodeUnreachable(t *testing.T) {
	_, _, tr := cluster(1)
	if _, err := tr.Prepare(99, Ballot{}, 0); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("unknown node: %v", err)
	}
	if _, err := tr.Accept(99, Ballot{}, 0, "x"); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("unknown node: %v", err)
	}
}

func TestNodeRestore(t *testing.T) {
	_, ids, tr := cluster(3)
	tr.SetDown(2, true)
	tr.SetDown(2, false)
	p := NewProposer(0, ids, tr)
	lead(t, p)
	if _, err := p.Propose("x"); err != nil {
		t.Fatal(err)
	}
}

func TestProposerContentionSameSlot(t *testing.T) {
	// Two fresh proposers both target slot 0. Exactly one value wins
	// the slot, and the loser's campaign learns the winner's value
	// before it lands its own in a later slot — the convergence the
	// election path depends on.
	_, ids, tr := cluster(3)
	p0 := NewProposer(0, ids, tr)
	p1 := NewProposer(1, ids, tr)
	s0, err := propose(p0, "winner")
	if err != nil {
		t.Fatal(err)
	}
	if s0 != 0 {
		t.Fatalf("first proposal landed in slot %d", s0)
	}
	s1, err := propose(p1, "loser")
	if err != nil {
		t.Fatal(err)
	}
	if s1 == 0 {
		t.Fatal("second proposer stole a decided slot")
	}
	v, ok := p1.Chosen(0)
	if !ok || v != "winner" {
		t.Fatalf("loser observed %q %v for slot 0, want the winner's value", v, ok)
	}
	if v, ok := p1.Chosen(s1); !ok || v != "loser" {
		t.Fatalf("loser's value not chosen in slot %d: %q %v", s1, v, ok)
	}
	// Both proposers agree on every overlapping slot.
	for slot := 0; slot <= s1; slot++ {
		v0, ok0 := p0.Chosen(slot)
		v1, ok1 := p1.Chosen(slot)
		if ok0 && ok1 && v0 != v1 {
			t.Fatalf("slot %d: divergent decisions %q vs %q", slot, v0, v1)
		}
	}
}

func TestCampaignElectsAndRecovers(t *testing.T) {
	// Leader 0 decides a prefix and dies; 1 campaigns and must learn
	// the full log under a strictly higher ballot.
	_, ids, tr := cluster(3)
	p0 := NewProposer(0, ids, tr)
	lead(t, p0)
	want := map[int]Value{}
	for i := 0; i < 5; i++ {
		v := Value(fmt.Sprintf("v%d", i))
		slot, err := p0.Propose(v)
		if err != nil {
			t.Fatal(err)
		}
		want[slot] = v
	}
	tr.SetDown(0, true)

	p1 := NewProposer(1, ids, tr)
	epoch, log, err := p1.Campaign("noop")
	if err != nil {
		t.Fatal(err)
	}
	if !p0.CurrentBallot().Less(epoch) {
		t.Fatalf("new epoch %s does not outbid old leader's %s", epoch, p0.CurrentBallot())
	}
	if epoch.Proposer != 1 {
		t.Fatalf("epoch proposer = %d, want 1", epoch.Proposer)
	}
	for slot, v := range want {
		if log[slot] != v {
			t.Fatalf("slot %d: campaigned log has %q, want %q", slot, log[slot], v)
		}
	}
	// The new leader keeps committing.
	if _, err := p1.Propose("after-failover"); err != nil {
		t.Fatal(err)
	}
}

func TestFencedLeaderDeposedCannotAck(t *testing.T) {
	// A leader preempted by a campaign must fail with DeposedError —
	// never outbid its way back to acking.
	_, ids, tr := cluster(3)
	p0 := NewProposer(0, ids, tr)
	lead(t, p0)
	if _, err := p0.Propose("pre"); err != nil {
		t.Fatal(err)
	}
	p1 := NewProposer(1, ids, tr)
	epoch, _, err := p1.Campaign("noop")
	if err != nil {
		t.Fatal(err)
	}
	_, err = p0.Propose("stale")
	var dep DeposedError
	if !errors.As(err, &dep) {
		t.Fatalf("deposed leader proposed: err = %v", err)
	}
	if dep.By.Less(epoch) && dep.By != epoch {
		t.Fatalf("deposed by %s, want at least %s", dep.By, epoch)
	}
	// And it stays deposed on retry.
	if _, err := p0.Propose("still-stale"); !errors.As(err, &dep) {
		t.Fatalf("second propose after deposal: err = %v", err)
	}
	// Re-campaigning is the only way back.
	if _, _, err := p0.Campaign("noop"); err != nil {
		t.Fatal(err)
	}
	if _, err := p0.Propose("back"); err != nil {
		t.Fatal(err)
	}
}

func TestCampaignNeedsMajority(t *testing.T) {
	_, ids, tr := cluster(3)
	tr.SetDown(1, true)
	tr.SetDown(2, true)
	p := NewProposer(0, ids, tr)
	if _, _, err := p.Campaign("noop"); !errors.Is(err, ErrNoMajority) {
		t.Fatalf("campaign without majority: %v", err)
	}
}

// TestPrepareReportsStatus: a prepare tells a campaign what an
// election needs — a promise's votes end at the highest voted slot,
// and a rejection carries the promise to outbid, which a prepare must
// pass in round, not only in proposer id.
func TestPrepareReportsStatus(t *testing.T) {
	_, ids, tr := cluster(3)
	p := NewProposer(0, ids, tr)
	lead(t, p)
	p.Propose("a")
	p.Propose("b")
	rep, err := tr.Prepare(1, p.CurrentBallot(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK || rep.More || len(rep.Votes) != 2 || rep.Votes[1].Slot != 1 {
		t.Fatalf("prepare at the leader's ballot = %+v, want the votes at slots 0 and 1", rep)
	}
	rep, err = tr.Prepare(1, Ballot{Round: p.CurrentBallot().Round, Proposer: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK || rep.Promised != p.CurrentBallot() || len(rep.Votes) != 0 {
		t.Fatalf("stale prepare = %+v, want a rejection carrying %s and no votes", rep, p.CurrentBallot())
	}
	if _, err := tr.Prepare(99, Ballot{}, 0); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("unknown node: %v", err)
	}
}

// failPersister fails every save after a budget of successes.
type failPersister struct {
	budget int
}

func (f *failPersister) SavePromise(Ballot) error { return f.save() }
func (f *failPersister) SaveAccept(int, Ballot, Value) error {
	return f.save()
}
func (f *failPersister) save() error {
	if f.budget > 0 {
		f.budget--
		return nil
	}
	return errors.New("disk gone")
}

func TestPersistFailureAbortsReply(t *testing.T) {
	// A persist failure must surface as an error and leave the
	// in-memory acceptor unchanged — the promise was never made.
	a := RestoreAcceptor(0, &failPersister{budget: 0}, Ballot{}, nil)
	b := Ballot{Round: 3, Proposer: 1}
	if _, err := a.Prepare(b, 0); err == nil {
		t.Fatal("prepare succeeded despite persist failure")
	}
	if promised := a.Promised(); promised != (Ballot{}) {
		t.Fatalf("promise leaked into memory: %s", promised)
	}
	if _, err := a.Accept(b, 0, "x"); err == nil {
		t.Fatal("accept succeeded despite persist failure")
	}
	if a.top != -1 || len(a.slots) != 0 {
		t.Fatal("vote leaked into memory")
	}
}

func TestRestoreAcceptorHonorsPromises(t *testing.T) {
	// An acceptor restored from persisted state must still reject
	// ballots below its old promise, and accepting implies promising.
	slots := map[int]AcceptedSlot{
		0: {Ballot: Ballot{Round: 4, Proposer: 2}, Value: "kept"},
	}
	a := RestoreAcceptor(0, &failPersister{budget: 100}, Ballot{Round: 2, Proposer: 0}, slots)
	if rep, err := a.Prepare(Ballot{Round: 3, Proposer: 0}, 0); err != nil || rep.OK {
		t.Fatalf("ballot below restored accept-implied promise got through: %+v (%v)", rep, err)
	}
	rep, err := a.Prepare(Ballot{Round: 5, Proposer: 1}, 0)
	if err != nil || !rep.OK {
		t.Fatalf("prepare above restored promise failed: %+v (%v)", rep, err)
	}
	if len(rep.Votes) != 1 || rep.Votes[0].Value != "kept" {
		t.Fatalf("restored vote not surfaced: %+v", rep)
	}
}

func TestQuickProposeSequenceIsDense(t *testing.T) {
	// Property: proposing k values in sequence from one proposer fills
	// slots 0..k-1 with exactly those values in order.
	f := func(n uint8) bool {
		k := int(n%20) + 1
		_, ids, tr := cluster(3)
		p := NewProposer(0, ids, tr)
		if _, _, err := p.Campaign("noop"); err != nil {
			return false
		}
		for i := 0; i < k; i++ {
			slot, err := p.Propose(Value(fmt.Sprintf("%d", i)))
			if err != nil || slot != i {
				return false
			}
		}
		for i := 0; i < k; i++ {
			v, ok := p.Chosen(i)
			if !ok || v != Value(fmt.Sprintf("%d", i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// countingTransport counts the prepares a proposer sends, those that
// won a promise, and the accepts it sends.
type countingTransport struct {
	Transport
	prepares, promises, accepts int
}

func (c *countingTransport) Accept(to int, b Ballot, slot int, v Value) (AcceptReply, error) {
	c.accepts++
	return c.Transport.Accept(to, b, slot, v)
}

func (c *countingTransport) Prepare(to int, b Ballot, from int) (PrepareReply, error) {
	c.prepares++
	rep, err := c.Transport.Prepare(to, b, from)
	if rep.OK {
		c.promises++
	}
	return rep, err
}

// TestCampaignPagesThroughLongLog: a log longer than one prepare reply
// is read in pages. Each vote is a quarter of the budget, so a page
// holds four, and nine votes take three rounds of promises, after the
// one round the old leader's promise rejects; every value is recovered
// at its slot.
func TestCampaignPagesThroughLongLog(t *testing.T) {
	const votes, perPage = 9, 4
	_, ids, tr := cluster(3)
	p0 := NewProposer(0, ids, tr)
	lead(t, p0)
	want := make([]Value, votes)
	for i := range want {
		want[i] = Value(fmt.Sprintf("%d:", i) + strings.Repeat("v", prepareBudget/perPage-voteOverhead-3))
		if _, err := p0.Propose(want[i]); err != nil {
			t.Fatal(err)
		}
	}
	ct := &countingTransport{Transport: tr}
	_, log, err := NewProposer(1, ids, ct).Campaign("noop")
	if err != nil {
		t.Fatal(err)
	}
	pages := (votes + perPage - 1) / perPage
	if rounds := ct.promises / len(ids); rounds != pages || ct.prepares != len(ids)*(pages+1) {
		t.Fatalf("campaign over %d votes won %d rounds of promises in %d prepares, want %d in %d", votes, rounds, ct.prepares, pages, len(ids)*(pages+1))
	}
	if len(log) != votes {
		t.Fatalf("recovered %d slots, want %d", len(log), votes)
	}
	for i, v := range want {
		if log[i] != v {
			t.Fatalf("slot %d recovered a %d-byte value, not the one chosen there", i, len(log[i]))
		}
	}
}

// TestCampaignAdoptsHighestVoteAndClosesHoles: where promises disagree
// the vote with the highest ballot wins, a slot no promise voted on
// below the highest voted one is closed with noop, and a vote only a
// severed acceptor holds is not seen.
func TestCampaignAdoptsHighestVoteAndClosesHoles(t *testing.T) {
	accs, ids, tr := cluster(3)
	low, high := Ballot{Round: 1, Proposer: 0}, Ballot{Round: 2, Proposer: 1}
	for _, v := range []struct {
		acc, slot int
		b         Ballot
		val       Value
	}{
		{0, 0, low, "old"}, {1, 2, low, "kept"}, {1, 0, high, "new"}, {2, 3, high, "unseen"},
	} {
		if rep, err := accs[v.acc].Accept(v.b, v.slot, v.val); err != nil || !rep.OK {
			t.Fatalf("seed vote %+v: %+v %v", v, rep, err)
		}
	}
	tr.SetDown(2, true)
	_, log, err := NewProposer(0, ids, tr).Campaign("noop")
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]Value{0: "new", 1: "noop", 2: "kept"}
	if !maps.Equal(log, want) {
		t.Fatalf("campaign recovered %q, want %q", log, want)
	}
}

// voteLog is a Persister that records every vote an acceptor casts,
// and the (slot, ballot) pairs it was asked to vote two different
// values at.
type voteLog struct {
	votes map[[3]int]Value // slot, ballot round, ballot proposer
	twice [][3]int
}

func (l *voteLog) SavePromise(Ballot) error { return nil }
func (l *voteLog) SaveAccept(slot int, b Ballot, v Value) error {
	k := [3]int{slot, b.Round, b.Proposer}
	if old, ok := l.votes[k]; ok && old != v {
		l.twice = append(l.twice, k)
	}
	l.votes[k] = v
	return nil
}

// TestFailedPhase2EndsTerm: a leader whose phase 2 misses its majority
// sends nothing more at that ballot. Its next proposal is refused
// without an accept, so no acceptor ever votes two values at one
// (slot, ballot), and the next campaign recovers the orphaned vote —
// or closes the slot with a noop — instead of choosing a second value
// there.
func TestFailedPhase2EndsTerm(t *testing.T) {
	votes := &voteLog{votes: make(map[[3]int]Value)}
	accs := []*Acceptor{RestoreAcceptor(0, votes, Ballot{}, nil), NewAcceptor(1), NewAcceptor(2)}
	tr := NewLocalTransport(accs...)
	ct := &countingTransport{Transport: tr}
	ids := []int{0, 1, 2}
	p := NewProposer(0, ids, ct)
	if _, _, err := p.Campaign("noop"); err != nil {
		t.Fatal(err)
	}
	tr.SetDown(1, true)
	tr.SetDown(2, true)
	if _, err := p.Propose("v1"); !errors.Is(err, ErrNoMajority) {
		t.Fatalf("propose v1 with two acceptors severed: %v, want ErrNoMajority", err)
	}
	sent := ct.accepts
	if _, err := p.Propose("v2"); err == nil {
		t.Fatal("a leader whose phase 2 missed its majority proposed again")
	}
	if n := ct.accepts - sent; n != 0 {
		t.Errorf("the refused proposal sent %d accepts, want 0", n)
	}
	tr.SetDown(1, false)
	_, log, err := p.Campaign("noop")
	if err != nil {
		t.Fatal(err)
	}
	if log[0] != "v1" && log[0] != "noop" {
		t.Errorf("campaign over {0, 1} chose %q at slot 0, want the orphaned v1 or a noop", log[0])
	}
	if len(votes.twice) > 0 {
		t.Fatalf("acceptor 0 voted two values at (slot, round, proposer) %v", votes.twice)
	}
}
