package certifier

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/paxos"
	"repro/internal/writeset"
)

// proposerOf returns the proposer a promoted certifier logs through.
func proposerOf(c *Certifier) *paxos.Proposer { return c.log.(paxosLog).p }

func ws(keys ...int64) writeset.Writeset {
	var w writeset.Writeset
	for _, k := range keys {
		w.Entries = append(w.Entries, writeset.Entry{
			Key: writeset.Key{Table: "t", Row: k}, Value: "v",
		})
	}
	return w
}

// batchValue encodes records as the Paxos value of one group-committed
// batch: the frames the WAL journals for it.
func batchValue(recs ...Record) paxos.Value {
	b, _ := AppendRecords(nil, recs)
	return paxos.Value(b)
}

// decodeValue decodes one Paxos value through a fresh Replay.
func decodeValue(v paxos.Value) ([]Record, error) {
	var rp Replay
	err := rp.Value(v)
	return rp.Records, err
}

func TestCommitAssignsIncreasingVersions(t *testing.T) {
	c := New()
	for i := int64(1); i <= 5; i++ {
		out, err := c.Certify(c.Version(), ws(i))
		if err != nil {
			t.Fatal(err)
		}
		if !out.Committed || out.Version != i {
			t.Fatalf("commit %d: %+v", i, out)
		}
	}
	if c.Version() != 5 {
		t.Fatalf("version = %d", c.Version())
	}
}

func TestConflictDetection(t *testing.T) {
	c := New()
	out, _ := c.Certify(0, ws(1, 2))
	if !out.Committed {
		t.Fatal("first commit failed")
	}
	// A transaction with snapshot 0 that writes row 2 conflicts.
	out, err := c.Certify(0, ws(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if out.Committed {
		t.Fatal("conflicting writeset committed")
	}
	if out.ConflictWith != 1 {
		t.Fatalf("conflict attributed to version %d", out.ConflictWith)
	}
	// The same writeset with a current snapshot commits.
	out, _ = c.Certify(c.Version(), ws(2, 3))
	if !out.Committed {
		t.Fatal("non-concurrent writeset aborted")
	}
}

func TestDisjointWritesetsCommit(t *testing.T) {
	c := New()
	c.Certify(0, ws(1))
	out, _ := c.Certify(0, ws(2))
	if !out.Committed {
		t.Fatal("disjoint concurrent writeset aborted")
	}
}

func TestEmptyWritesetRejected(t *testing.T) {
	c := New()
	if _, err := c.Certify(0, writeset.Writeset{}); err == nil {
		t.Fatal("empty writeset accepted")
	}
}

func TestCheckDoesNotCommit(t *testing.T) {
	c := New()
	c.Certify(0, ws(1))
	conflict, with := c.Check(0, ws(1))
	if !conflict || with != 1 {
		t.Fatalf("Check = %v %d", conflict, with)
	}
	if conflict, _ := c.Check(0, ws(9)); conflict {
		t.Fatal("Check found phantom conflict")
	}
	if c.Version() != 1 {
		t.Fatal("Check changed state")
	}
}

func TestSinceReturnsPropagationFeed(t *testing.T) {
	c := New()
	for i := int64(1); i <= 4; i++ {
		c.Certify(c.Version(), ws(i))
	}
	recs := c.Since(2)
	if len(recs) != 2 || recs[0].Version != 3 || recs[1].Version != 4 {
		t.Fatalf("Since(2) = %+v", recs)
	}
	if len(c.Since(4)) != 0 {
		t.Fatal("Since(latest) not empty")
	}
}

func TestGCAndPruningHorizon(t *testing.T) {
	c := New()
	for i := int64(1); i <= 10; i++ {
		c.Certify(c.Version(), ws(i))
	}
	removed := c.GC(7)
	if removed != 7 || c.LogLen() != 3 {
		t.Fatalf("GC removed %d, log %d", removed, c.LogLen())
	}
	// Snapshots below the horizon can no longer be certified: they
	// abort, and the retry takes a fresh snapshot.
	if out, err := c.Certify(3, ws(99)); err != nil || out.Committed || out.ConflictWith != 7 {
		t.Fatalf("pre-horizon snapshot: %+v, %v; want an abort at the horizon", out, err)
	}
	// At or above the horizon is fine.
	if _, err := c.Certify(7, ws(99)); err != nil {
		t.Fatal(err)
	}
	// GC is monotone.
	if c.GC(5) != 0 {
		t.Fatal("GC went backwards")
	}
}

func TestStats(t *testing.T) {
	c := New()
	c.Certify(0, ws(1))
	c.Certify(0, ws(1)) // conflict
	commits, aborts := c.Stats()
	if commits != 1 || aborts != 1 {
		t.Fatalf("stats = %d/%d", commits, aborts)
	}
}

func TestConcurrentCertification(t *testing.T) {
	// Many goroutines certify writesets over a small key space with
	// retry; the serialized certifier must keep versions dense and
	// never commit two concurrent conflicting writesets.
	c := New()
	const workers = 8
	const perWorker = 30
	var wg sync.WaitGroup
	var mu sync.Mutex
	committed := map[int64]writeset.Writeset{}
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				key := int64((w*perWorker + i) % 40)
				for {
					snap := c.Version()
					out, err := c.Certify(snap, ws(key))
					if err != nil {
						t.Error(err)
						return
					}
					if out.Committed {
						mu.Lock()
						committed[out.Version] = ws(key)
						mu.Unlock()
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	total := int64(workers * perWorker)
	if c.Version() != total {
		t.Fatalf("versions not dense: %d != %d", c.Version(), total)
	}
	for v := int64(1); v <= total; v++ {
		if _, ok := committed[v]; !ok {
			t.Fatalf("version %d missing", v)
		}
	}
}

func TestReplicatedCertifierCommits(t *testing.T) {
	c, _, err := NewReplicated(3)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 5; i++ {
		out, err := c.Certify(c.Version(), ws(i))
		if err != nil {
			t.Fatal(err)
		}
		if !out.Committed || out.Version != i {
			t.Fatalf("commit %d: %+v", i, out)
		}
	}
}

// TestReplicatedCertifierNeedsMajority: a certification that misses
// its majority is not acknowledged, and it ends the term with its
// outcome unknown. Once a backup is back, a fresh Promote recovers the
// vote its own acceptor kept, and certification resumes above it.
func TestReplicatedCertifierNeedsMajority(t *testing.T) {
	c, tr, err := NewReplicated(3)
	if err != nil {
		t.Fatal(err)
	}
	tr.SetDown(1, true)
	tr.SetDown(2, true)
	_, err = c.Certify(0, ws(1))
	var nle NotLeaderError
	if !errors.As(err, &nle) || nle.Leader != -1 || nle.Epoch != proposerOf(c).CurrentBallot() {
		t.Fatalf("certify without a majority: %v, want NotLeaderError naming no leader but the ended term %s", err, proposerOf(c).CurrentBallot())
	}
	if _, ended := proposerOf(c).TermEnded(); !ended {
		t.Fatal("a missed majority left the term open")
	}
	// Restore one backup: majority available again.
	tr.SetDown(1, false)
	if c, _, err = Promote(0, []int{0, 1, 2}, tr); err != nil {
		t.Fatal(err)
	}
	if v := c.Version(); v != 1 {
		t.Fatalf("promoted at version %d, want 1: the orphaned vote is recovered", v)
	}
	out, err := c.Certify(c.Version(), ws(1))
	if err != nil || !out.Committed {
		t.Fatalf("post-restore commit: %+v %v", out, err)
	}
}

func TestReplicatedSurvivesBackupFailure(t *testing.T) {
	c, tr, err := NewReplicated(3)
	if err != nil {
		t.Fatal(err)
	}
	tr.SetDown(2, true) // one backup down, leader + one backup remain
	for i := int64(1); i <= 3; i++ {
		out, err := c.Certify(c.Version(), ws(i))
		if err != nil || !out.Committed {
			t.Fatalf("commit with one backup down: %+v %v", out, err)
		}
	}
}

func TestLeaderFailoverRecoversLog(t *testing.T) {
	// Certify through the leader, then promote a backup and rebuild
	// the certifier from the recovered Paxos log. The new certifier
	// must make identical decisions.
	c, tr, err := NewReplicated(3)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 5; i++ {
		if _, err := c.Certify(c.Version(), ws(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Promote node 1; the old leader's proposer is gone.
	p1 := paxos.NewProposer(1, []int{0, 1, 2}, tr)
	_, log, err := p1.Campaign("noop") // slots 0..4 hold versions 1..5
	if err != nil {
		t.Fatal(err)
	}
	recovered, err := Recover(log)
	if err != nil {
		t.Fatal(err)
	}
	if recovered.Version() != 5 {
		t.Fatalf("recovered version = %d", recovered.Version())
	}
	// The recovered certifier sees the same conflicts.
	conflict, with := recovered.Check(0, ws(3))
	if !conflict || with != 3 {
		t.Fatalf("recovered certifier lost history: %v %d", conflict, with)
	}
	out, err := recovered.Certify(recovered.Version(), ws(99))
	if err != nil || !out.Committed || out.Version != 6 {
		t.Fatalf("recovered certifier cannot continue: %+v %v", out, err)
	}
}

func TestRecoverRejectsHoles(t *testing.T) {
	log := map[int]paxos.Value{0: "noop", 2: "noop"}
	if _, err := Recover(log); err == nil {
		t.Fatal("holey log accepted")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	back, err := decodeValue(batchValue(Record{Version: 7, Writeset: ws(1, 2, 3)}))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0].Version != 7 || back[0].Writeset.Len() != 3 {
		t.Fatalf("round trip = %+v", back)
	}
	if noop, err := decodeValue("noop"); err != nil || len(noop) != 0 {
		t.Fatalf("noop decode = %+v %v", noop, err)
	}
	if _, err := decodeValue("not a frame"); err == nil {
		t.Fatal("garbage decoded")
	}
}

func TestCertifyAfterManyGCCycles(t *testing.T) {
	c := New()
	for round := 0; round < 5; round++ {
		for i := 0; i < 20; i++ {
			out, err := c.Certify(c.Version(), ws(int64(i)))
			if err != nil || !out.Committed {
				t.Fatalf("round %d commit %d: %+v %v", round, i, out, err)
			}
		}
		c.GC(c.Version() - 5)
	}
	if c.LogLen() != 5 {
		t.Fatalf("log length = %d", c.LogLen())
	}
	if c.Version() != 100 {
		t.Fatalf("version after GC cycles = %d", c.Version())
	}
}

// countingTransport counts the prepares and accepts a certifier's
// proposer sends.
type countingTransport struct {
	paxos.Transport
	prepares, accepts int
}

func (c *countingTransport) Prepare(to int, b paxos.Ballot, from int) (paxos.PrepareReply, error) {
	c.prepares++
	return c.Transport.Prepare(to, b, from)
}

func (c *countingTransport) Accept(to int, b paxos.Ballot, slot int, v paxos.Value) (paxos.AcceptReply, error) {
	c.accepts++
	return c.Transport.Accept(to, b, slot, v)
}

// TestSteadyCertifySendsNoPrepare pins multi-Paxos on a 3-node group:
// the election prepares each acceptor once, and a certification after
// it is phase 2 alone, three accepts and no prepare.
func TestSteadyCertifySendsNoPrepare(t *testing.T) {
	accs := []*paxos.Acceptor{paxos.NewAcceptor(0), paxos.NewAcceptor(1), paxos.NewAcceptor(2)}
	ct := &countingTransport{Transport: paxos.NewLocalTransport(accs...)}
	c, _, err := Promote(0, []int{0, 1, 2}, ct)
	if err != nil {
		t.Fatal(err)
	}
	if ct.prepares != 3 || ct.accepts != 0 {
		t.Fatalf("election over an empty log sent %d prepares and %d accepts, want 3 and 0", ct.prepares, ct.accepts)
	}
	for i := int64(1); i <= 10; i++ {
		ct.prepares, ct.accepts = 0, 0
		if out, err := c.Certify(c.Version(), ws(i)); err != nil || !out.Committed {
			t.Fatalf("certify %d: %+v %v", i, out, err)
		}
		if ct.prepares != 0 || ct.accepts != 3 {
			t.Fatalf("certify %d sent %d prepares and %d accepts, want 0 and 3", i, ct.prepares, ct.accepts)
		}
	}
}
