package certifier

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/paxos"
	"repro/internal/writeset"
)

func TestCertifyBatchMatchesSequential(t *testing.T) {
	// The same request stream, certified one by one and as a batch,
	// must produce identical outcomes (group commit changes durability
	// cost, never decisions).
	reqs := []Request{
		{Snapshot: 0, Writeset: ws(1, 2)},
		{Snapshot: 0, Writeset: ws(3)},
		{Snapshot: 0, Writeset: ws(2, 4)}, // intra-batch conflict with the first
		{Snapshot: 2, Writeset: ws(3)},    // conflicts with the second (version 2)
	}
	seq := New()
	var want []Outcome
	for _, r := range reqs {
		out, err := seq.Certify(r.Snapshot, r.Writeset)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, out)
	}
	bat := New()
	results, err := bat.CertifyBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("request %d: %v", i, res.Err)
		}
		if res.Outcome != want[i] {
			t.Fatalf("request %d: batch %+v, sequential %+v", i, res.Outcome, want[i])
		}
	}
	if bat.Version() != seq.Version() {
		t.Fatalf("versions diverged: %d != %d", bat.Version(), seq.Version())
	}
	bc, ba := bat.Stats()
	sc, sa := seq.Stats()
	if bc != sc || ba != sa {
		t.Fatalf("stats diverged: %d/%d != %d/%d", bc, ba, sc, sa)
	}
}

func TestCertifyBatchPerRequestErrors(t *testing.T) {
	c := New()
	for i := int64(1); i <= 10; i++ {
		if _, err := c.Certify(c.Version(), ws(i)); err != nil {
			t.Fatal(err)
		}
	}
	c.GC(5)
	results, err := c.CertifyBatch([]Request{
		{Snapshot: 2, Writeset: ws(99)},  // below pruning horizon
		{Snapshot: 10, Writeset: ws()},   // empty writeset
		{Snapshot: 10, Writeset: ws(50)}, // fine
	})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil || results[0].Outcome.Committed {
		t.Fatalf("pre-horizon snapshot in batch: %+v; want an abort", results[0])
	}
	if results[1].Err == nil {
		t.Fatal("empty writeset accepted in batch")
	}
	if results[2].Err != nil || !results[2].Outcome.Committed || results[2].Outcome.Version != 11 {
		t.Fatalf("valid request in mixed batch: %+v", results[2])
	}
}

func TestCertifyBatchReplicatedUsesOneSlot(t *testing.T) {
	c, _, err := NewReplicated(3)
	if err != nil {
		t.Fatal(err)
	}
	var reqs []Request
	for i := int64(0); i < 32; i++ {
		reqs = append(reqs, Request{Snapshot: 0, Writeset: ws(i)})
	}
	results, err := c.CertifyBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Err != nil || !res.Outcome.Committed {
			t.Fatalf("request %d: %+v", i, res)
		}
	}
	if got := c.ReplicationSlots(); got != 1 {
		t.Fatalf("32 batched commits used %d Paxos slots, want 1", got)
	}
}

func TestCertifyBatchReplicationFailureLeavesNoState(t *testing.T) {
	c, tr, err := NewReplicated(3)
	if err != nil {
		t.Fatal(err)
	}
	tr.SetDown(1, true)
	tr.SetDown(2, true)
	if _, err := c.CertifyBatch([]Request{{Snapshot: 0, Writeset: ws(1)}}); err == nil {
		t.Fatal("batch acknowledged without a majority")
	}
	if c.Version() != 0 || c.LogLen() != 0 || c.IndexSize() != 0 {
		t.Fatalf("failed batch left state: version=%d log=%d index=%d",
			c.Version(), c.LogLen(), c.IndexSize())
	}
	commits, _ := c.Stats()
	if commits != 0 {
		t.Fatalf("failed batch counted %d commits", commits)
	}
}

func TestBatcherGroupCommit(t *testing.T) {
	// Concurrent clients certify disjoint writesets through the
	// batcher against a replicated certifier: every request commits
	// exactly once and versions stay dense. (Slot amortization is
	// asserted by TestBatcherAmortizesPaxosRounds, which controls the
	// timing; here the in-process Paxos round is so fast that batch
	// sizes depend on scheduling.)
	c, _, err := NewReplicated(3)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatcher(c, 0)
	const clients = 16
	const perClient = 25
	var wg sync.WaitGroup
	var mu sync.Mutex
	versions := make(map[int64]bool)
	for w := 0; w < clients; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				key := int64(w*perClient + i) // disjoint keys: all commit
				out, err := b.Certify(0, ws(key))
				if err != nil {
					t.Error(err)
					return
				}
				if !out.Committed {
					t.Errorf("disjoint writeset aborted: %+v", out)
					return
				}
				mu.Lock()
				versions[out.Version] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	total := int64(clients * perClient)
	if c.Version() != total {
		t.Fatalf("version = %d, want %d", c.Version(), total)
	}
	for v := int64(1); v <= total; v++ {
		if !versions[v] {
			t.Fatalf("version %d never handed out", v)
		}
	}
}

// gatedTransport delays Accept traffic until the gate opens, modeling
// a Paxos round with real network latency. first is closed when the
// first Accept arrives (the flush is provably in flight).
type gatedTransport struct {
	*paxos.LocalTransport
	gate      chan struct{}
	firstOnce sync.Once
	first     chan struct{}
}

func (g *gatedTransport) Accept(to int, b paxos.Ballot, slot int, v paxos.Value) (paxos.AcceptReply, error) {
	g.firstOnce.Do(func() { close(g.first) })
	<-g.gate
	return g.LocalTransport.Accept(to, b, slot, v)
}

// TestBatcherAmortizesPaxosRounds holds the first flush's Paxos round
// open, parks eight more clients behind it, then releases the gate:
// the stragglers must ride one group commit, giving 2 slots for 9
// requests.
func TestBatcherAmortizesPaxosRounds(t *testing.T) {
	accs := make([]*paxos.Acceptor, 3)
	ids := make([]int, 3)
	for i := range accs {
		accs[i] = paxos.NewAcceptor(i)
		ids[i] = i
	}
	gt := &gatedTransport{
		LocalTransport: paxos.NewLocalTransport(accs...),
		gate:           make(chan struct{}),
		first:          make(chan struct{}),
	}
	// The campaign over an empty log sends prepares alone, so it wins
	// before the gate holds any accept.
	c, _, err := Promote(0, ids, gt)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatcher(c, 0)

	var wg sync.WaitGroup
	certify := func(key int64) {
		defer wg.Done()
		out, err := b.Certify(0, ws(key))
		if err != nil {
			t.Error(err)
			return
		}
		if !out.Committed {
			t.Errorf("disjoint writeset aborted: %+v", out)
		}
	}
	wg.Add(1)
	go certify(0)
	<-gt.first // flush 1 is inside its Paxos round

	const stragglers = 8
	for i := int64(1); i <= stragglers; i++ {
		wg.Add(1)
		go certify(i)
	}
	// Wait until every straggler is parked in the batcher's queue.
	for {
		b.mu.Lock()
		n := len(b.pending)
		b.mu.Unlock()
		if n == stragglers {
			break
		}
		runtime.Gosched()
	}
	close(gt.gate)
	wg.Wait()

	if c.Version() != stragglers+1 {
		t.Fatalf("version = %d, want %d", c.Version(), stragglers+1)
	}
	if slots := c.ReplicationSlots(); slots != 2 {
		t.Fatalf("%d Paxos slots for %d requests, want 2 (1 + one group commit)", slots, stragglers+1)
	}
}

func TestBatcherMatchesCertifyOnConflicts(t *testing.T) {
	// Single-threaded through the batcher (batches of one): decisions
	// must be exactly Certify's.
	c := New()
	b := NewBatcher(c, 0)
	out, err := b.Certify(0, ws(1, 2))
	if err != nil || !out.Committed || out.Version != 1 {
		t.Fatalf("first commit: %+v %v", out, err)
	}
	out, err = b.Certify(0, ws(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if out.Committed || out.ConflictWith != 1 {
		t.Fatalf("conflict through batcher: %+v", out)
	}
	if _, err := b.Certify(0, writeset.Writeset{}); err == nil {
		t.Fatal("empty writeset accepted through batcher")
	}
}

func TestRecoverRestoresLowWater(t *testing.T) {
	// A compacted log whose earliest retained record is version 8
	// (earlier slots hold no-op fillers) must restore the pruning
	// horizon: a promoted backup rejects pre-horizon snapshots exactly
	// as the failed leader did.
	log := map[int]paxos.Value{}
	slot := 0
	for ; slot < 3; slot++ {
		log[slot] = "noop"
	}
	for v := int64(8); v <= 10; v++ {
		log[slot] = batchValue(Record{Version: v, Writeset: ws(v)})
		slot++
	}
	c, err := Recover(log)
	if err != nil {
		t.Fatal(err)
	}
	if c.Version() != 10 {
		t.Fatalf("recovered version = %d", c.Version())
	}
	if out, err := c.Certify(3, ws(99)); err != nil || out.Committed {
		t.Fatalf("recovered certifier on a pre-horizon snapshot: %+v, %v; want an abort", out, err)
	}
	out, err := c.Certify(7, ws(99))
	if err != nil || !out.Committed || out.Version != 11 {
		t.Fatalf("at-horizon certify: %+v %v", out, err)
	}
}

func TestRecoverBatchedLog(t *testing.T) {
	// Certify through group commit, then promote a backup: the
	// recovered certifier must see every record inside the batch
	// entries and make identical decisions.
	c, tr, err := NewReplicated(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CertifyBatch([]Request{
		{Snapshot: 0, Writeset: ws(1)},
		{Snapshot: 0, Writeset: ws(2)},
		{Snapshot: 0, Writeset: ws(3)},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Certify(c.Version(), ws(4)); err != nil {
		t.Fatal(err)
	}
	p1 := paxos.NewProposer(1, []int{0, 1, 2}, tr)
	_, log, err := p1.Campaign("noop") // slot 0 = batch, slot 1 = single
	if err != nil {
		t.Fatal(err)
	}
	recovered, err := Recover(log)
	if err != nil {
		t.Fatal(err)
	}
	if recovered.Version() != 4 || recovered.LogLen() != 4 {
		t.Fatalf("recovered version=%d log=%d", recovered.Version(), recovered.LogLen())
	}
	conflict, with := recovered.Check(1, ws(2))
	if !conflict || with != 2 {
		t.Fatalf("recovered certifier lost batched history: %v %d", conflict, with)
	}
}

func TestIndexPrunedOnGC(t *testing.T) {
	c := New()
	for i := int64(1); i <= 10; i++ {
		if _, err := c.Certify(c.Version(), ws(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Overwrite key 2 at version 11: its index entry must survive a GC
	// that prunes version 2.
	if _, err := c.Certify(c.Version(), ws(2)); err != nil {
		t.Fatal(err)
	}
	if removed := c.GC(10); removed != 10 {
		t.Fatalf("GC removed %d", removed)
	}
	if got := c.IndexSize(); got != 1 {
		t.Fatalf("index holds %d keys after GC, want 1 (the re-written key)", got)
	}
	if conflict, with := c.Check(10, ws(2)); !conflict || with != 11 {
		t.Fatalf("surviving index entry lost: %v %d", conflict, with)
	}
}

func TestDecodeRecordsSingleAndBatch(t *testing.T) {
	recs, err := decodeValue(batchValue(Record{Version: 3, Writeset: ws(1)}))
	if err != nil || len(recs) != 1 || recs[0].Version != 3 {
		t.Fatalf("single decode: %+v %v", recs, err)
	}
	recs, err = decodeValue(batchValue(
		Record{Version: 4, Writeset: ws(1)},
		Record{Version: 5, Writeset: ws(2)},
	))
	if err != nil || len(recs) != 2 || recs[0].Version != 4 || recs[1].Version != 5 {
		t.Fatalf("batch decode: %+v %v", recs, err)
	}
	if recs, err := decodeValue("noop"); err != nil || len(recs) != 0 {
		t.Fatalf("noop decode: %+v %v", recs, err)
	}
}
