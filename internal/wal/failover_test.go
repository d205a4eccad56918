package wal_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/certifier"
	"repro/internal/paxos"
	"repro/internal/wal"
	"repro/internal/writeset"
)

// txnWS is transaction i's writeset: one distinct row, so the workload
// never aborts and version v always carries row v-1.
func txnWS(i int) writeset.Writeset {
	return writeset.New([]writeset.Entry{{
		Key:   writeset.Key{Table: "t", Row: int64(i)},
		Value: fmt.Sprintf("val-%d", i),
	}})
}

// checkRecord asserts the record at version v is transaction v-1's.
func checkRecord(t *testing.T, name string, rec certifier.Record) {
	t.Helper()
	i := rec.Version - 1
	if len(rec.Writeset.Entries) != 1 {
		t.Fatalf("%s: version %d has %d entries", name, rec.Version, len(rec.Writeset.Entries))
	}
	e := rec.Writeset.Entries[0]
	if e.Key.Row != i || e.Value != fmt.Sprintf("val-%d", i) {
		t.Fatalf("%s: version %d holds row %d value %q — a phantom or corrupted commit", name, rec.Version, e.Key.Row, e.Value)
	}
}

// openNode opens node id's log over fsys and restores its acceptor
// from it, as a Paxos node boots: the acceptor persists its promises
// and votes into the same WAL the node's apply path journals to.
func openNode(id int, fsys wal.FS, fsync bool) (*paxos.Acceptor, *wal.WAL, *wal.Recovered, error) {
	w, rec, err := wal.Open(wal.Options{FS: fsys, Fsync: fsync})
	if err != nil {
		return nil, nil, nil, err
	}
	return paxos.RestoreAcceptor(id, w, rec.Promised, rec.Votes), w, rec, nil
}

// TestLeaderKillFailoverSweep kills the certifier leader at every
// traced filesystem operation of its one log (the acceptor's promise
// and vote writes and fsyncs, the apply path's record appends — with
// and without torn writes, under power-loss and process-kill
// semantics),
// then elects a backup and asserts that no acked commit is lost, no
// phantom commit appears, the log stays a dense prefix, the deposed
// leader cannot ack, and the cluster resumes committing on the new
// leader without manual intervention.
//
// The topology is chosen so acceptor durability actually carries the
// proof: node 2 is unreachable during the workload, so every decided
// slot lives only on the leader (node 0) and node 1. Recovery then
// elects node 2 with node 1 down — the new majority is {restored 0, 2},
// and only node 0's persisted votes connect the acked commits to the
// new epoch.
func TestLeaderKillFailoverSweep(t *testing.T) {
	const commits = 6
	models := []struct {
		name         string
		fsync        bool
		keepUnsynced bool
	}{
		{"power-loss", true, false},
		{"process-kill", false, true},
	}

	// Dry run to size the leader's op trace.
	ops := runLeaderWorkload(t, wal.NewCrashFS(wal.NewMemFS(), -1, 0), true, commits, nil)
	if ops < commits {
		t.Fatalf("dry run traced only %d ops", ops)
	}

	for _, m := range models {
		for armAt := 0; armAt <= ops; armAt++ { // armAt == ops: never crashes
			for _, cut := range []int{0, 3} {
				name := fmt.Sprintf("%s/arm=%d/cut=%d", m.name, armAt, cut)
				runFailoverCase(t, name, m.fsync, m.keepUnsynced, armAt, cut, commits)
			}
		}
	}
}

// runLeaderWorkload boots leader node 0 over cfs0 (its acceptor and
// the apply path's records in one WAL), runs the commit workload with
// node 2 severed, and returns the number of traced ops. When state is
// non-nil the live objects and ack bookkeeping are stored into it.
type leaderState struct {
	cert  *certifier.Certifier
	tr    *paxos.LocalTransport
	a1    *paxos.Acceptor
	a2    *paxos.Acceptor
	acked int // transactions 0..acked-1 were acknowledged
	alive bool
}

func runLeaderWorkload(t *testing.T, cfs0 *wal.CrashFS, fsync bool, commits int, state *leaderState) int {
	t.Helper()
	a1, _, _, err := openNode(1, wal.NewMemFS(), true)
	if err != nil {
		t.Fatal(err)
	}
	a2, _, _, err := openNode(2, wal.NewMemFS(), true)
	if err != nil {
		t.Fatal(err)
	}
	if state != nil {
		state.a1, state.a2 = a1, a2
	}

	a0, w, _, err := openNode(0, cfs0, fsync)
	if err != nil {
		// Crashed while opening the log: no leader, no acks.
		return len(cfs0.Trace())
	}
	tr := paxos.NewLocalTransport(a0, a1, a2)
	tr.SetDown(2, true) // node 2 misses the whole workload
	cert, _, err := certifier.Promote(0, []int{0, 1, 2}, tr)
	if err != nil {
		// With acceptors 0 and 1 up only a crash can fail the campaign:
		// then there is no leader and no ack.
		if !cfs0.Crashed() {
			t.Fatalf("campaign over acceptors 0 and 1 failed without a crash: %v", err)
		}
		return len(cfs0.Trace())
	}
	if state != nil {
		state.cert, state.tr, state.alive = cert, tr, true
	}

	for i := 0; i < commits; i++ {
		if cfs0.Crashed() {
			break
		}
		out, err := cert.Certify(0, txnWS(i))
		if err != nil || !out.Committed {
			break // leader dead or deposed; nothing past this is acked
		}
		if cfs0.Crashed() {
			// The ack raced the crash: the commit may be decided, but no
			// client saw it succeed. In-flight, not acked.
			break
		}
		if state != nil {
			if out.Version != int64(i+1) {
				t.Fatalf("workload version drift: txn %d got version %d", i, out.Version)
			}
			state.acked = i + 1
		}
		// The apply path journals the installed version, unsynced.
		if err := w.AppendRecord(txnWS(i), out.Version); err != nil {
			break
		}
	}
	return len(cfs0.Trace())
}

func runFailoverCase(t *testing.T, name string, fsync, keepUnsynced bool, armAt, cut, commits int) {
	t.Helper()
	fs0 := wal.NewMemFS()
	cfs0 := wal.NewCrashFS(fs0, armAt, cut)
	var st leaderState
	runLeaderWorkload(t, cfs0, fsync, commits, &st)

	// The leader host dies and restarts: its disk keeps what the crash
	// model says a real crash preserves.
	fs0.PowerCycle(keepUnsynced)
	a0r, _, rec0, err := openNode(0, fs0, fsync)
	if err != nil {
		t.Fatalf("%s: restart node 0: %v", name, err)
	}

	// Elect node 2 with node 1 down: majority {restored 0, 2}.
	tr2 := paxos.NewLocalTransport(a0r, st.a1, st.a2)
	tr2.SetDown(1, true)
	newCert, term, err := certifier.Promote(2, []int{0, 1, 2}, tr2)
	if err != nil {
		t.Fatalf("%s: promote: %v", name, err)
	}
	epoch := term.CurrentBallot()
	if epoch.Proposer != 2 {
		t.Fatalf("%s: epoch %s not owned by node 2", name, epoch)
	}

	// No lost ack, no phantom, dense prefix.
	recs := newCert.Since(0)
	for i, rec := range recs {
		if rec.Version != int64(i+1) {
			t.Fatalf("%s: recovered log not dense: position %d holds version %d", name, i, rec.Version)
		}
		checkRecord(t, name, rec)
	}
	if len(recs) < st.acked {
		t.Fatalf("%s: lost acked commits: recovered %d, acked %d", name, len(recs), st.acked)
	}
	if len(recs) > st.acked+1 {
		t.Fatalf("%s: phantom commits: recovered %d, acked %d with at most one in flight", name, len(recs), st.acked)
	}

	// The deposed leader can never ack again: fencing turns its next
	// certification into a structured redirect. Only meaningful when
	// the crash actually fired — without one this run models killing a
	// healthy leader outright (process gone), and the pre-restart
	// objects no longer exist.
	if st.alive && cfs0.Crashed() {
		_, err := st.cert.Certify(0, txnWS(99))
		var nle certifier.NotLeaderError
		if err == nil {
			t.Fatalf("%s: deposed leader acked a commit", name)
		}
		if errors.As(err, &nle) && nle.Leader >= 0 {
			if nle.Leader != 2 {
				t.Fatalf("%s: redirect points at node %d, want 2", name, nle.Leader)
			}
			if nle.Epoch.Less(epoch) {
				t.Fatalf("%s: redirect epoch %s below winner %s", name, nle.Epoch, epoch)
			}
		}
		// A dead disk may end the term at a missed majority instead of a
		// deposal, and the redirect names no leader — also not an ack,
		// also safe.
	}

	// The records the old leader's apply path journaled, replayed at its
	// restart, must agree with the quorum log: every record it kept is
	// the same transaction the new leader recovered.
	for _, r := range rec0.Records {
		checkRecord(t, name+"/journal", r)
		if r.Version > int64(len(recs)) {
			t.Fatalf("%s: journal holds version %d beyond the quorum log (%d)", name, r.Version, len(recs))
		}
	}

	// The cluster resumes committing on the new leader, and versions
	// continue the dense prefix.
	base := newCert.Version()
	out, err := newCert.Certify(base, txnWS(int(base)))
	if err != nil || !out.Committed {
		t.Fatalf("%s: new leader cannot commit: %+v %v", name, out, err)
	}
	if out.Version != base+1 {
		t.Fatalf("%s: resumed version %d, want %d", name, out.Version, base+1)
	}
}

// TestFailoverEpochsMonotonic chains three elections and asserts each
// epoch strictly outbids the last — "exactly one leader per epoch" is
// structural (the ballot embeds the proposer id) and this pins the
// monotonic half.
func TestFailoverEpochsMonotonic(t *testing.T) {
	var accs []*paxos.Acceptor
	for i := 0; i < 3; i++ {
		a, _, _, err := openNode(i, wal.NewMemFS(), true)
		if err != nil {
			t.Fatal(err)
		}
		accs = append(accs, a)
	}
	tr := paxos.NewLocalTransport(accs...)
	peers := []int{0, 1, 2}

	prev := paxos.Ballot{}
	leaders := []int{0, 1, 2, 0}
	var lastCert *certifier.Certifier
	version := int64(0)
	for round, id := range leaders {
		c, term, err := certifier.Promote(id, peers, tr)
		if err != nil {
			t.Fatalf("round %d: promote %d: %v", round, id, err)
		}
		epoch := term.CurrentBallot()
		if !prev.Less(epoch) {
			t.Fatalf("round %d: epoch %s does not outbid %s", round, epoch, prev)
		}
		if epoch.Proposer != id {
			t.Fatalf("round %d: epoch %s not owned by %d", round, epoch, id)
		}
		prev = epoch
		if c.Version() != version {
			t.Fatalf("round %d: recovered version %d, want %d", round, c.Version(), version)
		}
		out, err := c.Certify(c.Version(), txnWS(int(version)))
		if err != nil || !out.Committed {
			t.Fatalf("round %d: leader %d cannot commit: %v", round, id, err)
		}
		version = out.Version
		if lastCert != nil {
			if _, err := lastCert.Certify(0, txnWS(500+round)); err == nil {
				t.Fatalf("round %d: previous leader still acks", round)
			}
		}
		lastCert = c
	}
}

// TestPaxosLeaderSyncsOneLog: on a three-node Paxos group with fsync,
// a leader's steady-state certification syncs one file, wal.log, once:
// for its own acceptor's vote. The certifier journals nothing, and the
// apply path's record append does not sync. Each backup likewise syncs
// its wal.log once per certification, for its vote.
func TestPaxosLeaderSyncsOneLog(t *testing.T) {
	fss := make([]*wal.CrashFS, 3)
	accs := make([]*paxos.Acceptor, 3)
	var w0 *wal.WAL
	for i := range accs {
		fss[i] = wal.NewCrashFS(wal.NewMemFS(), -1, 0) // never crashes: it only counts
		a, w, _, err := openNode(i, fss[i], true)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		if i == 0 {
			w0 = w
		}
		accs[i] = a
	}
	cert, _, err := certifier.Promote(0, []int{0, 1, 2}, paxos.NewLocalTransport(accs...))
	if err != nil {
		t.Fatal(err)
	}
	syncs := func() []map[string]int {
		out := make([]map[string]int, len(fss))
		for i, fs := range fss {
			out[i] = map[string]int{}
			for _, op := range fs.Trace() {
				if op.Kind == "sync" {
					out[i][op.Name]++
				}
			}
		}
		return out
	}
	const certifies = 10
	before := syncs()
	for i := range certifies {
		out, err := cert.Certify(cert.Version(), txnWS(i))
		if err != nil || !out.Committed {
			t.Fatalf("certify %d: %+v %v", i, out, err)
		}
		if err := w0.AppendRecord(txnWS(i), out.Version); err != nil { // the leader's apply path
			t.Fatal(err)
		}
	}
	for node, after := range syncs() {
		for name, n := range after {
			n -= before[node][name]
			if name != "wal.log" && n != 0 {
				t.Errorf("node %d synced %s %d times over %d certifications", node, name, n, certifies)
			}
		}
		if n := after["wal.log"] - before[node]["wal.log"]; n != certifies {
			t.Errorf("node %d synced wal.log %d times over %d certifications, want one each", node, n, certifies)
		}
	}
}
