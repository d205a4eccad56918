package wal

import (
	"fmt"
	"testing"

	"repro/internal/certifier"
)

// Two-group 2PC crash sweep: a scripted cross-shard workload runs over
// two certifier+WAL groups (group 0 coordinating), and the sweep kills
// either group at every filesystem operation it performs — prepare
// writes, decision writes, forget writes, fsyncs, and mid-write tears.
// After each kill both groups power-cycle, recover, and run the
// presumed-abort resolution protocol; the invariants are the ISSUE's
// acceptance bar:
//
//	acked ⊆ recovered ⊆ acked ∪ in-flight
//
// and cross-shard atomicity — no group ever applies a fragment of a
// transaction another group aborted.

// twoPCGroup is one shard group: a certifier journaling into a WAL
// over a crashable filesystem.
type twoPCGroup struct {
	mem  *MemFS
	cfs  *CrashFS
	cert *certifier.Certifier
	w    *WAL
	dead bool // Open itself crashed; every call is skipped
}

func newTwoPCGroup(armAt, cut int) *twoPCGroup {
	g := &twoPCGroup{mem: NewMemFS()}
	g.cfs = NewCrashFS(g.mem, armAt, cut)
	w, _, err := Open(Options{FS: g.cfs, Fsync: true})
	if err != nil {
		g.dead = true
		return g
	}
	g.w = w
	g.cert = certifier.New()
	g.cert.SetJournal(w)
	return g
}

// twoPCRun is the observable outcome of one scripted run: what the
// "router" acked to its client, what it explicitly aborted, and what
// it had to leave in doubt.
type twoPCRun struct {
	g0, g1  *twoPCGroup
	acked   []string // coordinator decision durable: commit promised
	aborted []string // abort decided before the commit point
	unknown []string // coordinator decide failed: outcome unknown
	singles map[int][]string
}

// fragVal names the fragment value txn id writes at group g.
func fragVal(g int, id string) string { return fmt.Sprintf("frag%d-%s", g, id) }

// runTwoPCScript drives the scripted workload with one group's
// filesystem armed to crash (arm0/arm1; -1 never). The driver mirrors
// internal/router's commit2PC: errors before the commit point abort
// explicitly, a coordinator decide failure leaves the transaction
// unknown, a participant decide failure after the commit point keeps
// the ack and skips the forgets.
func runTwoPCScript(arm0, cut0, arm1, cut1 int) *twoPCRun {
	r := &twoPCRun{
		g0:      newTwoPCGroup(arm0, cut0),
		g1:      newTwoPCGroup(arm1, cut1),
		singles: map[int][]string{},
	}
	groups := []*twoPCGroup{r.g0, r.g1}

	single := func(gi int, row int64, val string) {
		g := groups[gi]
		if g.dead {
			return
		}
		out, err := g.cert.Certify(g.cert.Version(), ws("t", row, val))
		if err == nil && out.Committed {
			r.singles[gi] = append(r.singles[gi], val)
		}
	}
	// abortBoth mirrors the router's explicit pre-commit-point abort:
	// decide abort wherever a prepare may have landed, best effort.
	abortBoth := func(id string, upto int) {
		for gi := 0; gi < upto; gi++ {
			if g := groups[gi]; !g.dead {
				_, _ = g.cert.Decide(tid(id), false)
				_ = g.cert.Forget(tid(id))
			}
		}
		r.aborted = append(r.aborted, id)
	}

	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("x%d", i)
		rowA, rowB := int64(i), int64(100+i)

		// Interleave a plain single-shard commit at each group so 2PC
		// frames mix with ordinary records in both logs.
		single(0, 50+int64(i), fmt.Sprintf("s0-%d", i))
		single(1, 60+int64(i), fmt.Sprintf("s1-%d", i))

		if r.g0.dead || r.g1.dead {
			// A dead group fails its prepare; the router would abort.
			abortBoth(id, 0)
			continue
		}
		vote0, _, err0 := r.g0.cert.Prepare(certifier.PreparedTxn{
			ID: tid(id), Coord: 0, Snapshot: r.g0.cert.Version(),
			Writeset: ws("t", rowA, fragVal(0, id)),
		})
		if err0 != nil || !vote0 {
			abortBoth(id, 1)
			continue
		}
		vote1, _, err1 := r.g1.cert.Prepare(certifier.PreparedTxn{
			ID: tid(id), Coord: 0, Snapshot: r.g1.cert.Version(),
			Writeset: ws("t", rowB, fragVal(1, id)),
		})
		if err1 != nil || !vote1 {
			abortBoth(id, 2)
			continue
		}
		// Commit point: the coordinator group's durable decision.
		if _, err := r.g0.cert.Decide(tid(id), true); err != nil {
			r.unknown = append(r.unknown, id)
			continue
		}
		r.acked = append(r.acked, id)
		if _, err := r.g1.cert.Decide(tid(id), true); err != nil {
			// Ack stands; the participant resolves on recovery.
			continue
		}
		_ = r.g1.cert.Forget(tid(id))
		_ = r.g0.cert.Forget(tid(id))
	}

	// A certain conflict: re-prepare row 0 against a stale snapshot.
	// If txn x0 committed, row 0 has a newer version and the vote must
	// be no (in a crashed run where x0 aborted, a yes-vote is
	// legitimate — the explicit abort below retires it either way).
	if !r.g0.dead {
		id := "stale"
		x0Committed := len(r.acked) > 0 && r.acked[0] == "x0"
		vote, _, err := r.g0.cert.Prepare(certifier.PreparedTxn{
			ID: tid(id), Coord: 0, Snapshot: 0,
			Writeset: ws("t", 0, fragVal(0, id)),
		})
		if err == nil && vote && x0Committed {
			panic("stale prepare voted yes past a committed conflict")
		}
		abortBoth(id, 1)
	}
	return r
}

// recoverTwoPCGroup power-cycles one group and rebuilds its certifier
// with the 2PC state restored.
func recoverTwoPCGroup(t *testing.T, g *twoPCGroup, keepUnsynced bool) *certifier.Certifier {
	t.Helper()
	g.mem.PowerCycle(keepUnsynced)
	w, rec, err := Open(Options{FS: g.mem, Fsync: true})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	t.Cleanup(func() { w.Close() })
	cert, err := certifier.Restore(&rec.Replay, rec.Base, w)
	if err != nil {
		t.Fatalf("restore 2pc: %v", err)
	}
	return cert
}

// hasFragment reports whether the group's recovered record log
// contains txn id's fragment value.
func hasFragment(c *certifier.Certifier, gi int, id string) bool {
	for _, rec := range c.Since(0) {
		for _, e := range rec.Writeset.Entries {
			if e.Value == fragVal(gi, id) {
				return true
			}
		}
	}
	return false
}

// checkTwoPCInvariants recovers both groups, runs the resolution
// protocol, and asserts atomicity and the acked-commit contract.
func checkTwoPCInvariants(t *testing.T, label string, r *twoPCRun, keepUnsynced bool) {
	t.Helper()
	c0 := recoverTwoPCGroup(t, r.g0, keepUnsynced)
	c1 := recoverTwoPCGroup(t, r.g1, keepUnsynced)

	// Resolution: every in-doubt participant asks the coordinator
	// group (0). An undecided transaction is presumed aborted — the
	// coordinator records the abort durably before answering.
	for _, c := range []*certifier.Certifier{c1, c0} {
		for _, p := range c.InDoubt() {
			commit, err := c0.Resolve(p.ID)
			if err != nil {
				t.Fatalf("%s: resolve %s: %v", label, p.ID, err)
			}
			if _, err := c.Decide(p.ID, commit); err != nil {
				t.Fatalf("%s: decide %s: %v", label, p.ID, err)
			}
			if err := c.Forget(p.ID); err != nil {
				t.Fatalf("%s: forget %s: %v", label, p.ID, err)
			}
		}
	}
	if n0, n1 := len(c0.InDoubt()), len(c1.InDoubt()); n0 != 0 || n1 != 0 {
		t.Fatalf("%s: in-doubt after resolution: %d/%d", label, n0, n1)
	}

	// Acked cross-shard commits survive at BOTH groups.
	for _, id := range r.acked {
		if !hasFragment(c0, 0, id) || !hasFragment(c1, 1, id) {
			t.Fatalf("%s: acked %s lost (g0=%v g1=%v)", label, id,
				hasFragment(c0, 0, id), hasFragment(c1, 1, id))
		}
	}
	// Explicitly aborted transactions left no fragment anywhere.
	for _, id := range r.aborted {
		if hasFragment(c0, 0, id) || hasFragment(c1, 1, id) {
			t.Fatalf("%s: aborted %s applied (g0=%v g1=%v)", label, id,
				hasFragment(c0, 0, id), hasFragment(c1, 1, id))
		}
	}
	// Atomicity for every cross-shard transaction, including the
	// unknown-outcome ones the resolution protocol settled: a fragment
	// is visible at group 0 iff it is visible at group 1.
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("x%d", i)
		if a, b := hasFragment(c0, 0, id), hasFragment(c1, 1, id); a != b {
			t.Fatalf("%s: half-applied %s: g0=%v g1=%v", label, id, a, b)
		}
	}
	// Acked single-shard commits survive in their group.
	for gi, c := range []*certifier.Certifier{c0, c1} {
		for _, val := range r.singles[gi] {
			found := false
			for _, rec := range c.Since(0) {
				for _, e := range rec.Writeset.Entries {
					if e.Value == val {
						found = true
					}
				}
			}
			if !found {
				t.Fatalf("%s: acked single-shard commit %q lost at group %d", label, val, gi)
			}
		}
	}
}

// TestTwoPCCrashSweep sweeps a kill over every filesystem operation of
// each group in turn, under both power-cycle models, with mid-write
// tears for multi-byte writes.
func TestTwoPCCrashSweep(t *testing.T) {
	dry := runTwoPCScript(-1, 0, -1, 0)
	if dry.cfs0Crashed() || dry.cfs1Crashed() {
		t.Fatal("dry run crashed")
	}
	if len(dry.acked) != 4 {
		t.Fatalf("dry run acked %d of 4", len(dry.acked))
	}
	checkTwoPCInvariants(t, "dry", dry, true)

	traces := [][]Op{dry.g0.cfs.Trace(), dry.g1.cfs.Trace()}
	for victim, trace := range traces {
		if len(trace) < 20 {
			t.Fatalf("group %d trace suspiciously small: %d ops", victim, len(trace))
		}
		for op, desc := range trace {
			cuts := []int{0}
			if desc.Kind == "write" && desc.Bytes > 1 {
				cuts = append(cuts, desc.Bytes/2)
			}
			for _, cut := range cuts {
				for _, keep := range []bool{false, true} {
					label := fmt.Sprintf("g%d op%d(%s %s %dB) cut=%d keep=%v",
						victim, op, desc.Kind, desc.Name, desc.Bytes, cut, keep)
					var r *twoPCRun
					if victim == 0 {
						r = runTwoPCScript(op, cut, -1, 0)
					} else {
						r = runTwoPCScript(-1, 0, op, cut)
					}
					if !r.crashed(victim) {
						t.Fatalf("%s: crash never fired", label)
					}
					checkTwoPCInvariants(t, label, r, keep)
				}
			}
		}
	}
}

func (r *twoPCRun) cfs0Crashed() bool { return r.g0.cfs.Crashed() }
func (r *twoPCRun) cfs1Crashed() bool { return r.g1.cfs.Crashed() }
func (r *twoPCRun) crashed(victim int) bool {
	if victim == 0 {
		return r.cfs0Crashed()
	}
	return r.cfs1Crashed()
}
