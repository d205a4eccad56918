package server_test

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/internal/workload"
	"repro/internal/writeset"
)

// startPaxosCluster boots an n-node replicated-certifier cluster
// (launch.Start reserves the member addresses up front). All nodes run
// a WAL, proving Durable and the replicated certifier compose end to
// end. It returns the servers, their addresses and their options, from
// which a killed node restarts with its identity and WAL.
func startPaxosCluster(t *testing.T, n int, tweak func(*server.Options)) ([]*server.Server, []string, []server.Options) {
	t.Helper()
	c := launchCluster(t, 1, n, server.Options{
		Design:       "mm",
		Paxos:        true,
		ElectTimeout: 200 * time.Millisecond,
		WALDir:       t.TempDir(),
		GroupCommit:  true,
	}, tweak)
	return c.Servers[0], c.Addrs(0), c.Options[0]
}

// waitOneLeader polls until exactly one live server reports leading
// (dead is the index of a killed server to skip, -1 for none) and
// returns its index.
func waitOneLeader(t *testing.T, servers []*server.Server, dead int) int {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		count, idx := 0, -1
		for i, s := range servers {
			if i == dead || s == nil {
				continue
			}
			if leading, _, _, ok := s.Leader(); ok && leading {
				count++
				idx = i
			}
		}
		if count == 1 {
			return idx
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("no single certifier leader elected within 10s")
	return -1
}

// TestPaxosLeaderFailover is the server-level acceptance test of the
// replicated certifier: a three-node durable cluster elects a leader,
// serves a workload, loses the leader, elects a successor with a
// higher epoch, and keeps serving — with the survivors convergent.
// Under sm the leader is the master: killing it moves the update site,
// and the client follows it by redirect.
func TestPaxosLeaderFailover(t *testing.T) {
	for _, design := range []string{"mm", "sm"} {
		t.Run(design, func(t *testing.T) { paxosLeaderFailover(t, design) })
	}
}

func paxosLeaderFailover(t *testing.T, design string) {
	servers, addrs, _ := startPaxosCluster(t, 3, func(o *server.Options) { o.Design = design })
	lead := waitOneLeader(t, servers, -1)
	_, _, epoch0, ok := servers[lead].Leader()
	if !ok {
		t.Fatal("leader does not report a replicated certifier")
	}

	mix := workload.TPCWShopping()
	cat, err := workload.CatalogFor(mix)
	if err != nil {
		t.Fatal(err)
	}
	const factor = 200
	cl, err := client.New(client.Options{Servers: addrs, Design: design})
	if err != nil {
		t.Fatal(err)
	}
	if err := repl.LoadCatalog(cl, cat, factor); err != nil {
		cl.Close()
		t.Fatalf("load: %v", err)
	}
	res := repl.Drive(cl, cat, mix, 4, 25, factor, 1)
	cl.Close()
	if res.Errors != 0 {
		t.Fatalf("pre-failover drive errors: %+v", res)
	}
	// Under scheduler pressure a spurious election can race the drive;
	// a commit caught mid-handover legitimately ends unknown, so the
	// accounting invariant is commits+unknown, not an exact count.
	if res.Commits+res.Unknown != 100 {
		t.Fatalf("pre-failover commits+unknown = %d+%d, want 100", res.Commits, res.Unknown)
	}

	// Kill the leader. The survivors hold a majority, so one of them
	// must win a higher epoch and take over certification.
	servers[lead].Close()
	newLead := waitOneLeader(t, servers, lead)
	if newLead == lead {
		t.Fatalf("dead node %d still reported as leader", lead)
	}
	_, _, epoch1, _ := servers[newLead].Leader()
	if !epoch0.Less(epoch1) {
		t.Fatalf("failover did not advance the epoch: %+v -> %+v", epoch0, epoch1)
	}

	// The new leader goes last, so an sm client reaches it only by
	// following a redirect from the first survivor.
	survivors := make([]string, 0, len(addrs)-1)
	for i, a := range addrs {
		if i != lead && i != newLead {
			survivors = append(survivors, a)
		}
	}
	survivors = append(survivors, addrs[newLead])
	cl2, err := client.New(client.Options{Servers: survivors, Design: design})
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	res2 := repl.Drive(cl2, cat, mix, 4, 25, factor, 1)
	if res2.Errors != 0 {
		t.Fatalf("post-failover drive errors: %+v", res2)
	}
	if res2.Commits+res2.Unknown != 100 {
		t.Fatalf("post-failover commits+unknown = %d+%d, want 100", res2.Commits, res2.Unknown)
	}

	tables := make([]string, 0, len(cat.Tables))
	for name := range cat.Tables {
		tables = append(tables, name)
	}
	if err := repl.CheckConvergence(cl2, tables); err != nil {
		t.Fatalf("survivor convergence: %v", err)
	}

	// The fencing invariant at the view level: the survivors settle on
	// exactly one node that believes it leads. Polled, not sampled — a
	// spurious election racing the drive leaves the outgoing leader
	// momentarily unaware it was deposed (fencing only guarantees it
	// cannot ack commits, not that its local flag flips instantly).
	waitOneLeader(t, servers, lead)
}

// TestPaxosLeaderRestartRejoins restarts a killed leader from its WAL
// and acceptor log: it must come back with its promises and data
// intact, rejoin the group, and converge with the others (whether it
// retakes leadership or follows the incumbent).
func TestPaxosLeaderRestartRejoins(t *testing.T) {
	servers, addrs, optsAll := startPaxosCluster(t, 3, nil)
	lead := waitOneLeader(t, servers, -1)

	mix := workload.TPCWShopping()
	cat, err := workload.CatalogFor(mix)
	if err != nil {
		t.Fatal(err)
	}
	const factor = 200
	cl, err := client.New(client.Options{Servers: addrs, Design: "mm"})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := repl.LoadCatalog(cl, cat, factor); err != nil {
		t.Fatalf("load: %v", err)
	}
	res := repl.Drive(cl, cat, mix, 2, 20, factor, 1)
	if res.Errors != 0 {
		t.Fatalf("drive errors: %+v", res)
	}

	servers[lead].Close()
	waitOneLeader(t, servers, lead)

	// Reboot the dead node with its old identity, address and WAL
	// directory. Its acceptor state and database replay from disk.
	restarted, err := server.New(optsAll[lead])
	if err != nil {
		t.Fatalf("restart node %d: %v", lead, err)
	}
	restarted.Start()
	servers[lead] = restarted
	t.Cleanup(func() { restarted.Close() })

	waitOneLeader(t, servers, -1)
	res2 := repl.Drive(cl, cat, mix, 2, 20, factor, 1)
	if res2.Errors != 0 {
		t.Fatalf("post-restart drive errors: %+v", res2)
	}

	tables := make([]string, 0, len(cat.Tables))
	for name := range cat.Tables {
		tables = append(tables, name)
	}
	if err := repl.CheckConvergence(cl, tables); err != nil {
		t.Fatalf("post-restart convergence: %v", err)
	}
}

// TestPaxosLaggingBackupPromotesAndRestarts: a backup that restarts
// behind the group and then wins the election must still journal one
// dense record stream — the versions it had not yet applied reach its
// log through its own apply path before its certifier journals newer
// ones — so it restarts from that log again and converges.
func TestPaxosLaggingBackupPromotesAndRestarts(t *testing.T) {
	servers, addrs, opts := startPaxosCluster(t, 3, nil)
	lead := waitOneLeader(t, servers, -1)
	var b, c int
	switch lead {
	case 0:
		b, c = 1, 2
	case 1:
		b, c = 0, 2
	default:
		b, c = 0, 1
	}
	clientOf := func(nodes ...int) *client.Client {
		t.Helper()
		var sv []string
		for _, i := range nodes {
			sv = append(sv, addrs[i])
		}
		cl, err := client.New(client.Options{Servers: sv, Design: "mm"})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cl.Close)
		return cl
	}
	// commitSettled commits one row, retrying the unknown outcomes an
	// election in progress leaves.
	commitSettled := func(cl *client.Client, row int64, value string) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(50 * time.Millisecond) {
			tx, err := cl.BeginUpdate()
			if err == nil {
				if err = tx.Write("t", row, value); err == nil {
					err = tx.Commit()
				}
			}
			if err == nil {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("commit row %d: %v", row, err)
			}
		}
	}
	restart := func(i int, o server.Options) {
		t.Helper()
		srv, err := server.New(o)
		if err != nil {
			t.Fatalf("restart node %d from its WAL: %v", i, err)
		}
		srv.Start()
		servers[i] = srv
		t.Cleanup(func() { srv.Close() })
	}

	all := clientOf(0, 1, 2)
	if err := all.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 5; i++ {
		commitSettled(all, i, "all")
	}
	all.Sync()

	// b falls behind, then the leader dies: b restarts lagging while the
	// quorum's log (on c) holds versions b never applied. c restarts too,
	// with an election timer that does not fire within the test, so the
	// lagging b is the one candidate and must win.
	servers[b].Close()
	pair := clientOf(lead, c)
	for i := int64(5); i < 10; i++ {
		commitSettled(pair, i, "without-b")
	}
	servers[lead].Close()
	servers[c].Close()
	restart(b, opts[b])
	patient := opts[c]
	patient.ElectTimeout = time.Hour
	restart(c, patient)
	if newLead := waitOneLeader(t, servers, lead); newLead != b {
		t.Fatalf("node %d leads after the failover; the lagging node %d should", newLead, b)
	}
	commitSettled(clientOf(b, c), 10, "after-failover")

	// Both survivors restart from their logs and converge.
	servers[b].Close()
	servers[c].Close()
	restart(b, opts[b])
	restart(c, opts[c])
	waitOneLeader(t, servers, lead)
	final := clientOf(b, c)
	commitSettled(final, 11, "after-restart")
	final.Sync()
	for i := 0; i < 2; i++ {
		rows, err := final.TableDump(i, "t")
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 12 || rows[9] != "without-b" || rows[10] != "after-failover" || rows[11] != "after-restart" {
			t.Fatalf("survivor %d holds %v", i, rows)
		}
	}
}

// TestMissedMajorityIsUnknownOutcome: a leader whose phase 2 misses
// its majority acknowledges nothing. Its term ends there, the client
// learns the commit's outcome is unknown — the next campaign may yet
// choose its value — and the leader steps down naming no leader.
func TestMissedMajorityIsUnknownOutcome(t *testing.T) {
	c := launchCluster(t, 1, 3, server.Options{Design: "mm", Paxos: true, ElectTimeout: 200 * time.Millisecond}, nil)
	if err := c.Clients[0].CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	servers := c.Servers[0]
	lead := waitOneLeader(t, servers, -1)
	for i, s := range servers {
		if i != lead {
			s.Close()
		}
	}
	cl, err := client.New(client.Options{Servers: []string{c.Addrs(0)[lead]}, Design: "mm"})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	tx, err := cl.BeginUpdate()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Write("t", 1, "v"); err != nil {
		t.Fatal(err)
	}
	var unknown *repl.UnknownOutcomeError
	if err := tx.Commit(); !errors.As(err, &unknown) {
		t.Fatalf("commit on a leader that lost its majority: %v, want an unknown outcome", err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; {
		leading, leader, _, _ := servers[lead].Leader()
		if !leading {
			if leader != -1 {
				t.Fatalf("the leader stepped down naming leader %d, want none (-1)", leader)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the leader still leads 5s after its term ended")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRelayedMissedMajorityIsUnknownOutcome: a backup relays its
// client's commit to a leader whose phase 2 then misses its majority.
// The leader's answer names no leader but its ended term, so the relay
// returns it at once instead of resending: a resent copy would meet
// the orphaned vote the next campaign recovers, conflict with it and
// report aborted a transaction that may have committed. The client
// learns the outcome is unknown, never an abort. Node 0 reaches node 1
// at an address nobody serves, so node 0 leads over {0, 2}, and
// closing node 2 cuts its majority while node 1 still reaches it.
func TestRelayedMissedMajorityIsUnknownOutcome(t *testing.T) {
	addrs := make([]string, 4)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	members, unserved := addrs[:3], addrs[3]
	servers := make([]*server.Server, 3)
	for i := range servers {
		opts := server.Options{
			Design: "mm", Paxos: true, ElectTimeout: 200 * time.Millisecond,
			ID: i, Listen: members[i], Replicas: 3, Members: members,
		}
		if i == 0 {
			opts.Members = []string{members[0], unserved, members[2]}
		}
		srv, err := server.New(opts)
		if err != nil {
			t.Fatal(err)
		}
		srv.Start()
		t.Cleanup(func() { srv.Close() })
		servers[i] = srv
	}
	if lead := waitOneLeader(t, servers, -1); lead != 0 {
		t.Fatalf("node %d leads, want node 0", lead)
	}
	dial := func(addr string) *client.Client {
		cl, err := client.New(client.Options{Servers: []string{addr}, Design: "mm"})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		return cl
	}
	if err := dial(members[0]).CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	backup := dial(members[1])
	commit := func(row int64) error {
		tx, err := backup.BeginUpdate()
		if err != nil {
			return err
		}
		if err := tx.Write("t", row, "v"); err != nil {
			tx.Abort()
			return err
		}
		return tx.Commit()
	}
	// The relay works while node 0 holds its majority (once node 1 has
	// fetched the table).
	for deadline := time.Now().Add(5 * time.Second); ; {
		err := commit(0)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("commit through backup 1 before the cut: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	servers[2].Close()
	err := commit(1)
	var unknown *repl.UnknownOutcomeError
	if errors.Is(err, repl.ErrAborted) || !errors.As(err, &unknown) {
		t.Fatalf("commit relayed to a leader that lost its majority: %v, want an unknown outcome", err)
	}
}

// TestRelayedLostReplyIsUnknownOutcome: a backup relays its client's
// commit to a host that reads the request and closes the connection,
// so the relay cannot know whether the host acted on it. The client
// learns the outcome is unknown — not an internal fault, never an
// abort — and the relay does not send the request again. The host is
// a stand-in speaking the wire protocol: it serves the table's schema
// record to the backup's fetches and drops every certification.
func TestRelayedLostReplyIsUnknownOutcome(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var certifies atomic.Int64
	go standInHost(ln, &certifies)

	srv, err := server.New(server.Options{Design: "mm", ID: 1, Listen: "127.0.0.1:0", Primary: ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	t.Cleanup(func() { srv.Close() })
	cl, err := client.New(client.Options{Servers: []string{srv.Addr()}, Design: "mm"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)

	// Write once the backup has fetched the table.
	var tx repl.Txn
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		if tx, err = cl.BeginUpdate(); err != nil {
			t.Fatal(err)
		}
		if err = tx.Write("t", 1, "v"); err == nil {
			break
		}
		tx.Abort()
		if time.Now().After(deadline) {
			t.Fatalf("backup never learned the table: %v", err)
		}
	}
	err = tx.Commit()
	var unknown *repl.UnknownOutcomeError
	if errors.Is(err, repl.ErrAborted) || !errors.As(err, &unknown) {
		t.Fatalf("commit whose relayed reply was lost: %v, want an unknown outcome", err)
	}
	if n := certifies.Load(); n != 1 {
		t.Fatalf("the host read %d copies of the relayed commit, want 1", n)
	}
}

// standInHost serves ln as a certifier host that has committed one
// record, table t's schema, and that reads each certification request
// (counting it in certifies) and then closes the connection unanswered.
func standInHost(ln net.Listener, certifies *atomic.Int64) {
	for {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		go func() {
			defer nc.Close()
			wc := wire.NewConn(nc)
			for {
				msg, err := wc.Recv()
				if err != nil {
					return
				}
				var reply wire.Message
				switch m := msg.(type) {
				case *wire.Hello:
					reply = &wire.HelloOK{Proto: wire.ProtoVersion, Design: "mm"}
				case *wire.FetchSince:
					recs := &wire.Records{}
					if m.Version < 1 {
						recs.Recs = []wire.Record{{Version: 1, WS: writeset.Schema("t")}}
					} else {
						time.Sleep(min(time.Duration(m.WaitMillis)*time.Millisecond, 100*time.Millisecond))
					}
					reply = recs
				case *wire.Certify:
					certifies.Add(1)
					return
				default:
					reply = &wire.Err{Code: wire.CodeUnsupported, Msg: fmt.Sprintf("stand-in host: %T", msg)}
				}
				if wc.Send(reply) != nil {
					return
				}
			}
		}()
	}
}

// TestBackupViewReadsPromise: a backup reads who leads from its own
// acceptor's promise, so after an election each backup names the
// leader and its epoch, and reports that epoch in its stats. A backup
// the campaign did not reach learns the epoch from the leader's next
// accept, so the test commits until every backup has seen one.
func TestBackupViewReadsPromise(t *testing.T) {
	c := launchCluster(t, 1, 3, server.Options{Design: "mm", Paxos: true, ElectTimeout: 200 * time.Millisecond}, nil)
	cl := c.Clients[0]
	if err := cl.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	servers := c.Servers[0]
	lead := waitOneLeader(t, servers, -1)
	_, _, epoch, _ := servers[lead].Leader()
	for row, deadline := int64(0), time.Now().Add(5*time.Second); ; row++ {
		var wrong []string
		stats, err := c.Stats(0)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range servers {
			if i == lead {
				continue
			}
			leading, leader, e, _ := s.Leader()
			if leading || leader != lead || e != epoch {
				wrong = append(wrong, fmt.Sprintf("backup %d: leading %v, leader %d, epoch %s; want leader %d at epoch %s", i, leading, leader, e, lead, epoch))
			}
			if stats[i].Epoch != stats[lead].Epoch || stats[i].Epoch != int64(epoch.Round) {
				wrong = append(wrong, fmt.Sprintf("backup %d reports epoch %d in its stats, the leader %d", i, stats[i].Epoch, stats[lead].Epoch))
			}
		}
		if len(wrong) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("after %d commits:\n%s", row, strings.Join(wrong, "\n"))
		}
		tx, err := cl.BeginUpdate()
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Write("t", row, "v"); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}
