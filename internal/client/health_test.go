package client_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/launch"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/workload"
)

// stopMidDrive passes a drive through its client and closes stop at
// the nth Begin.
type stopMidDrive struct {
	*client.Client
	n     atomic.Int64
	at    int64
	once  sync.Once
	reach chan struct{}
}

func (s *stopMidDrive) count() {
	if s.n.Add(1) == s.at {
		s.once.Do(func() { close(s.reach) })
	}
}

func (s *stopMidDrive) BeginRead() (repl.Txn, error)   { s.count(); return s.Client.BeginRead() }
func (s *stopMidDrive) BeginUpdate() (repl.Txn, error) { s.count(); return s.Client.BeginUpdate() }

// TestReplicaHealthEndToEnd pins the client's health rule on a
// three-replica cluster: a replica is down while its pool backs off.
// Stopping one mid-drive costs no transaction, the stopped replica's
// pool dials it at most once per backoff step, and once it restarts at
// its address it takes transactions again within one full step.
func TestReplicaHealthEndToEnd(t *testing.T) {
	c, err := launch.Start(1, 3, server.Options{Design: "mm"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	cl := c.Clients[0]
	mix := workload.TPCWShopping()
	cat, err := workload.CatalogFor(mix)
	if err != nil {
		t.Fatal(err)
	}
	const factor, clients, txns = 200, 4, 50
	if err := repl.LoadCatalog(cl, cat, factor); err != nil {
		t.Fatal(err)
	}

	// Stop replica 2 a quarter of the way into a drive.
	sys := &stopMidDrive{Client: cl, at: clients * txns / 4, reach: make(chan struct{})}
	done := make(chan repl.DriveResult, 1)
	go func() { done <- repl.Drive(sys, cat, mix, clients, txns, factor, 1) }()
	<-sys.reach
	c.Servers[0][2].Close()
	res := <-done
	if res.Errors != 0 || res.Commits+res.Unknown != clients*txns {
		t.Fatalf("drive across the stop: %d commits + %d unknown, %d errors (%s); want %d, 0 errors",
			res.Commits, res.Unknown, res.Errors, res.FirstError, clients*txns)
	}

	// While replica 2 is down every Begin lands on a survivor, and its
	// pool dials it at most once per backoff step. A step lasts at least
	// half its nominal length, so count the steps that fit.
	dials, start := cl.Dials(2), time.Now()
	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < time.Second+client.DialBackoffMax/2 {
				tx, err := cl.BeginRead()
				if err != nil {
					t.Errorf("begin with replica 2 down: %v", err)
					return
				}
				if err := tx.Commit(); err != nil {
					t.Errorf("commit with replica 2 down: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	window, got := time.Since(start), cl.Dials(2)-dials
	steps, step := int64(1), client.DialBackoffMin
	for sum := step / 2; sum <= window; sum += step / 2 {
		steps++
		step = min(2*step, client.DialBackoffMax)
	}
	if got > steps {
		t.Fatalf("replica 2's pool dialed %d times in %v, want at most %d (one per backoff step)", got, window, steps)
	}

	// Restart replica 2 at its address: its pool's next probe finds it.
	srv, err := server.New(c.Options[0][2])
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	c.Servers[0][2] = srv
	back := time.Now()
	for {
		tx, err := cl.BeginRead()
		if err != nil {
			t.Fatal(err)
		}
		slot := client.SlotOf(tx)
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if slot == 2 {
			break
		}
		if since := time.Since(back); since > client.DialBackoffMax+client.DialBackoffMax/2 {
			t.Fatalf("restarted replica 2 took no transaction in %v", since)
		}
		time.Sleep(time.Millisecond)
	}
	t.Logf("%d dials in %v while down (bound %d); back after %v", got, window, steps, time.Since(back))
}
