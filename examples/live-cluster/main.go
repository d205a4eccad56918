// Live cluster: run the actual replication middleware (§5), not the
// performance simulation — four multi-master replica servers on
// loopback whose certifier is replicated over all of them with Paxos.
// The example drives concurrent clients, stops a replica that does not
// lead certification, verifies the system keeps committing, and checks
// that the surviving replicas converge to identical contents.
package main

import (
	"fmt"
	"os"
	"slices"

	"repro/internal/client"
	"repro/internal/launch"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/workload"
)

func main() {
	const replicas = 4
	c, err := launch.Start(1, replicas, server.Options{
		Design:    "mm",
		Paxos:     true, // a leader and three backups, elected among the replicas
		EagerCert: true,
	})
	check(err)
	defer c.Close()
	cl := c.Clients[0]

	cat := workload.TPCWCatalog()
	const scale = 100 // 1/100th of the standard table sizes
	fmt.Printf("loading TPC-W schema on %d replicas...\n", replicas)
	check(repl.LoadCatalog(cl, cat, scale))

	mix := workload.TPCWShopping()
	fmt.Println("phase 1: 8 clients, healthy certifier group")
	res := repl.Drive(cl, cat, mix, 8, 50, scale, 7)
	report(res)

	// Stop a backup: the three survivors still hold a Paxos majority.
	down := -1
	for i, srv := range c.Servers[0] {
		if leading, _, _, _ := srv.Leader(); !leading {
			down = i
			break
		}
	}
	fmt.Printf("phase 2: replica %d (a certifier backup) stops; commits must continue (majority holds)\n", down)
	check(c.Servers[0][down].Close())
	res = repl.Drive(cl, cat, mix, 8, 50, scale, 8)
	report(res)
	if res.Errors > 0 {
		fmt.Fprintln(os.Stderr, "commits failed with one backup down")
		os.Exit(1)
	}

	survivors := slices.Delete(c.Addrs(0), down, down+1)
	fmt.Printf("convergence check across the %d surviving replicas... ", len(survivors))
	sc, err := client.New(client.Options{Servers: survivors, Design: "mm"})
	check(err)
	defer sc.Close()
	tables := make([]string, 0, len(cat.Tables))
	for name := range cat.Tables {
		tables = append(tables, name)
	}
	if err := repl.CheckConvergence(sc, tables); err != nil {
		fmt.Println("FAILED")
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println("ok")
}

func report(res repl.DriveResult) {
	fmt.Printf("  committed %d (reads %d, updates %d), aborts retried %d, errors %d\n",
		res.Commits, res.ReadCommits, res.UpdateCommits, res.Aborts, res.Errors)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
