// Auction invariants: run the RUBiS auction application on four
// multi-master replica servers with a Paxos-replicated certifier and
// concurrent bidders, and prove the integrity properties that
// snapshot-isolation replication must provide — the recorded highest
// bid always equals the maximum over the bid records, buy-now never
// oversells, user ratings equal the sum of their comments, and every
// replica converges to identical state.
package main

import (
	"fmt"
	"os"

	"repro/internal/app"
	"repro/internal/launch"
	"repro/internal/server"
)

func main() {
	const replicas = 4
	c, err := launch.Start(1, replicas, server.Options{Design: "mm", Paxos: true, EagerCert: true})
	check(err)
	defer c.Close()
	cl := c.Clients[0]

	const (
		items = 25
		users = 40
	)
	site, err := app.NewRUBiS(cl, cl, items, users)
	check(err)

	fmt.Printf("auction site: %d items, %d users, %d replicas, Paxos-replicated certifier\n", items, users, replicas)
	fmt.Println("running 12 concurrent bidders, 30 interaction cycles each...")

	inv, err := site.RunMixed(12, 30, 2026)
	if err != nil {
		fmt.Fprintf(os.Stderr, "integrity violation: %v\n", err)
		os.Exit(1)
	}

	fmt.Println("\nintegrity audit passed on every replica:")
	fmt.Printf("  items audited:       %d\n", inv.Items)
	fmt.Printf("  bids recorded:       %d (every item's maxbid == max of its bids)\n", inv.Bids)
	fmt.Printf("  comments recorded:   %d (every rating == sum of comments)\n", inv.Comments)
	fmt.Printf("  sum of maxbids:      %d (identical on all %d replicas)\n", inv.MaxBids, replicas)

	stats, err := c.Stats(0)
	check(err)
	var commits, aborts int64
	for _, st := range stats {
		commits += st.UpdateCommits
		aborts += st.Aborts
	}
	fmt.Printf("\ncertifier: %d commits, %d write-write aborts (retried by clients)\n", commits, aborts)
	if aborts == 0 {
		fmt.Println("note: contention was low this run; raise bidders or shrink items to see aborts")
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
