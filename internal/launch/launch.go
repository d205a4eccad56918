// Package launch boots replicated clusters of real replica servers on
// loopback: one or more hash-partitioned groups of N replica servers,
// all derived from one template server.Options, plus one pooled client
// per group. It is the one way to stand up a multi-replica cluster
// inside a process — `replicadb run`, the examples and the integration
// tests of the application, router and design packages all go through
// it, so they exercise the same stack a multi-process deployment runs.
//
// Sharded callers wrap the clients in router.New themselves; this
// package does not import the router, so the router's own tests can
// use it.
package launch

import (
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"time"

	"repro/internal/client"
	"repro/internal/server"
	"repro/internal/wire"
)

// Cluster is a running set of replica groups.
type Cluster struct {
	// Servers[g][i] is replica i of group g; replica 0 is the group's
	// primary (the certifier host under mm without Paxos, the master
	// under sm).
	Servers [][]*server.Server
	// Options[g][i] are the options Servers[g][i] was started with:
	// server.New(Options[g][i]) restarts that replica with its identity,
	// address and WAL directory. A caller that does so stores the new
	// server in Servers so Close stops it.
	Options [][]server.Options
	// Clients[g] is a pooled client over group g's replicas.
	Clients []*client.Client
}

// replicaOptions derives replica i of group g from the template:
// its id, its listen address, the group's size and member list (so the
// primary publishes every member's address), its primary's address
// unless Paxos makes the member list the certification group, its
// shard coordinates when there are several groups and its own WAL
// directory under tmpl.WALDir. Group commit stays on the certifier
// host only, unless Paxos makes every member a potential host. addrs
// holds the group's addresses, indexed by replica id.
func replicaOptions(tmpl server.Options, groups, replicas, g, i int, addrs []string) server.Options {
	o := tmpl
	o.ID = i
	o.Listen = addrs[i]
	o.Replicas = replicas
	o.Members = addrs
	if groups > 1 {
		o.ShardID, o.ShardCount = g, groups
	}
	if tmpl.WALDir != "" {
		o.WALDir = filepath.Join(tmpl.WALDir, fmt.Sprintf("g%d-r%d", g, i))
	}
	if !tmpl.Paxos && i > 0 {
		o.Primary = addrs[0]
		o.GroupCommit = false
	}
	return o
}

// Validate reports the first rule a replica derived from tmpl breaks
// (server.Options.Validate), without binding anything.
func Validate(groups, replicas int, tmpl server.Options) error {
	if groups < 1 || replicas < 1 {
		return fmt.Errorf("launch: need at least one group of one replica (got %d x %d)", groups, replicas)
	}
	addrs := make([]string, replicas)
	for i := range addrs {
		addrs[i] = "127.0.0.1:0"
	}
	for i := range replicas {
		if err := replicaOptions(tmpl, groups, replicas, 0, i, addrs).Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Start validates the template, then boots every group's servers in
// replica order and a client over each group; with Paxos it returns
// once each group has elected its first certifier leader. On error
// everything already started is torn down.
func Start(groups, replicas int, tmpl server.Options) (*Cluster, error) {
	if err := Validate(groups, replicas, tmpl); err != nil {
		return nil, err
	}
	c := &Cluster{}
	for g := 0; g < groups; g++ {
		if err := c.startGroup(groups, replicas, g, tmpl); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// startGroup boots group g and its client.
func (c *Cluster) startGroup(groups, replicas, g int, tmpl server.Options) error {
	// Every replica needs the complete address list before any of them
	// listens, so the ports are reserved (and released) up front and
	// each server binds its pre-assigned address; the tiny reuse race
	// is acceptable on loopback.
	addrs, err := reserve(replicas)
	if err != nil {
		return err
	}
	c.Servers = append(c.Servers, nil)
	c.Options = append(c.Options, nil)
	for i := 0; i < replicas; i++ {
		opts := replicaOptions(tmpl, groups, replicas, g, i, addrs)
		srv, err := server.New(opts)
		if err != nil {
			return fmt.Errorf("launch: group %d replica %d: %w", g, i, err)
		}
		srv.Start()
		c.Servers[g] = append(c.Servers[g], srv)
		c.Options[g] = append(c.Options[g], opts)
	}
	if tmpl.Paxos {
		if err := waitLeader(c.Servers[g]); err != nil {
			return fmt.Errorf("launch: group %d: %w", g, err)
		}
	}
	cl, err := client.New(client.Options{Servers: addrs, Design: tmpl.Design})
	if err != nil {
		return err
	}
	c.Clients = append(c.Clients, cl)
	return nil
}

// waitLeader polls until one of the servers leads certification: a
// fresh Paxos group answers NotLeader until its first election settles
// (node 0 campaigns at once).
func waitLeader(servers []*server.Server) error {
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		for _, s := range servers {
			if leading, _, _, _ := s.Leader(); leading {
				return nil
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	return errors.New("no certifier leader elected within 10s")
}

// reserve grabs n distinct loopback addresses by binding and releasing
// listeners.
func reserve(n int) ([]string, error) {
	addrs := make([]string, n)
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

// Addrs returns group g's replica addresses indexed by replica id.
func (c *Cluster) Addrs(g int) []string {
	addrs := make([]string, len(c.Options[g]))
	for i, o := range c.Options[g] {
		addrs[i] = o.Listen
	}
	return addrs
}

// Stats polls every replica of group g for its Stats counters, indexed
// by replica id.
func (c *Cluster) Stats(g int) ([]*wire.StatsOK, error) {
	design := c.Options[g][0].Design
	out := make([]*wire.StatsOK, len(c.Options[g]))
	for i, addr := range c.Addrs(g) {
		link := client.NewLink(addr, design, -1, time.Second)
		st, err := link.Stats()
		link.Close()
		if err != nil {
			return nil, fmt.Errorf("launch: stats of group %d replica %d: %w", g, i, err)
		}
		out[i] = st
	}
	return out, nil
}

// Close stops the clients, then every server in reverse boot order.
// Servers the caller already closed are skipped (Close is idempotent).
func (c *Cluster) Close() error {
	for _, cl := range c.Clients {
		cl.Close()
	}
	var errs []error
	for g := len(c.Servers) - 1; g >= 0; g-- {
		for i := len(c.Servers[g]) - 1; i >= 0; i-- {
			errs = append(errs, c.Servers[g][i].Close())
		}
	}
	return errors.Join(errs...)
}
