package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/client"
	"repro/internal/repl"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/workload"
)

// spec is one benchmark workload: a paper mix on one deployment shape
// of the live stack.
type spec struct {
	name     string
	mixID    string
	design   string // "mm" or "sm"
	groups   int    // hash-partitioned shard groups; 1 = no router
	replicas int    // replicas per group
	// durable gives every replica a WAL with group fsync and turns on
	// group commit at the certifier host.
	durable bool
}

// workloads are the benchmark's workloads. Each stresses a different
// layer while the others bypass it, so a change to one layer has a
// workload that should move and controls that should not.
var workloads = []spec{
	// 95% read-only: the read path does the work while the commit path
	// idles, the control for commit-path changes.
	{name: "tpcw-browsing-mm3", mixID: "tpcw-browsing", design: "mm", groups: 1, replicas: 3},
	// 50% updates through certify, journal, fsync, apply and propagation.
	{name: "tpcw-ordering-mm3-wal", mixID: "tpcw-ordering", design: "mm", groups: 1, replicas: 3, durable: true},
	// The paper's other design (no certifier) on 2.4x the TPC-W rows.
	{name: "rubis-bidding-sm3", mixID: "rubis-bidding", design: "sm", groups: 1, replicas: 3},
	// About half the updates span both groups and commit through 2PC.
	{name: "tpcw-ordering-shard2", mixID: "tpcw-ordering", design: "mm", groups: 2, replicas: 2},
}

func specByName(name string) (spec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// Load-model constants shared by every workload: a closed loop of
// benchClients goroutines with zero think time, one transaction in
// flight each, over pools of benchPoolSize connections per replica.
const (
	benchClients  = 2
	benchPoolSize = 2
)

// cluster is one booted deployment: every replica server of every
// group, one pooled client per group, and the system the load driver
// talks to (the router when there are several groups).
type cluster struct {
	servers []*server.Server
	clients []*client.Client
	sys     repl.System
	loader  repl.Loader
	addrs   []string // every replica's address, for Stats polling
	smap    router.Map
	walDir  string // parent of the replicas' WAL directories; "" when in memory
}

// boot starts the servers and clients of w on loopback. Server stage
// tracing is on only when traced; WAL directories live under walDir.
func boot(w spec, traced bool, walDir string) (*cluster, error) {
	c := &cluster{smap: router.Map{Shards: 1}}
	if w.durable {
		c.walDir = walDir
	}
	var groups []router.Group
	for g := 0; g < w.groups; g++ {
		var addrs []string
		for i := 0; i < w.replicas; i++ {
			opts := server.Options{
				Design:       w.design,
				ID:           i,
				Listen:       "127.0.0.1:0",
				Replicas:     w.replicas,
				DisableTrace: !traced,
			}
			if i > 0 {
				opts.Primary = addrs[0]
			}
			if w.groups > 1 {
				opts.ShardID, opts.ShardCount = g, w.groups
			}
			if w.durable {
				opts.WALDir = filepath.Join(walDir, fmt.Sprintf("g%d-r%d", g, i))
				opts.Fsync = true
				opts.GroupCommit = i == 0
			}
			srv, err := server.New(opts)
			if err != nil {
				c.close()
				return nil, fmt.Errorf("boot group %d replica %d: %w", g, i, err)
			}
			srv.Start()
			c.servers = append(c.servers, srv)
			addrs = append(addrs, srv.Addr())
		}
		cl, err := client.New(client.Options{Servers: addrs, Design: w.design, PoolSize: benchPoolSize})
		if err != nil {
			c.close()
			return nil, err
		}
		c.clients = append(c.clients, cl)
		c.addrs = append(c.addrs, addrs...)
		groups = append(groups, cl)
	}
	if w.groups == 1 {
		c.sys, c.loader = c.clients[0], c.clients[0]
		return c, nil
	}
	r, err := router.New(1, groups)
	if err != nil {
		c.close()
		return nil, err
	}
	c.sys, c.loader, c.smap = r, r, r.Map()
	return c, nil
}

// close stops clients, then servers in reverse boot order, then removes
// the WAL directories.
func (c *cluster) close() error {
	for _, cl := range c.clients {
		cl.Close()
	}
	var errs []error
	for i := len(c.servers) - 1; i >= 0; i-- {
		errs = append(errs, c.servers[i].Close())
	}
	if c.walDir != "" {
		errs = append(errs, os.RemoveAll(c.walDir))
	}
	return errors.Join(errs...)
}

// catalogRows is the row count repl.LoadCatalog gives a table.
func catalogRows(cat workload.Catalog, table string, factor int) int {
	rows := cat.Tables[table] / factor
	if rows < 10 {
		rows = 10
	}
	return rows
}
