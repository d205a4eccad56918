// Package sm implements the single-master replicated database of §5.2
// (Ganymed-style): the master database executes all update
// transactions under ordinary first-committer-wins snapshot isolation;
// slave databases are caches that execute read-only transactions and
// apply the master's writesets in commit order through their slave
// proxies — the only source of updates to a slave. The load balancer
// dispatches updates to the master and reads to the least-loaded
// replica, master included.
//
// No certifier is needed: the master's own concurrency control aborts
// conflicting updates, which is what makes the single-master design
// simpler to build (§2).
package sm

import (
	"errors"
	"fmt"

	"repro/internal/lb"
	"repro/internal/repl"
	"repro/internal/repl/pipeline"
	"repro/internal/sidb"
	"repro/internal/wal"
	"repro/internal/writeset"
)

// Journal is the durability surface a single-master cluster needs
// from a write-ahead log: the master's committed writesets are
// journaled through the database's apply-time hook (AppendApply, in
// commit order under the commit mutex) and Commit acknowledges only
// after Sync(Seq()) reports them durable. *wal.WAL implements it.
type Journal interface {
	AppendApply(local int64, ws writeset.Writeset) error
	Seq() int64
	Sync(seq int64) error
}

// SyncCommit blocks on the journal's group fsync after a commit was
// installed in the master database, gating the acknowledgement. A Sync
// failing with wal.ErrClosed is a graceful Close racing the in-flight
// commit — no disk failure, just an ambiguous outcome for the caller
// to surface. Any other failure is fail-stop: the commit is installed
// in memory but would roll back on restart, so limping on would serve
// state the slaves can never receive. Both single-master commit paths
// (the in-process Txn and the server's proxy) gate on this one helper
// so their crash behavior cannot diverge.
func SyncCommit(j Journal, version int64) error {
	if err := j.Sync(j.Seq()); err != nil {
		if errors.Is(err, wal.ErrClosed) {
			return fmt.Errorf("sm: commit durability unknown (shutting down): %w", err)
		}
		panic(fmt.Sprintf("sm: WAL sync failed after commit install (version %d): %v", version, err))
	}
	return nil
}

// Options configure a single-master cluster.
type Options struct {
	// Replicas is the total node count: 1 master + Replicas-1 slaves.
	Replicas int
	// Durable journals every master commit through Journal before it
	// is acknowledged (default off, preserving the in-memory behavior).
	// The single-master design needs no certifier, so durability rides
	// the master database's apply stream alone.
	Durable bool
	// Journal is the write-ahead log Durable commits flow through.
	Journal Journal
	// ApplyWorkers sizes each slave's conflict-aware parallel applier;
	// <= 1 preserves the serial behavior.
	ApplyWorkers int
}

// slave is one read-only replica plus its proxy state. The pipeline
// applier owns the apply lock and the applied cursor, which holds the
// absolute master version this slave has reached.
type slave struct {
	id int
	db *sidb.DB
	ap *pipeline.Applier
}

// Cluster is a running single-master system.
type Cluster struct {
	opts   Options
	master *sidb.DB
	slaves []*slave

	// wlog retains committed master writesets for propagation, keyed
	// by master version; slave apply cursors hold master versions.
	wlog *Log

	balancer *lb.Balancer // over all nodes: 0 = master, i>0 = slave i-1
}

// New creates a single-master cluster.
func New(opts Options) (*Cluster, error) {
	if opts.Replicas < 1 {
		return nil, fmt.Errorf("sm: %d replicas", opts.Replicas)
	}
	if opts.Durable && opts.Journal == nil {
		return nil, fmt.Errorf("sm: Durable requires a Journal")
	}
	c := &Cluster{
		opts:     opts,
		master:   sidb.New(),
		wlog:     NewLog(),
		balancer: lb.New(opts.Replicas),
	}
	if opts.Durable {
		j := opts.Journal
		c.master.SetJournal(func(ws writeset.Writeset, version int64) error {
			return j.AppendApply(version, ws)
		})
	}
	for i := 1; i < opts.Replicas; i++ {
		db := sidb.New()
		c.slaves = append(c.slaves, &slave{id: i, db: db, ap: pipeline.NewApplier(db, opts.ApplyWorkers)})
	}
	return c, nil
}

// Replicas returns the total node count.
func (c *Cluster) Replicas() int { return 1 + len(c.slaves) }

// CreateTable creates the table on the master and commits its schema
// writeset (writeset.Schema) there, so the slaves create it from the
// propagation log. The master refuses a table it already has.
func (c *Cluster) CreateTable(name string) error {
	if err := c.master.CreateTable(name); err != nil {
		return err
	}
	return c.commit(writeset.Schema(name))
}

// Load fills rows [0, rows) of a table with value(row), one master
// commit per repl.Chunks chunk.
func (c *Cluster) Load(table string, rows int, value func(int64) string) error {
	ids, values := repl.Rows(rows, value)
	return repl.Chunks(ids, values, func(rows []int64, values []string) error {
		return c.commit(writeset.Rows(table, rows, values))
	})
}

// commit installs ws on the master (Install) and publishes it.
func (c *Cluster) commit(ws writeset.Writeset) error {
	version, err := Install(c.master, ws)
	if err != nil {
		return err
	}
	return c.publish(version, ws)
}

// Install commits ws on the master database db at the next version,
// outside any transaction: the blind write of a schema or load record.
// A version a concurrent commit took first is retried at the next one.
func Install(db *sidb.DB, ws writeset.Writeset) (int64, error) {
	for {
		version := db.Version() + 1
		if err := db.ApplyWriteset(ws, version); !errors.Is(err, sidb.ErrStaleVersion) {
			return version, err
		}
	}
}

// publish makes a master commit durable (with Durable) and relays it
// to the slaves.
func (c *Cluster) publish(version int64, ws writeset.Writeset) error {
	if c.opts.Durable {
		// The writeset was journaled by the apply hook inside the
		// database commit; block on the group fsync before the commit
		// is acknowledged (or propagated).
		if err := SyncCommit(c.opts.Journal, version); err != nil {
			return err
		}
	}
	c.wlog.Append(version, ws)
	for _, s := range c.slaves {
		c.syncSlave(s)
	}
	return nil
}

// syncSlave applies the dense prefix of pending writesets at s. Master
// versions are dense (every commit increments by one), so the slave's
// apply stage drains the contiguous run past its cursor.
func (c *Cluster) syncSlave(s *slave) {
	s.ap.Apply(c.wlog.SinceDense(s.ap.Applied()))
}

// Sync drains the propagation log into every slave.
func (c *Cluster) Sync() {
	for _, s := range c.slaves {
		c.syncSlave(s)
	}
}

// GCLog prunes propagated writesets every slave has applied, returning
// the number of entries removed.
func (c *Cluster) GCLog() int {
	minApplied := c.master.Version() // no slave is ahead of the master
	for _, s := range c.slaves {
		minApplied = min(minApplied, s.ap.Applied())
	}
	return c.wlog.GCBelow(minApplied)
}

// TableDump snapshots a node's table: index 0 is the master, i>0 the
// (i-1)-th slave.
func (c *Cluster) TableDump(node int, table string) (map[int64]string, error) {
	var db *sidb.DB
	switch {
	case node == 0:
		db = c.master
	case node > 0 && node <= len(c.slaves):
		db = c.slaves[node-1].db
	default:
		return nil, fmt.Errorf("sm: node %d out of range", node)
	}
	return db.Dump(table)
}

// Txn is a client transaction. Updates run on the master; reads run on
// whichever node the balancer chose.
type Txn struct {
	cluster  *Cluster
	node     int // balancer index
	inner    *sidb.Txn
	readOnly bool
	done     bool
}

var _ repl.Txn = (*Txn)(nil)

// BeginRead starts a read-only transaction on the least-loaded node
// (master included, §5.2).
func (c *Cluster) BeginRead() (repl.Txn, error) {
	node := c.balancer.Acquire()
	var inner *sidb.Txn
	if node == 0 {
		inner = c.master.Begin()
	} else {
		s := c.slaves[node-1]
		s.ap.Pin(func(int64) { inner = s.db.Begin() })
	}
	return &Txn{cluster: c, node: node, inner: inner, readOnly: true}, nil
}

// BeginUpdate starts an update transaction on the master.
func (c *Cluster) BeginUpdate() (repl.Txn, error) {
	node, err := c.balancer.AcquireWhere(func(i int) bool { return i == 0 })
	if err != nil {
		return nil, err
	}
	return &Txn{cluster: c, node: node, inner: c.master.Begin()}, nil
}

// Read implements repl.Txn.
func (t *Txn) Read(table string, row int64) (string, bool, error) {
	return t.inner.Read(table, row)
}

// Write implements repl.Txn. Slave proxies reject writes: they are
// the only source of updates to their database.
func (t *Txn) Write(table string, row int64, value string) error {
	if t.readOnly {
		return repl.ErrReadOnlyTxn
	}
	return t.inner.Write(table, row, value)
}

// Delete implements repl.Txn.
func (t *Txn) Delete(table string, row int64) error {
	if t.readOnly {
		return repl.ErrReadOnlyTxn
	}
	return t.inner.Delete(table, row)
}

// Commit implements repl.Txn. Read-only transactions always commit.
// Updates commit at the master under first-committer-wins; on success
// the master proxy extracts the writeset (the trigger mechanism of
// §5.2) and hands it to the load balancer for relay to the slaves.
func (t *Txn) Commit() error {
	if t.done {
		return sidb.ErrTxnDone
	}
	t.done = true
	defer t.cluster.balancer.Release(t.node)

	ws, version, err := t.inner.Commit()
	if err != nil {
		if errors.Is(err, sidb.ErrConflict) {
			return fmt.Errorf("%w (%v)", repl.ErrAborted, err)
		}
		return err
	}
	if ws.Empty() {
		return nil
	}
	return t.cluster.publish(version, ws)
}

// Abort implements repl.Txn.
func (t *Txn) Abort() {
	if t.done {
		return
	}
	t.done = true
	t.inner.Abort()
	t.cluster.balancer.Release(t.node)
}

var _ repl.System = (*Cluster)(nil)
var _ repl.Loader = (*Cluster)(nil)
