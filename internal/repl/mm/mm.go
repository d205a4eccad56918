// Package mm implements the multi-master replicated database of §5.1
// (Tashkent-style): every replica executes both read-only and update
// transactions against its local snapshot-isolated database; a proxy
// extracts writesets eagerly, a replicated certifier detects
// system-wide write-write conflicts and assigns global versions, and
// committed writesets are propagated to all other replicas and applied
// in commit order.
//
// Under generalized snapshot isolation a transaction's snapshot is the
// latest version its replica has applied — possibly older than the
// globally latest — so it is available without communication; the
// certifier closes the gap at commit time.
package mm

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/certifier"
	"repro/internal/lb"
	"repro/internal/paxos"
	"repro/internal/repl"
	"repro/internal/repl/pipeline"
	"repro/internal/sidb"
	"repro/internal/writeset"
)

// CertService is the certification surface the cluster depends on:
// commit-time certification, the eager conflict probe, and writeset
// retrieval for propagation. A local *certifier.Certifier satisfies it
// directly; the networked server injects a remote implementation that
// speaks the wire protocol to the certifier host, which is how a
// single-replica Cluster becomes one node of a multi-process
// multi-master system.
type CertService interface {
	// Certify submits a commit-time certification request.
	Certify(snapshot int64, ws writeset.Writeset) (certifier.Outcome, error)
	// Check probes a partial writeset for an already-certain conflict
	// (eager certification, §5.1) without committing anything.
	Check(snapshot int64, ws writeset.Writeset) (conflict bool, with int64)
	// Since returns every certified record with version > v in
	// ascending version order.
	Since(v int64) []certifier.Record
}

// TracedCertService is optionally implemented by certification
// services that carry a cross-node trace id with each request
// (pipeline.HostCert locally, the wire Link/LeaderRing remotely). The
// cluster routes through it when available so commit-path spans stitch
// across nodes; plain CertServices keep working untraced.
type TracedCertService interface {
	CertifyTraced(snapshot int64, ws writeset.Writeset, trace uint64) (certifier.Outcome, error)
}

// TwoPCService is optionally implemented by certification services
// that support the cross-shard two-phase commit protocol
// (pipeline.HostCert locally, the wire Link remotely). A cluster whose
// service lacks it cannot participate in cross-shard transactions.
type TwoPCService interface {
	PrepareTxn(p certifier.PreparedTxn) (vote bool, conflictWith int64, err error)
	DecideTxn(id string, commit bool) (version int64, err error)
	ResolveTxn(id string) (commit bool, err error)
	ForgetTxn(id string) error
}

// Options configure a multi-master cluster.
type Options struct {
	// Replicas is the number of database replicas (>= 1).
	Replicas int
	// ReplicatedCertifier runs the certifier over a 3-node Paxos group
	// (leader + two backups), as in the paper's deployment.
	ReplicatedCertifier bool
	// EagerCertification makes the proxy certify partial writesets on
	// every write, aborting doomed transactions early (§5.1). Commit
	// certification happens regardless.
	EagerCertification bool
	// GroupCommit routes commit certification through a batching
	// front end that amortizes one Paxos round (and one certifier
	// lock acquisition) over all concurrently committing transactions,
	// the way the paper's certifier logs writesets in batches (§6.3).
	// Decisions are identical to sequential certification.
	GroupCommit bool
	// MaxBatch caps one group commit; zero selects the certifier's
	// default. Ignored unless GroupCommit is set.
	MaxBatch int
	// Cert injects an external certification service — typically a
	// remote certifier reached over the wire protocol. When set,
	// ReplicatedCertifier, GroupCommit and MaxBatch are ignored: the
	// injected service owns those concerns.
	Cert CertService
	// AsyncApply acknowledges a commit as soon as its writeset is
	// durable at the certifier, leaving application at the origin
	// replica to the background propagation path (Sync/ApplyRecords)
	// like every other replica — the paper's commit rule (§5.1).
	// The networked server sets this on non-certifier nodes so a
	// commit does not re-download the unapplied backlog its puller is
	// already fetching; the trade is that the next transaction on the
	// same replica may not yet see this commit (GSI allows that).
	AsyncApply bool
	// Durable journals every certified writeset through Journal before
	// the commit is acknowledged (default off, preserving the purely
	// in-memory behavior). Group commit composes: a batch is staged as
	// one journal append and one sync. ReplicatedCertifier composes
	// too: the Paxos quorum is then the durability authority and the
	// journal becomes a local restart cache whose failures detach it
	// rather than failing commits. Ignored when Cert injects an
	// external certification service — the remote host owns durability.
	Durable bool
	// Journal is the write-ahead log Durable commits flow through
	// (typically a *wal.WAL); required when Durable is set.
	Journal certifier.Journal
	// ApplyWorkers sizes each replica's conflict-aware parallel
	// applier: non-conflicting remote writesets install concurrently
	// across the database's lock shards, while versions still retire
	// strictly in order. <= 1 preserves the serial behavior.
	ApplyWorkers int
}

// replica is one database node plus its proxy state. The pipeline
// applier owns both the apply lock and the applied cursor (highest
// global version applied locally).
type replica struct {
	id int
	db *sidb.DB
	ap *pipeline.Applier
	// ready is false while an elastically added replica installs its
	// state transfer; the propagation paths skip not-ready replicas
	// (their database lacks the schema until the snapshot lands).
	// Reading a stale false only delays propagation by one pull.
	ready atomic.Bool
}

// newReplica builds one node with its apply stage.
func newReplica(id, workers int) *replica {
	db := sidb.New()
	return &replica{id: id, db: db, ap: pipeline.NewApplier(db, workers)}
}

// Cluster is a running multi-master system. Membership is elastic:
// AddReplica clones the primary's state into a fresh node and admits
// it into routing, RemoveReplica retires one (§5's cluster, grown and
// shrunk online).
type Cluster struct {
	opts      Options
	cert      CertService
	batcher   *certifier.Batcher    // nil unless GroupCommit
	transport *paxos.LocalTransport // nil unless replicated
	balancer  *lb.Balancer

	// mu guards the slots slice itself; slot indices are stable and
	// shared with the balancer (removed slots are tombstoned there).
	mu    sync.RWMutex
	slots []*replica

	ddlMu sync.Mutex // serializes CreateTable's existence check and commit
}

// New creates a multi-master cluster.
func New(opts Options) (*Cluster, error) {
	if opts.Replicas < 1 {
		return nil, fmt.Errorf("mm: %d replicas", opts.Replicas)
	}
	if opts.Durable && opts.Journal == nil && opts.Cert == nil {
		return nil, fmt.Errorf("mm: Durable requires a Journal")
	}
	c := &Cluster{opts: opts, balancer: lb.New(opts.Replicas)}
	for i := 0; i < opts.Replicas; i++ {
		r := newReplica(i, opts.ApplyWorkers)
		r.ready.Store(true)
		c.slots = append(c.slots, r)
	}
	switch {
	case opts.Cert != nil:
		c.cert = opts.Cert
	case opts.ReplicatedCertifier:
		cert, tr, err := certifier.NewReplicated(3)
		if err != nil {
			return nil, err
		}
		c.cert, c.transport = cert, tr
		if opts.Durable {
			// The Paxos quorum is the durability authority; the journal
			// rides along as a local restart cache and detaches on
			// failure instead of blocking commits.
			cert.SetJournal(opts.Journal)
		}
		if opts.GroupCommit {
			c.batcher = certifier.NewBatcher(cert, opts.MaxBatch)
		}
	default:
		cert := certifier.New()
		c.cert = cert
		if opts.Durable {
			cert.SetJournal(opts.Journal)
		}
		if opts.GroupCommit {
			c.batcher = certifier.NewBatcher(cert, opts.MaxBatch)
		}
	}
	return c, nil
}

// certify submits one commit-time certification request, through the
// group-commit batcher when enabled, forwarding the transaction's
// trace id when the service accepts one.
func (c *Cluster) certify(snapshot int64, ws writeset.Writeset, trace uint64) (certifier.Outcome, error) {
	if c.batcher != nil {
		return c.batcher.Certify(snapshot, ws)
	}
	if tc, ok := c.cert.(TracedCertService); ok {
		return tc.CertifyTraced(snapshot, ws, trace)
	}
	return c.cert.Certify(snapshot, ws)
}

// twoPC resolves the cluster's 2PC endpoint: a service that speaks the
// protocol natively, or the local certifier directly.
func (c *Cluster) twoPC() (TwoPCService, error) {
	if s, ok := c.cert.(TwoPCService); ok {
		return s, nil
	}
	if cert, ok := c.cert.(*certifier.Certifier); ok {
		return certTwoPC{cert}, nil
	}
	return nil, fmt.Errorf("mm: certification service %T does not support 2pc", c.cert)
}

// certTwoPC adapts a bare certifier to the TwoPCService method set.
type certTwoPC struct{ c *certifier.Certifier }

func (a certTwoPC) PrepareTxn(p certifier.PreparedTxn) (bool, int64, error) { return a.c.Prepare(p) }
func (a certTwoPC) DecideTxn(id string, commit bool) (int64, error)         { return a.c.Decide(id, commit) }
func (a certTwoPC) ResolveTxn(id string) (bool, error)                      { return a.c.Resolve(id) }
func (a certTwoPC) ForgetTxn(id string) error                               { return a.c.Forget(id) }

// PrepareTxn runs the first 2PC phase for a cross-shard fragment
// against this group's certifier.
func (c *Cluster) PrepareTxn(p certifier.PreparedTxn) (bool, int64, error) {
	s, err := c.twoPC()
	if err != nil {
		return false, 0, err
	}
	return s.PrepareTxn(p)
}

// DecideTxn applies the coordinator's decision at this group. A commit
// enters the record log like any certified writeset; the replicas are
// synced so the fragment is immediately readable.
func (c *Cluster) DecideTxn(id string, commit bool) (int64, error) {
	s, err := c.twoPC()
	if err != nil {
		return 0, err
	}
	version, err := s.DecideTxn(id, commit)
	if err == nil && commit && !c.opts.AsyncApply {
		c.Sync()
	}
	return version, err
}

// ResolveTxn answers an in-doubt inquiry at this group (used when this
// group coordinated the transaction).
func (c *Cluster) ResolveTxn(id string) (bool, error) {
	s, err := c.twoPC()
	if err != nil {
		return false, err
	}
	return s.ResolveTxn(id)
}

// ForgetTxn retires a fully acknowledged decision at this group.
func (c *Cluster) ForgetTxn(id string) error {
	s, err := c.twoPC()
	if err != nil {
		return err
	}
	return s.ForgetTxn(id)
}

// live returns the current non-removed replicas in slot order.
func (c *Cluster) live() []*replica {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*replica, 0, len(c.slots))
	for i, r := range c.slots {
		if !c.balancer.Removed(i) {
			out = append(out, r)
		}
	}
	return out
}

// slot returns the replica at a balancer slot index.
func (c *Cluster) slot(i int) *replica {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.slots[i]
}

// liveAt returns the i-th live replica (removal renumbers the live
// view but never the slots).
func (c *Cluster) liveAt(i int) (*replica, error) {
	live := c.live()
	if i < 0 || i >= len(live) {
		return nil, fmt.Errorf("mm: replica %d out of range", i)
	}
	return live[i], nil
}

// Replicas returns the live replica count.
func (c *Cluster) Replicas() int { return len(c.live()) }

// Certifier exposes the local certification service for stats and
// failure injection in tests, or nil when an external CertService was
// injected via Options.Cert.
func (c *Cluster) Certifier() *certifier.Certifier {
	cert, _ := c.cert.(*certifier.Certifier)
	return cert
}

// Transport returns the Paxos transport when the certifier is
// replicated, else nil.
func (c *Cluster) Transport() *paxos.LocalTransport { return c.transport }

// CreateTable commits the table's schema writeset (writeset.Schema)
// through certification, so every replica — present, joining or
// recovering — creates it from the log like any commit. It refuses a
// table live replica 0 already has once caught up; ddlMu makes that
// check and the commit one step for concurrent callers.
func (c *Cluster) CreateTable(name string) error {
	c.ddlMu.Lock()
	defer c.ddlMu.Unlock()
	r, err := c.liveAt(0)
	if err != nil {
		return err
	}
	c.syncTo(r)
	if slices.Contains(r.db.Tables(), name) {
		return fmt.Errorf("mm: table %q already exists", name)
	}
	if err := c.certifyWriteset(writeset.Schema(name)); err != nil {
		return err
	}
	c.Sync()
	return nil
}

// Load fills rows [0, rows) of a table with value(row) on every
// replica (LoadRows, then Sync).
func (c *Cluster) Load(table string, rows int, value func(int64) string) error {
	ids, values := repl.Rows(rows, value)
	if err := c.LoadRows(table, ids, values); err != nil {
		return err
	}
	c.Sync()
	return nil
}

// LoadRows certifies values[i] at (table, rows[i]), one record per
// repl.Chunks chunk: the load takes versions and propagates exactly
// like commits do, and like a commit under AsyncApply it is applied by
// the next Sync (or the node's propagation loop), not before returning.
func (c *Cluster) LoadRows(table string, rows []int64, values []string) error {
	return repl.Chunks(rows, values, func(rows []int64, values []string) error {
		return c.certifyWriteset(writeset.Rows(table, rows, values))
	})
}

// certifyWriteset certifies ws outside any transaction, at live
// replica 0's applied snapshot.
func (c *Cluster) certifyWriteset(ws writeset.Writeset) error {
	r, err := c.liveAt(0)
	if err != nil {
		return err
	}
	out, err := c.certify(r.ap.Applied(), ws, 0)
	if err != nil {
		return err
	}
	if !out.Committed {
		return &repl.AbortedError{ConflictWith: out.ConflictWith}
	}
	return nil
}

// syncTo applies certified writesets up to the latest known version at
// replica r, in version order. The fetch happens outside the
// application lock: with an injected remote CertService, Since is a
// network round trip, and holding the apply lock across it would stall
// every Begin on this replica for the duration (the applier's version
// guards make the unlocked window safe against concurrent appliers).
func (c *Cluster) syncTo(r *replica) {
	if !r.ready.Load() {
		return // still installing its state transfer
	}
	r.ap.Apply(c.cert.Since(r.ap.Applied()))
}

// Sync applies all outstanding writesets everywhere.
func (c *Cluster) Sync() {
	for _, r := range c.live() {
		c.syncTo(r)
	}
}

// Applier exposes the ridx-th live replica's apply stage — the
// networked server feeds its propagation pipeline through it and
// reports its stats.
func (c *Cluster) Applier(ridx int) *pipeline.Applier {
	r, err := c.liveAt(ridx)
	if err != nil {
		panic(err)
	}
	return r.ap
}

// ApplyRecords installs already-fetched certified records at the
// ridx-th live replica in version order: records at or below the
// applied version are skipped (duplicates from concurrent pulls are
// harmless) and a gap stops the run (the missing versions will arrive
// through a later pull). It returns the number of records applied.
func (c *Cluster) ApplyRecords(ridx int, recs []certifier.Record) int {
	r, err := c.liveAt(ridx)
	if err != nil {
		panic(err)
	}
	return r.ap.Apply(recs)
}

// GC prunes the certification log up to the oldest version every
// replica has applied. Since a fresh transaction's snapshot is its
// replica's applied version, no live or future certification request
// can reference a pruned version. A replica mid-state-transfer pins
// the log at zero (its snapshot version is not yet known); removed
// replicas no longer count. It returns the number of log records
// removed.
func (c *Cluster) GC() int {
	oldest := int64(1<<62 - 1)
	for _, r := range c.live() {
		if !r.ready.Load() {
			oldest = 0
		} else if v := r.ap.Applied(); v < oldest {
			oldest = v
		}
	}
	if oldest <= 0 {
		return 0
	}
	// A remote certification service is pruned by its own host; only
	// a local certifier can be garbage-collected from here.
	if gc, ok := c.cert.(interface{ GC(int64) int }); ok {
		return gc.GC(oldest)
	}
	return 0
}

// TableDump snapshots the ridx-th live replica's table for
// convergence checks.
func (c *Cluster) TableDump(replicaIdx int, table string) (map[int64]string, error) {
	r, err := c.liveAt(replicaIdx)
	if err != nil {
		return nil, err
	}
	return r.db.Dump(table)
}

// dumpTables captures every table's contents; the caller pins the
// database (the replica's apply lock) so the dump is consistent with
// one point in the version order.
func dumpTables(db *sidb.DB) (map[string]map[int64]string, error) {
	tables := make(map[string]map[int64]string)
	for _, name := range db.Tables() {
		dump, err := db.Dump(name)
		if err != nil {
			return nil, err
		}
		tables[name] = dump
	}
	return tables, nil
}

// Snapshot captures a consistent full-state snapshot of the ridx-th
// live replica: every table's contents plus the applied version they
// are consistent at, so a joiner that installs the snapshot and then
// replays certified records > version reconstructs the replica
// exactly.
func (c *Cluster) Snapshot(ridx int) (int64, map[string]map[int64]string, error) {
	r, err := c.liveAt(ridx)
	if err != nil {
		return 0, nil, err
	}
	var applied int64
	var tables map[string]map[int64]string
	r.ap.Pin(func(v int64) {
		applied = v
		tables, err = dumpTables(r.db)
	})
	return applied, tables, err
}

// InstallSnapshot installs a snapshot into the ridx-th live replica
// and marks it ready: tables are created, contents applied outside
// concurrency control, and the applied cursor set to the snapshot
// version so catch-up resumes from there. It is the receiving half of
// the join state transfer.
func (c *Cluster) InstallSnapshot(ridx int, version int64, tables map[string]map[int64]string) error {
	r, err := c.liveAt(ridx)
	if err != nil {
		return err
	}
	return installSnapshot(r, version, tables)
}

// installSnapshot installs snapshot contents into r under its apply
// lock, as one writeset at the snapshot version (so the local database
// version equals the global one), and marks it ready. Version 0 is the
// empty log: no table exists before the first record.
func installSnapshot(r *replica, version int64, tables map[string]map[int64]string) error {
	err := r.ap.Reset(func(int64) (int64, error) {
		var entries []writeset.Entry
		for name, rows := range tables {
			if err := r.db.CreateTable(name); err != nil {
				return 0, err
			}
			for row, value := range rows {
				entries = append(entries, writeset.Entry{
					Key:   writeset.Key{Table: name, Row: row},
					Value: value,
				})
			}
		}
		if version > 0 {
			if err := r.db.ApplyWriteset(writeset.New(entries), version); err != nil {
				return 0, err
			}
		}
		return version, nil
	})
	if err != nil {
		return err
	}
	r.ready.Store(true)
	return nil
}

// RestoreDurable replays recovered durable state into the ridx-th
// live replica: fn rebuilds the local database under the application
// lock (typically a WAL replay followed by attaching the apply-time
// journal hook), and applied seeds the global propagation cursor, so
// catch-up resumes from the last journaled version over the ordinary
// Since/FetchSince path instead of a full snapshot transfer.
func (c *Cluster) RestoreDurable(ridx int, applied int64, fn func(db *sidb.DB) error) error {
	r, err := c.liveAt(ridx)
	if err != nil {
		return err
	}
	err = r.ap.Reset(func(cur int64) (int64, error) {
		if err := fn(r.db); err != nil {
			return 0, err
		}
		if applied > cur {
			cur = applied
		}
		return cur, nil
	})
	if err != nil {
		return err
	}
	r.ready.Store(true)
	return nil
}

// SnapshotDurable captures, atomically with writeset application, the
// state WAL compaction embeds: the applied global version, the local
// database version, and every table's contents.
func (c *Cluster) SnapshotDurable(ridx int) (applied, local int64, tables map[string]map[int64]string, err error) {
	r, err := c.liveAt(ridx)
	if err != nil {
		return 0, 0, nil, err
	}
	r.ap.Pin(func(v int64) {
		applied = v
		local = r.db.Version()
		tables, err = dumpTables(r.db)
	})
	return applied, local, tables, err
}

// AddReplica grows the cluster by one: a fresh node receives a
// consistent snapshot of the primary (slot 0), catches up on records
// certified during the copy, and only then starts taking traffic. It
// returns the new replica's slot index.
func (c *Cluster) AddReplica() (int, error) {
	r := newReplica(0, c.opts.ApplyWorkers)
	c.mu.Lock()
	idx := c.balancer.AddDown() // no traffic until the state transfer lands
	r.id = idx
	c.slots = append(c.slots, r)
	c.mu.Unlock()

	// The not-ready replica pins GC at zero (see GC), so every record
	// after the snapshot version stays fetchable during the transfer.
	version, tables, err := c.Snapshot(0)
	if err != nil {
		return 0, err
	}
	if err := installSnapshot(r, version, tables); err != nil {
		return 0, err
	}

	c.syncTo(r) // writeset catch-up for commits during the copy
	c.balancer.SetHealthy(idx, true)
	return idx, nil
}

// RemoveReplica retires the replica at slot idx: the balancer stops
// routing new transactions to it immediately; transactions already
// running there finish normally (their commits certify and propagate
// like any other). Slot 0 — the certifier-adjacent primary — cannot
// be removed.
func (c *Cluster) RemoveReplica(idx int) error {
	if idx == 0 {
		return fmt.Errorf("mm: replica 0 cannot be removed")
	}
	c.mu.RLock()
	ok := idx > 0 && idx < len(c.slots)
	c.mu.RUnlock()
	if !ok {
		return fmt.Errorf("mm: replica %d out of range", idx)
	}
	if c.balancer.Removed(idx) {
		return fmt.Errorf("mm: replica %d already removed", idx)
	}
	c.balancer.Remove(idx)
	return nil
}

// Txn is a client transaction proxied onto one replica.
type Txn struct {
	cluster  *Cluster
	replica  *replica
	inner    *sidb.Txn
	snapshot int64  // global (certifier) version of the GSI snapshot
	version  int64  // global version assigned at commit (0 until then)
	trace    uint64 // cross-node trace id (0 untraced)
	readOnly bool
	done     bool
}

// SetTrace attaches the transaction's cross-node trace id; the commit
// path forwards it to the certification service so spans stitch
// end-to-end. Call before Commit.
func (t *Txn) SetTrace(trace uint64) { t.trace = trace }

var _ repl.Txn = (*Txn)(nil)

// BeginRead starts a read-only transaction at the least-loaded
// replica.
func (c *Cluster) BeginRead() (repl.Txn, error) { return c.begin(true) }

// BeginUpdate starts an update transaction at the least-loaded
// replica.
func (c *Cluster) BeginUpdate() (repl.Txn, error) { return c.begin(false) }

func (c *Cluster) begin(readOnly bool) (repl.Txn, error) {
	idx := c.balancer.Acquire()
	r := c.slot(idx)
	// GSI: the snapshot is whatever the replica has applied; no
	// communication with the certifier is needed to begin. Taking the
	// applied cursor and the local snapshot under the apply lock pins
	// them to the same point in the version order — a writeset applied
	// a moment later must count as concurrent.
	var snapshot int64
	var inner *sidb.Txn
	r.ap.Pin(func(applied int64) {
		snapshot = applied
		inner = r.db.Begin()
	})
	return &Txn{cluster: c, replica: r, inner: inner, snapshot: snapshot, readOnly: readOnly}, nil
}

// Read implements repl.Txn.
func (t *Txn) Read(table string, row int64) (string, bool, error) {
	return t.inner.Read(table, row)
}

// Write implements repl.Txn. With eager certification enabled the
// partial writeset is checked against the certifier immediately and a
// doomed transaction aborts early with repl.ErrAborted.
func (t *Txn) Write(table string, row int64, value string) error {
	if t.readOnly {
		return repl.ErrReadOnlyTxn
	}
	if err := t.inner.Write(table, row, value); err != nil {
		return err
	}
	if t.cluster.opts.EagerCertification {
		partial := writeset.Writeset{Entries: []writeset.Entry{
			{Key: writeset.Key{Table: table, Row: row}, Value: value},
		}}
		if conflict, with := t.cluster.cert.Check(t.snapshot, partial); conflict {
			return &repl.AbortedError{ConflictWith: with}
		}
	}
	return nil
}

// Delete implements repl.Txn.
func (t *Txn) Delete(table string, row int64) error {
	if t.readOnly {
		return repl.ErrReadOnlyTxn
	}
	return t.inner.Delete(table, row)
}

// Commit implements repl.Txn: read-only transactions commit locally;
// update transactions extract their writeset, invoke the certifier
// with (writeset, snapshot version), and on success the commit is
// acknowledged once the writeset is durable at the certifier. The
// writeset is then applied at every replica in commit order.
func (t *Txn) Commit() error {
	if t.done {
		return sidb.ErrTxnDone
	}
	t.done = true
	defer t.cluster.balancer.Release(t.replica.id)

	ws := t.inner.Writeset()
	if ws.Empty() {
		// Read-only: commit immediately at the proxy (§5.1).
		_, _, err := t.inner.Commit()
		return err
	}
	snapshot := t.snapshot
	outcome, err := t.cluster.certify(snapshot, ws, t.trace)
	if err != nil {
		t.inner.Abort()
		return err
	}
	if !outcome.Committed {
		t.inner.Abort()
		return &repl.AbortedError{ConflictWith: outcome.ConflictWith}
	}
	t.version = outcome.Version
	// The transaction is durably committed. Discard the local
	// speculative state; with AsyncApply the propagation path installs
	// the writeset, otherwise install it in version order at the
	// origin now (and lazily everywhere else).
	t.inner.Abort()
	if t.cluster.opts.AsyncApply {
		return nil
	}
	t.cluster.syncTo(t.replica)
	// Propagate to the remaining replicas.
	for _, r := range t.cluster.live() {
		if r != t.replica {
			t.cluster.syncTo(r)
		}
	}
	return nil
}

// HasWrites reports whether the transaction has staged any writes —
// the router's test for whether this group is a real participant of a
// cross-shard commit or just a read-side bystander.
func (t *Txn) HasWrites() bool {
	if t.done || t.readOnly {
		return false
	}
	return !t.inner.Writeset().Empty()
}

// Prepare runs the first 2PC phase for this transaction's writeset as
// one fragment of cross-shard transaction id, coordinated by shard
// group coord. The local speculative state is discarded either way —
// on a yes-vote the fragment lives on, locked and journaled, in the
// group's certifier until the coordinator's decision arrives via
// Cluster.DecideTxn. An empty writeset votes yes with nothing to lock.
func (t *Txn) Prepare(id string, coord int64) (vote bool, conflictWith int64, err error) {
	if t.done {
		return false, 0, sidb.ErrTxnDone
	}
	t.done = true
	defer t.cluster.balancer.Release(t.replica.id)
	ws := t.inner.Writeset()
	t.inner.Abort()
	if ws.Empty() {
		return true, 0, nil
	}
	return t.cluster.PrepareTxn(certifier.PreparedTxn{
		ID: id, Coord: coord, Snapshot: t.snapshot, Writeset: ws,
	})
}

// CommitVersion returns the global version a successful update commit
// was assigned, or 0 for read-only transactions and before Commit —
// the hook the networked server uses to stamp the ack stage on the
// transaction's trace span.
func (t *Txn) CommitVersion() int64 { return t.version }

// Abort implements repl.Txn.
func (t *Txn) Abort() {
	if t.done {
		return
	}
	t.done = true
	t.inner.Abort()
	t.cluster.balancer.Release(t.replica.id)
}

var _ repl.System = (*Cluster)(nil)
var _ repl.Loader = (*Cluster)(nil)
