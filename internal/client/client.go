// Package client implements the connection-pooled network driver for
// the replica servers in internal/server: it satisfies the
// repl.System and repl.Loader interfaces, so the workload driver
// (repl.Drive), catalog loader and convergence checker run over TCP.
//
// Routing is the paper's least-loaded balancing (§5), kept in the
// client's slot table, its one record of each replica: id, connection
// pool, outstanding transactions and departure. Transactions go to
// the least-loaded replica (single-master updates go to the certifier
// host, which is the master), and one pooled connection is checked out
// per transaction. A replica that fails is down while its pool backs
// off (50 ms doubling to 1 s, reset by a successful dial); new
// transactions route around it and the pool's next dial, once per
// step, probes it — the behavior the kill-one-replica test exercises.
//
// The client finds the certifier host by redirect: it starts at server
// 0 and follows NotLeader replies, so a master or leader that moved
// under Paxos stays reachable. It follows the host the way a replica's
// LeaderRing does, through the package's one follower.
//
// Membership is elastic: with Options.Watch the client polls the
// certifier host's member list and resizes its slot table live —
// replicas that join start taking traffic, replicas that leave stop
// receiving new transactions immediately. A replica that vanishes
// mid-transaction surfaces as repl.ErrAborted on the next operation,
// so closed-loop drivers retry the transaction on a surviving replica
// exactly like a certification abort.
package client

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/repl"
	"repro/internal/wire"
)

// Options configure the driver.
type Options struct {
	// Servers lists replica addresses indexed by replica id. Index 0
	// is the first guess of the certifier host.
	Servers []string
	// Design selects update routing, and nothing else: "mm" sends
	// updates to any replica, "sm" to the certifier host (the master).
	Design string
	// PoolSize caps retained idle connections per server (default 4).
	PoolSize int
	// Watch enables elastic membership: the client polls the
	// certifier host's member list and adds/retires replica pools as
	// the cluster grows and shrinks.
	Watch bool
	// WatchInterval is the membership poll period (default 250ms).
	WatchInterval time.Duration
}

// Validate reports the first rule the options break: no servers or an
// unknown design.
func (o Options) Validate() error {
	if len(o.Servers) == 0 {
		return errors.New("client: no servers")
	}
	switch o.Design {
	case "mm", "sm":
	default:
		return fmt.Errorf("client: unknown design %q (mm|sm)", o.Design)
	}
	return nil
}

// Client is a pooled driver over a set of replica servers. It is safe
// for concurrent use by many workload goroutines.
type Client struct {
	opts Options

	// mu guards the slot table. Slot indices are stable: a departed
	// replica keeps its slot, retired, and is never renumbered.
	mu    sync.Mutex
	reps  []*replicaConns
	next  int // where the next least-loaded scan starts
	epoch int64
	// follow holds the slot of the certifier host as last learned:
	// slot 0 at first, then wherever redirects and failures move it.
	follow follower

	stopWatch chan struct{}
	watchWG   sync.WaitGroup
}

// replicaConns is one slot of the table. Whether the replica departed
// (pool.retired) and whether it is down (pool backing off) are its
// pool's state.
type replicaConns struct {
	id   int64 // member id
	pool *connPool
	load int // outstanding transactions, guarded by Client.mu
}

var _ repl.System = (*Client)(nil)
var _ repl.Loader = (*Client)(nil)

// errNoReplica reports that no live slot can take a transaction.
var errNoReplica = errors.New("client: no live replica")

// New creates a driver over the given servers, once opts.Validate
// passes. No connections are dialed until first use.
func New(opts Options) (*Client, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.WatchInterval <= 0 {
		opts.WatchInterval = 250 * time.Millisecond
	}
	c := &Client{opts: opts}
	c.follow.set = c
	for i, addr := range opts.Servers {
		c.admit(int64(i), addr)
	}
	if opts.Watch {
		c.stopWatch = make(chan struct{})
		c.watchWG.Add(1)
		go func() {
			defer c.watchWG.Done()
			c.watchLoop()
		}()
	}
	return c, nil
}

// admit appends a slot for member id at addr. The caller holds c.mu or
// has not shared c yet.
func (c *Client) admit(id int64, addr string) {
	c.reps = append(c.reps, &replicaConns{
		id:   id,
		pool: newConnPool(addr, c.opts.Design, -1, dialTimeout, c.opts.PoolSize),
	})
}

// Close stops the membership watcher and releases every pooled
// connection.
func (c *Client) Close() {
	if c.stopWatch != nil {
		close(c.stopWatch)
		c.watchWG.Wait()
		c.stopWatch = nil
	}
	for _, r := range c.slots() {
		r.pool.closeAll()
	}
}

// slots snapshots the slot table.
func (c *Client) slots() []*replicaConns {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*replicaConns, len(c.reps))
	copy(out, c.reps)
	return out
}

// rep returns the replica at a slot index.
func (c *Client) rep(i int) *replicaConns {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reps[i]
}

// liveSlots returns the non-departed replicas with their slot
// indices, in slot order.
func (c *Client) liveSlots() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]int, 0, len(c.reps))
	for i, r := range c.reps {
		if !r.pool.retired.Load() {
			out = append(out, i)
		}
	}
	return out
}

// Replicas returns the number of live replica servers.
func (c *Client) Replicas() int { return len(c.liveSlots()) }

// slotOf returns the live slot of member id, or -1. c.mu is held.
func (c *Client) slotOf(id int64) int {
	return slices.IndexFunc(c.reps, func(r *replicaConns) bool {
		return r.id == id && !r.pool.retired.Load()
	})
}

// acquire takes a slot for a new transaction in one critical section
// and returns it with its pool. host >= 0 names the slot (the
// certifier host's, under sm), whatever its load or health; host < 0
// picks the least-loaded live slot. Ties rotate: the scan starts one
// slot further on every acquisition, so equally loaded replicas take
// turns and survivors above a departed slot are not starved. A down
// slot is picked only when every live slot is down.
func (c *Client) acquire(host int) (int, *connPool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	best := host
	if host < 0 {
		now := time.Now().UnixNano()
		bestDown := false
		for off := range len(c.reps) {
			i := (c.next + off) % len(c.reps)
			r := c.reps[i]
			if r.pool.retired.Load() {
				continue
			}
			down := now < r.pool.until.Load()
			if best < 0 || bestDown && !down || down == bestDown && r.load < c.reps[best].load {
				best, bestDown = i, down
			}
		}
		c.next++
	}
	if best < 0 || c.reps[best].pool.retired.Load() {
		return 0, nil, errNoReplica
	}
	r := c.reps[best]
	r.load++
	return best, r.pool, nil
}

// release returns the slot a transaction acquired. Releasing below
// zero panics: it means a double release.
func (c *Client) release(idx int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.reps[idx]
	if r.load <= 0 {
		panic("client: release without acquire")
	}
	r.load--
}

// watchLoop polls the primary's membership and reconciles the slot
// table: new members get slots, departed members are retired (new
// transactions stop immediately; connections already serving a
// transaction finish it — the server drains before deregistering).
func (c *Client) watchLoop() {
	ticker := time.NewTicker(c.opts.WatchInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.stopWatch:
			return
		case <-ticker.C:
			c.pollMembership()
		}
	}
}

// fetchMembers asks the certifier host for its member list once.
func (c *Client) fetchMembers(deadline time.Duration) (*wire.MembersOK, error) {
	reply, err := c.rpcHost(&wire.Members{}, deadline)
	if err != nil {
		return nil, err
	}
	m, ok := reply.(*wire.MembersOK)
	if !ok {
		return nil, fmt.Errorf("client: unexpected members reply %T", reply)
	}
	return m, nil
}

func (c *Client) pollMembership() {
	m, err := c.fetchMembers(c.opts.WatchInterval + linkRPCDeadline)
	if err != nil {
		return // host unreachable: keep the current view
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if m.Epoch == c.epoch {
		return
	}
	c.epoch = m.Epoch
	for _, r := range c.reps {
		if !r.pool.retired.Load() && !slices.ContainsFunc(m.Members, func(mem wire.Member) bool { return mem.ID == r.id }) {
			r.pool.retire()
		}
	}
	for _, mem := range m.Members {
		if mem.Addr != "" && c.slotOf(mem.ID) < 0 {
			c.admit(mem.ID, mem.Addr)
		}
	}
}

// Epoch returns the last membership epoch the watcher observed.
func (c *Client) Epoch() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// BeginRead starts a read-only transaction on a least-loaded replica.
func (c *Client) BeginRead() (repl.Txn, error) { return c.begin(true) }

// BeginUpdate starts an update transaction (any replica for mm, the
// certifier host for sm).
func (c *Client) BeginUpdate() (repl.Txn, error) { return c.begin(false) }

func (c *Client) begin(readOnly bool) (repl.Txn, error) {
	var tx *Txn
	var err error
	if c.opts.Design == "sm" && !readOnly {
		err = c.follow.do(false, func(idx int) error {
			tx, err = c.beginOn(idx, false)
			return err
		})
	} else {
		// A failed Begin leaves its replica backing off, so the next
		// attempt goes to another.
		for attempt := 0; ; attempt++ {
			if tx, err = c.beginOn(-1, readOnly); err == nil || refused(err) || attempt > c.Replicas() {
				break
			}
		}
	}
	if err != nil {
		return nil, err
	}
	return tx, nil
}

// named implements hostSet: the live slot a redirect names, by address
// first, since a client's server list need not be indexed by replica
// id or use the server's own address strings, then by id.
func (c *Client) named(nle NotLeaderError) (int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, r := range c.reps {
		if r.pool.addr == nle.Addr && nle.Addr != "" && !r.pool.retired.Load() {
			return i, true
		}
	}
	idx := c.slotOf(int64(nle.Leader))
	return idx, idx >= 0
}

// after implements hostSet: the next live slot.
func (c *Client) after(from int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k := 1; k < len(c.reps); k++ {
		if to := (from + k) % len(c.reps); !c.reps[to].pool.retired.Load() {
			return to
		}
	}
	return from
}

// protocolError is a server-level refusal (as opposed to a transport
// failure, which triggers failover).
type protocolError struct {
	code uint8
	msg  string
}

func (e *protocolError) Error() string { return e.msg }

// refused reports whether err is a server's refusal that rerouting
// will not help: any protocol error but CodeDraining.
func refused(err error) bool {
	var pe *protocolError
	return errors.As(err, &pe) && pe.code != wire.CodeDraining
}

// beginOn acquires a slot (see acquire) and sends Begin to its
// replica, releasing the slot if that fails.
func (c *Client) beginOn(host int, readOnly bool) (*Txn, error) {
	idx, pool, err := c.acquire(host)
	if err != nil {
		return nil, err
	}
	conn, reply, err := pool.exchange(func(w *wconn) wire.Message {
		w.begin = wire.Begin{ReadOnly: readOnly}
		return &w.begin
	}, 0)
	if err == nil {
		if m, ok := reply.(*wire.BeginOK); ok {
			return &Txn{client: c, idx: idx, pool: pool, conn: conn, readOnly: readOnly, trace: m.Trace}, nil
		}
		pool.discard(conn)
		err = fmt.Errorf("client: begin on %s: unexpected reply %T", pool.addr, reply)
	}
	c.release(idx)
	return nil, err
}

// Txn is one transaction bound to one checked-out connection. The
// caller holds the handle past the transaction's end, and a connection
// passes to the next transaction as soon as this one finishes, so a
// handle is never recycled: it is kept to 48 bytes instead.
type Txn struct {
	client *Client
	idx    int
	pool   *connPool
	// conn is this transaction's alone until done is set; after that it
	// may already serve another transaction, so every method checks
	// done before touching it (Read, Write, Delete and Prepare fill in
	// its request scratch).
	conn     *wconn
	trace    uint64
	readOnly bool
	done     bool
	// wrote records a staged Write or Delete — the client-side signal
	// a sharded router uses to tell writing participants from read-only
	// bystanders (the server holds the actual writeset).
	wrote bool
	// deciding marks a 2PC decide in flight after the transaction ended
	// (SendDecide): conn and pool are then the host connection's.
	deciding bool
}

var _ repl.Txn = (*Txn)(nil)

// Trace returns the server-assigned trace id of this transaction, or
// zero for read-only transactions and when the replica runs with
// tracing disabled. The id stitches the client's view of a commit to
// the certify/apply spans exported at /debug/slowtxns on every node.
func (t *Txn) Trace() uint64 { return t.trace }

// fail tears the transaction down after a transport error: the
// connection state is unknown, so it is discarded, and the pool backs
// off so new transactions route around the replica.
func (t *Txn) fail(err error) error {
	if !t.done {
		t.done = true
		t.pool.discard(t.conn)
		t.pool.backoff(err)
		t.client.release(t.idx)
	}
	return err
}

// failAborted converts a mid-transaction transport failure into the
// abort-and-retry path: the replica died or left under us, the
// transaction never certified, so surfacing repl.ErrAborted makes
// closed-loop drivers retry it on a surviving replica exactly like a
// certification abort. Commit is excluded — its outcome is ambiguous
// once the request may have reached the certifier.
func (t *Txn) failAborted(err error) error {
	t.fail(err)
	return &repl.AbortedError{}
}

// finish returns the connection to the pool after a clean protocol
// exchange ended the transaction.
func (t *Txn) finish() {
	if t.done {
		return
	}
	t.done = true
	t.pool.put(t.conn)
	t.client.release(t.idx)
}

// errDone mirrors the engines' use-after-finish error.
var errDone = errors.New("client: transaction already finished")

func (t *Txn) exchange(req wire.Message) (wire.Message, error) {
	if t.done {
		return nil, errDone
	}
	reply, err := roundTrip(t.conn, req)
	if err != nil {
		return nil, t.failAborted(err)
	}
	return reply, nil
}

// mapErr converts a wire.Err into the repl sentinel errors the
// workload driver expects.
func mapErr(m *wire.Err) error {
	switch m.Code {
	case wire.CodeReadOnly:
		return repl.ErrReadOnlyTxn
	default:
		return fmt.Errorf("client: %s", m.Msg)
	}
}

// Read implements repl.Txn.
func (t *Txn) Read(table string, row int64) (string, bool, error) {
	if t.done {
		return "", false, errDone
	}
	req := &t.conn.read
	req.Table, req.Row = table, row
	reply, err := t.exchange(req)
	if err != nil {
		return "", false, err
	}
	switch m := reply.(type) {
	case *wire.ReadOK:
		return m.Value, m.OK, nil
	case *wire.Err:
		return "", false, mapErr(m)
	default:
		return "", false, t.fail(fmt.Errorf("client: unexpected read reply %T", reply))
	}
}

// Write implements repl.Txn. A CommitAborted reply means eager
// certification already doomed the transaction.
func (t *Txn) Write(table string, row int64, value string) error {
	if t.done {
		return errDone
	}
	t.wrote = true
	req := &t.conn.write
	req.Table, req.Row, req.Value = table, row, value
	reply, err := t.exchange(req)
	if err != nil {
		return err
	}
	switch m := reply.(type) {
	case *wire.WriteOK:
		return nil
	case *wire.CommitAborted:
		return &repl.AbortedError{ConflictWith: m.ConflictWith}
	case *wire.NotLeader:
		// Certification leadership moved mid-transaction. Nothing has
		// been proposed for this transaction yet, so unlike the same
		// redirect at commit time this is a plain retry-safe abort.
		return &repl.AbortedError{}
	case *wire.Err:
		return mapErr(m)
	default:
		return t.fail(fmt.Errorf("client: unexpected write reply %T", reply))
	}
}

// Delete implements repl.Txn.
func (t *Txn) Delete(table string, row int64) error {
	if t.done {
		return errDone
	}
	t.wrote = true
	req := &t.conn.del
	req.Table, req.Row = table, row
	reply, err := t.exchange(req)
	if err != nil {
		return err
	}
	switch m := reply.(type) {
	case *wire.WriteOK:
		return nil
	case *wire.NotLeader:
		return &repl.AbortedError{}
	case *wire.Err:
		return mapErr(m)
	default:
		return t.fail(fmt.Errorf("client: unexpected delete reply %T", reply))
	}
}

// Commit implements repl.Txn. A transport failure here surfaces as a
// typed repl.UnknownOutcomeError, not ErrAborted: the commit may have
// certified (and, with durable replicas, persisted) before the
// connection died, so a blind retry could double-apply. Drivers must
// reconcile instead of retrying.
//
// A NotLeader redirect at commit time is ambiguous in the same way: a
// replica whose proposal failed — deposed, or short of a majority —
// never acked, but a minority of acceptors may hold its value, and the
// next leader's recovery is allowed to choose it — the commit may land
// without an ack ever existing. Only the old leader's fence knows it is
// closed; the redirect cannot say whether the writeset was proposed
// before it shut, so the client reports the ambiguity rather than
// invent an abort.
func (t *Txn) Commit() error {
	if err := t.SendCommit(); err != nil {
		return err
	}
	return t.RecvCommit()
}

// SendCommit sends the commit request, the first half of Commit;
// RecvCommit reads its reply. Between the halves the connection stays
// this transaction's, so a router can have every group's commit in
// flight at once. A failed send ends the transaction with its outcome
// unknown, and RecvCommit then reports errDone.
func (t *Txn) SendCommit() error {
	if t.done {
		return errDone
	}
	if err := t.conn.wc.Send(&wire.Commit{}); err != nil {
		t.fail(err)
		return &repl.UnknownOutcomeError{Err: err}
	}
	return nil
}

// RecvCommit reads the reply SendCommit asked for and ends the
// transaction.
func (t *Txn) RecvCommit() error {
	if t.done {
		return errDone
	}
	reply, err := t.conn.wc.Recv()
	if err != nil {
		t.fail(err)
		return &repl.UnknownOutcomeError{Err: err}
	}
	// A reply may be the connection's reused decode target: read it
	// before finish hands the connection to another transaction.
	switch m := reply.(type) {
	case *wire.CommitOK:
	case *wire.CommitAborted:
		err = &repl.AbortedError{ConflictWith: m.ConflictWith}
	case *wire.NotLeader:
		err = &repl.UnknownOutcomeError{Err: NotLeaderError{
			Leader: int(m.Leader), Epoch: m.Epoch, Addr: m.Addr,
		}}
	case *wire.Err:
		err = mapErr(m)
	default:
		return t.fail(fmt.Errorf("client: unexpected commit reply %T", reply))
	}
	t.finish()
	return err
}

// Abort implements repl.Txn.
func (t *Txn) Abort() {
	if t.done {
		return
	}
	reply, err := roundTrip(t.conn, &wire.Abort{})
	if err != nil {
		t.fail(err)
		return
	}
	if _, ok := reply.(*wire.AbortOK); !ok {
		t.fail(fmt.Errorf("client: unexpected abort reply %T", reply))
		return
	}
	t.finish()
}

// syncWait bounds how long Sync waits for replicas to catch up: a
// wedged replica surfaces through its table dump rather than hanging
// the caller.
const syncWait = 8 * time.Second

// Sync implements repl.System. The certifier host first applies
// everything it can reach and reports its applied version, the head:
// it covers every acknowledged commit. Each replica is then asked to
// apply through the head; one already there answers at once, one behind
// pulls from its primary until it gets there or the shared deadline
// passes. A replica that reports more than the head (the host slot may
// name a Paxos backup that lags the leader) raises it, and the replicas
// below it are asked again. Unreachable replicas are skipped — their
// table dumps will fail loudly if anyone asks.
func (c *Client) Sync() {
	deadline := time.Now().Add(syncWait)
	live := c.liveSlots()
	applied := make([]int64, len(live))
	head := c.syncOne(c.follow.host(), &wire.Sync{})
	for raised := true; raised && time.Now().Before(deadline); {
		raised = false
		for i, slot := range live {
			if head > 0 && applied[i] >= head {
				continue
			}
			wait := uint32(time.Until(deadline) / time.Millisecond)
			if applied[i] = c.syncOne(slot, &wire.Sync{Through: head, WaitMillis: wait}); applied[i] > head {
				head, raised = applied[i], true
			}
		}
	}
}

// syncOne sends one Sync request and returns the applied version the
// replica reported, or -1 when it did not answer.
func (c *Client) syncOne(slot int, req *wire.Sync) int64 {
	applied := int64(-1)
	_ = c.rep(slot).pool.do(req, 0, func(reply wire.Message) error {
		if ok, isOK := reply.(*wire.SyncOK); isOK {
			applied = ok.Applied
		}
		return nil
	})
	return applied
}

// TableDump implements repl.System over the live replicas (departed
// ones no longer count).
func (c *Client) TableDump(replica int, table string) (map[int64]string, error) {
	live := c.liveSlots()
	if replica < 0 || replica >= len(live) {
		return nil, fmt.Errorf("client: replica %d out of range", replica)
	}
	reply, err := c.rep(live[replica]).pool.rpc(&wire.Dump{Table: table}, 0)
	if err != nil {
		return nil, err
	}
	m, ok := reply.(*wire.DumpOK)
	if !ok {
		return nil, fmt.Errorf("client: unexpected dump reply %T", reply)
	}
	out := make(map[int64]string, len(m.Rows))
	for i, row := range m.Rows {
		out[row] = m.Values[i]
	}
	return out, nil
}

// CreateTable implements repl.Loader: the certifier host commits the
// table's schema as a record of the group's log, and Sync waits until the
// replicas in view have applied it. Replicas this client has not
// discovered get it from the log like any commit.
func (c *Client) CreateTable(name string) error {
	if _, err := c.rpcHost(&wire.CreateTable{Name: name}, 0); err != nil {
		return fmt.Errorf("client: create %q: %w", name, err)
	}
	c.Sync()
	return nil
}

// Load implements repl.Loader: LoadRows, then Sync waits for the
// replicas in view.
func (c *Client) Load(table string, rows int, value func(int64) string) error {
	ids, values := repl.Rows(rows, value)
	if err := c.LoadRows(table, ids, values); err != nil {
		return err
	}
	c.Sync()
	return nil
}

// LoadRows installs values[i] at (table, rows[i]): each repl.Chunks
// chunk is one Load frame to the certifier host, which commits it as a record
// of the group's log. Like a commit, it reaches every replica through
// the log; Sync waits for that.
func (c *Client) LoadRows(table string, rows []int64, values []string) error {
	return repl.Chunks(rows, values, func(rows []int64, values []string) error {
		if _, err := c.rpcHost(&wire.Load{Table: table, Rows: rows, Values: values}, 0); err != nil {
			return fmt.Errorf("client: load %q (%d rows from row %d): %w", table, len(rows), rows[0], err)
		}
		return nil
	})
}
