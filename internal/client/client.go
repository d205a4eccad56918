// Package client implements the connection-pooled network driver for
// the replica servers in internal/server: it satisfies the
// repl.System and repl.Loader interfaces, so the workload driver
// (repl.Drive), catalog loader and convergence checker run over TCP.
//
// Routing is the paper's least-loaded balancing (internal/lb):
// transactions go to the least-loaded replica (updates pinned to the
// master for the single-master design), one pooled connection is
// checked out per transaction, and a replica that stops answering is
// marked down and routed around until a later probe revives it — the
// behavior the kill-one-replica test exercises.
//
// Membership is elastic (mm design): with Options.Watch the client
// polls the primary's member list and resizes its pool set live —
// replicas that join start taking traffic, replicas that leave stop
// receiving new transactions immediately. A replica that vanishes
// mid-transaction surfaces as repl.ErrAborted on the next operation,
// so closed-loop drivers retry the transaction on a surviving replica
// exactly like a certification abort.
package client

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/lb"
	"repro/internal/repl"
	"repro/internal/wire"
)

// Options configure the driver.
type Options struct {
	// Servers lists replica addresses indexed by replica id; index 0
	// is the certifier host (mm) or the master (sm).
	Servers []string
	// Design selects update routing: "mm" sends updates to any
	// replica, "sm" pins them to server 0.
	Design string
	// PoolSize caps retained idle connections per server (default 4).
	PoolSize int
	// DialTimeout bounds connection establishment (default 2s).
	DialTimeout time.Duration
	// ProbeAfter is how long a server marked down is skipped before
	// being optimistically re-probed (default 500ms).
	ProbeAfter time.Duration
	// Watch enables elastic membership: the client polls the
	// primary's member list (mm only) and adds/retires replica pools
	// as the cluster grows and shrinks.
	Watch bool
	// WatchInterval is the membership poll period (default 250ms).
	WatchInterval time.Duration
	// Pipeline streams a transaction's Write/Delete frames without
	// waiting for each ack; the acks are drained at the next
	// synchronous point (Read, Commit or Abort — the wire protocol is
	// strict in-order request/reply, so frame alignment is preserved).
	// One round trip per transaction's write burst instead of one per
	// op. Typed semantics are preserved: a drained non-ack dooms the
	// transaction with the same error the unpipelined op would have
	// returned, surfaced before Commit is ever sent — except that an
	// eager-certification abort now surfaces at the next sync point
	// rather than at the offending Write.
	Pipeline bool
}

// Client is a pooled driver over a set of replica servers. It is safe
// for concurrent use by many workload goroutines.
type Client struct {
	opts Options
	bal  *lb.Balancer

	// mu guards the slot table; slot indices are stable and shared
	// with the balancer (departed replicas are tombstoned, never
	// renumbered).
	mu        sync.Mutex
	reps      []*replicaConns
	memberIdx map[int64]int // member id -> slot index
	epoch     int64
	// Shard-map fields as last published by the primary (all zero on
	// unsharded deployments).
	shardID    int64
	shardCount int64
	mapVersion int64

	stopWatch chan struct{}
	watchWG   sync.WaitGroup
}

// replicaConns is the per-replica pool plus down-state.
type replicaConns struct {
	id   int64
	pool *connPool

	mu        sync.Mutex
	downUntil time.Time
}

var _ repl.System = (*Client)(nil)
var _ repl.Loader = (*Client)(nil)

// New creates a driver over the given servers. No connections are
// dialed until first use.
func New(opts Options) (*Client, error) {
	if len(opts.Servers) == 0 {
		return nil, errors.New("client: no servers")
	}
	switch opts.Design {
	case "mm", "sm":
	default:
		return nil, fmt.Errorf("client: unknown design %q (mm|sm)", opts.Design)
	}
	if opts.Watch && opts.Design != "mm" {
		return nil, errors.New("client: membership watching requires the mm design")
	}
	if opts.ProbeAfter <= 0 {
		opts.ProbeAfter = 500 * time.Millisecond
	}
	if opts.WatchInterval <= 0 {
		opts.WatchInterval = 250 * time.Millisecond
	}
	c := &Client{
		opts:      opts,
		bal:       lb.New(len(opts.Servers)),
		memberIdx: make(map[int64]int),
	}
	for i, addr := range opts.Servers {
		c.reps = append(c.reps, &replicaConns{
			id:   int64(i),
			pool: newConnPool(addr, opts.Design, -1, opts.DialTimeout, opts.PoolSize),
		})
		c.memberIdx[int64(i)] = i
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
	for i := range c.reps {
		if !c.bal.Removed(i) {
			out = append(out, i)
		}
	}
	return out
}

// Replicas returns the number of live replica servers.
func (c *Client) Replicas() int { return len(c.liveSlots()) }

// watchLoop polls the primary's membership and reconciles the slot
// table: new members get pools and balancer slots, departed members
// are tombstoned (new transactions stop immediately; connections
// already serving a transaction finish it — the server drains before
// deregistering).
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

func (c *Client) pollMembership() {
	primary := c.rep(0)
	reply, err := primary.pool.rpc(&wire.Members{}, c.opts.WatchInterval+linkRPCDeadline)
	if err != nil {
		return // primary unreachable: keep the current view
	}
	m, ok := reply.(*wire.MembersOK)
	if !ok {
		return
	}
	c.mu.Lock()
	c.shardID, c.shardCount, c.mapVersion = m.ShardID, m.ShardCount, m.MapVersion
	if m.Epoch == c.epoch {
		c.mu.Unlock()
		return
	}
	c.epoch = m.Epoch
	current := make(map[int64]wire.Member, len(m.Members))
	for _, mem := range m.Members {
		current[mem.ID] = mem
	}
	// Tombstone departed members.
	var retired []*replicaConns
	for id, idx := range c.memberIdx {
		if _, still := current[id]; still {
			continue
		}
		if !c.bal.Removed(idx) {
			c.bal.Remove(idx)
			retired = append(retired, c.reps[idx])
		}
		delete(c.memberIdx, id)
	}
	// Admit joiners. The slot entry is appended before the balancer
	// slot exists, so an index the balancer hands out always resolves.
	for id, mem := range current {
		if _, have := c.memberIdx[id]; have || mem.Addr == "" {
			continue
		}
		rc := &replicaConns{
			id:   id,
			pool: newConnPool(mem.Addr, c.opts.Design, -1, c.opts.DialTimeout, c.opts.PoolSize),
		}
		c.reps = append(c.reps, rc)
		idx := c.bal.Add()
		c.memberIdx[id] = idx
	}
	c.mu.Unlock()
	for _, rc := range retired {
		rc.pool.retire()
	}
}

// Epoch returns the last membership epoch the watcher observed.
func (c *Client) Epoch() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// markDown records a replica failure for routing.
func (c *Client) markDown(idx int) {
	r := c.rep(idx)
	r.mu.Lock()
	r.downUntil = time.Now().Add(c.opts.ProbeAfter)
	r.mu.Unlock()
	c.bal.SetHealthy(idx, false)
}

// reviveDue optimistically re-admits down replicas whose probe
// interval has passed; a still-dead replica is re-marked on the next
// failed begin. It runs on every Begin, so it walks the slot table in
// place rather than copying it.
func (c *Client) reviveDue() {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, r := range c.reps {
		if c.bal.Removed(i) || c.bal.Healthy(i) {
			continue
		}
		r.mu.Lock()
		due := now.After(r.downUntil)
		r.mu.Unlock()
		if due {
			c.bal.SetHealthy(i, true)
		}
	}
}

// BeginRead starts a read-only transaction on a least-loaded replica.
func (c *Client) BeginRead() (repl.Txn, error) { return c.begin(true) }

// BeginUpdate starts an update transaction (any replica for mm, the
// master for sm).
func (c *Client) BeginUpdate() (repl.Txn, error) { return c.begin(false) }

func (c *Client) begin(readOnly bool) (repl.Txn, error) {
	eligible := func(i int) bool {
		if c.opts.Design == "sm" && !readOnly {
			return i == 0
		}
		return true
	}
	c.reviveDue()
	var lastErr error
	attempts := c.bal.Size() + 1
	for attempt := 0; attempt <= attempts; attempt++ {
		idx, err := c.bal.AcquireWhere(eligible)
		if err != nil {
			return nil, err
		}
		tx, err := c.beginOn(idx, readOnly)
		if err == nil {
			return tx, nil
		}
		c.bal.Release(idx)
		lastErr = err
		var pe *protocolError
		if errors.As(err, &pe) {
			if pe.code == wire.CodeDraining {
				// The replica is leaving: stop routing to it and try
				// another. The next membership poll retires it.
				c.markDown(idx)
				continue
			}
			// The server answered but refused; rerouting won't help.
			return nil, err
		}
		c.markDown(idx)
	}
	return nil, fmt.Errorf("client: begin failed on every replica: %w", lastErr)
}

// protocolError is a server-level refusal (as opposed to a transport
// failure, which triggers failover).
type protocolError struct {
	code uint8
	msg  string
}

func (e *protocolError) Error() string { return e.msg }

// beginOn opens a transaction on replica idx, draining stale pooled
// connections as it goes.
func (c *Client) beginOn(idx int, readOnly bool) (*Txn, error) {
	rep := c.rep(idx)
	pool := rep.pool
	var lastErr error
	for attempt := 0; attempt <= pool.maxIdle+1; attempt++ {
		conn, fresh, err := pool.get()
		if err != nil {
			return nil, err
		}
		conn.begin = wire.Begin{ReadOnly: readOnly}
		reply, err := roundTrip(conn, &conn.begin)
		if err != nil {
			pool.discard(conn)
			lastErr = err
			if fresh {
				return nil, err
			}
			continue // stale pooled connection, try the next
		}
		switch m := reply.(type) {
		case *wire.BeginOK:
			return &Txn{client: c, idx: idx, rep: rep, conn: conn, readOnly: readOnly,
				trace: m.Trace, pipeline: c.opts.Pipeline}, nil
		case *wire.Err:
			pool.put(conn)
			return nil, &protocolError{code: m.Code, msg: fmt.Sprintf("client: begin on %s: %s", pool.addr, m.Msg)}
		default:
			pool.discard(conn)
			return nil, fmt.Errorf("client: begin on %s: unexpected reply %T", pool.addr, reply)
		}
	}
	return nil, fmt.Errorf("client: begin on %s: %w", pool.addr, lastErr)
}

// Txn is one transaction bound to one checked-out connection.
type Txn struct {
	client *Client
	idx    int
	rep    *replicaConns
	// conn is this transaction's alone until done is set; after that it
	// may already serve another transaction, so every method checks
	// done before touching it (Read, Write and Delete fill in its
	// request scratch).
	conn     *wconn
	readOnly bool
	done     bool
	trace    uint64

	// Pipelining state (Options.Pipeline): Write/Delete frames are
	// sent without waiting for their acks; inflight counts acks owed,
	// and doomed records the first typed error a drained ack carried.
	pipeline bool
	inflight int
	doomed   error

	// writes counts staged Write/Delete ops — the client-side signal a
	// sharded router uses to tell writing participants from read-only
	// bystanders (the server holds the actual writeset).
	writes int
}

var _ repl.Txn = (*Txn)(nil)

// Trace returns the server-assigned trace id of this transaction, or
// zero for read-only transactions and when the replica runs with
// tracing disabled. The id stitches the client's view of a commit to
// the certify/apply spans exported at /debug/slowtxns on every node.
func (t *Txn) Trace() uint64 { return t.trace }

// fail tears the transaction down after a transport error: the
// connection state is unknown, so it is discarded, and the replica is
// marked down so new transactions route around it.
func (t *Txn) fail(err error) error {
	if !t.done {
		t.done = true
		t.rep.pool.discard(t.conn)
		t.client.bal.Release(t.idx)
		t.client.markDown(t.idx)
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
	t.rep.pool.put(t.conn)
	t.client.bal.Release(t.idx)
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

// pipelineOp streams one Write/Delete frame without waiting for its
// ack. The wire protocol is strict in-order request/reply, so the acks
// arrive in send order and are drained at the next synchronous point.
func (t *Txn) pipelineOp(req wire.Message) error {
	if t.done {
		return errDone
	}
	if t.doomed != nil {
		return t.doomed
	}
	if err := t.conn.wc.Send(req); err != nil {
		return t.failAborted(err)
	}
	t.inflight++
	return nil
}

// drainAcks consumes the acks owed for pipelined ops. The first
// non-WriteOK reply dooms the transaction with the typed error the
// unpipelined op would have returned; draining continues regardless so
// the connection stays frame-aligned. A transport failure here is
// retry-safe (Commit has not been sent), so it surfaces as an abort.
func (t *Txn) drainAcks() error {
	for t.inflight > 0 {
		reply, err := t.conn.wc.Recv()
		if err != nil {
			t.inflight = 0
			return t.failAborted(err)
		}
		t.inflight--
		if t.doomed != nil {
			continue
		}
		switch m := reply.(type) {
		case *wire.WriteOK:
		case *wire.CommitAborted:
			// Eager certification doomed the transaction at the server.
			t.doomed = &repl.AbortedError{ConflictWith: m.ConflictWith}
		case *wire.NotLeader:
			t.doomed = &repl.AbortedError{}
		case *wire.Err:
			t.doomed = mapErr(m)
		default:
			t.inflight = 0
			return t.fail(fmt.Errorf("client: unexpected pipelined ack %T", reply))
		}
	}
	return nil
}

// syncPoint drains pipelined acks and surfaces a recorded doom before
// the caller issues a synchronous exchange.
func (t *Txn) syncPoint() error {
	if t.inflight > 0 {
		if err := t.drainAcks(); err != nil {
			return err
		}
	}
	return t.doomed
}

// Read implements repl.Txn.
func (t *Txn) Read(table string, row int64) (string, bool, error) {
	if t.done {
		return "", false, errDone
	}
	if err := t.syncPoint(); err != nil {
		return "", false, err
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
// certification already doomed the transaction. With Options.Pipeline
// the frame streams without waiting for its ack (drained at the next
// sync point), so errors — including eager-certification aborts —
// surface there instead of here.
func (t *Txn) Write(table string, row int64, value string) error {
	if t.done {
		return errDone
	}
	t.writes++
	req := &t.conn.write
	req.Table, req.Row, req.Value = table, row, value
	if t.pipeline {
		return t.pipelineOp(req)
	}
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
	t.writes++
	req := &t.conn.del
	req.Table, req.Row = table, row
	if t.pipeline {
		return t.pipelineOp(req)
	}
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
// replica deposed mid-proposal never acked, but a minority of
// acceptors may hold its value, and the new leader's hole recovery is
// allowed to choose it — the commit may land without an ack ever
// existing. Only the deposed replica's fence knows it is closed; the
// redirect cannot say whether the writeset was proposed before it
// shut, so the client reports the ambiguity rather than invent an
// abort.
func (t *Txn) Commit() error {
	if t.done {
		return errDone
	}
	// Drain pipelined acks BEFORE sending Commit: a transport failure
	// here is still retry-safe (abort, not unknown outcome), and a
	// doomed transaction must not be committed — the server kept it
	// open after the failed op, so close it out and surface the typed
	// error the unpipelined path would have returned from the op.
	if t.inflight > 0 {
		if err := t.drainAcks(); err != nil {
			return err
		}
	}
	if t.doomed != nil {
		err := t.doomed
		t.Abort()
		return err
	}
	reply, err := roundTrip(t.conn, &wire.Commit{})
	if err != nil {
		t.fail(err)
		return &repl.UnknownOutcomeError{Err: err}
	}
	switch m := reply.(type) {
	case *wire.CommitOK:
		t.finish()
		return nil
	case *wire.CommitAborted:
		t.finish()
		return &repl.AbortedError{ConflictWith: m.ConflictWith}
	case *wire.NotLeader:
		t.finish()
		return &repl.UnknownOutcomeError{Err: NotLeaderError{
			Leader: int(m.Leader), Epoch: m.Epoch, Addr: m.Addr,
		}}
	case *wire.Err:
		t.finish()
		return mapErr(m)
	default:
		return t.fail(fmt.Errorf("client: unexpected commit reply %T", reply))
	}
}

// Abort implements repl.Txn.
func (t *Txn) Abort() {
	if t.done {
		return
	}
	if t.inflight > 0 {
		if t.drainAcks() != nil {
			return // transport failure already tore the txn down
		}
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

// Sync implements repl.System. The primary first applies everything it
// can reach and reports its applied version, the head: it covers every
// acknowledged commit. Each replica is then asked to apply through the
// head; one already there answers at once, one behind pulls from its
// primary until it gets there or the shared deadline passes. A replica
// that reports more than the head (a Paxos backup in slot 0 can lag the
// leader; without a primary the head starts at zero) raises it, and
// the replicas below it are asked again. Unreachable replicas are
// skipped — their table dumps will fail loudly if anyone asks.
func (c *Client) Sync() {
	deadline := time.Now().Add(syncWait)
	live := c.liveSlots()
	applied := make([]int64, len(live))
	head := c.syncOne(c.primarySlot(), &wire.Sync{})
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
// replica reported, or -1 when it did not answer (or slot is -1).
func (c *Client) syncOne(slot int, req *wire.Sync) int64 {
	if slot < 0 {
		return -1
	}
	applied := int64(-1)
	_ = c.rep(slot).pool.do(req, 0, func(reply wire.Message) error {
		if ok, isOK := reply.(*wire.SyncOK); isOK {
			applied = ok.Applied
		}
		return nil
	})
	return applied
}

// RoundTrips sums the pooled request/reply exchanges across every
// replica pool (Sync, dumps, loads, membership — not per-transaction
// ops, which own their connection). Steady-state tests difference it.
func (c *Client) RoundTrips() int64 {
	var n int64
	for _, r := range c.slots() {
		n += r.pool.rpcs.Load()
	}
	return n
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

// CreateTable implements repl.Loader: the primary commits the table's
// schema as a record of the group's log, and Sync waits until the
// replicas in view have applied it. Replicas this client has not
// discovered get it from the log like any commit.
func (c *Client) CreateTable(name string) error {
	if _, err := c.rpcPrimary(&wire.CreateTable{Name: name}, 0); err != nil {
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
// chunk is one Load frame to the primary, which commits it as a record
// of the group's log. Like a commit, it reaches every replica through
// the log; Sync waits for that.
func (c *Client) LoadRows(table string, rows []int64, values []string) error {
	return repl.Chunks(rows, values, func(rows []int64, values []string) error {
		if _, err := c.rpcPrimary(&wire.Load{Table: table, Rows: rows, Values: values}, 0); err != nil {
			return fmt.Errorf("client: load %q (%d rows from row %d): %w", table, len(rows), rows[0], err)
		}
		return nil
	})
}
