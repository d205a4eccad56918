// Package router partitions the keyspace across independent shard
// groups, each running the full replicated stack (certifier + Paxos +
// WAL + parallel apply), and routes transactions to the groups that
// own their keys. Single-shard transactions — the common case a sane
// partitioning makes overwhelming — take the owning group's ordinary
// commit path with zero extra hops, so aggregate write throughput
// scales with the number of groups instead of flatlining at one
// certifier's apply rate. Transactions that touch several groups run
// two-phase commit over certification: every group PREPAREs its
// fragment (conflict-check + durable in-doubt journal + key locks),
// the coordinator group's durable decision is the commit point, and
// participants that crash in doubt resolve against the coordinator on
// recovery (docs/SHARDING.md).
package router

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/repl"
)

// Map is the versioned shard map: how many groups partition the
// keyspace. Clients receive it on JoinOK/MembersOK (wire v6) and use
// Locate to resolve (table, row) to the owning group. The hash is
// table-aware so a table's rows spread independently of its name's
// neighbors; it must be identical in every process of the deployment.
type Map struct {
	Version int64
	Shards  int
}

// Locate returns the shard group that owns (table, row).
func (m Map) Locate(table string, row int64) int {
	if m.Shards <= 1 {
		return 0
	}
	h := fnv.New64a()
	h.Write([]byte(table))
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(uint64(row) >> (8 * i))
	}
	h.Write(b[:])
	return int(h.Sum64() % uint64(m.Shards))
}

// Group is one shard group as the router sees it: the full replicated
// system and loader surface plus the participant-side 2PC calls. The
// pooled client satisfies it.
type Group interface {
	repl.System
	repl.Loader
	// LoadRows installs values[i] at (table, rows[i]) through the
	// group's log, visible after Sync: the router loads each group with
	// the rows it owns.
	LoadRows(table string, rows []int64, values []string) error

	// DecideTxn applies a coordinator decision at this group.
	DecideTxn(id string, commit bool) (version int64, err error)
	// ResolveTxn answers an in-doubt inquiry (coordinator side).
	ResolveTxn(id string) (commit bool, err error)
	// ForgetTxn retires an acknowledged decision.
	ForgetTxn(id string) error
}

// Preparer is the 2PC vote a group's transaction must expose: extract
// the staged writeset and run the first phase at the group's
// certifier. HasWrites distinguishes real participants from read-side
// bystanders — a group a cross-shard transaction only read from never
// joins the 2PC. The pooled client's transaction implements it.
type Preparer interface {
	Prepare(id string, coord int64) (vote bool, conflictWith int64, err error)
	HasWrites() bool
}

// UnknownOutcomeError reports a cross-shard commit whose decision
// could not be confirmed: the coordinator group failed between
// receiving the decide and acknowledging it, so the transaction may
// be either committed or aborted. Callers must not retry blindly —
// they resolve against the recovered coordinator instead.
type UnknownOutcomeError struct {
	TxnID string
	Err   error
}

func (e *UnknownOutcomeError) Error() string {
	return fmt.Sprintf("router: txn %s outcome unknown: %v", e.TxnID, e.Err)
}
func (e *UnknownOutcomeError) Unwrap() error { return e.Err }

// Router fronts the shard groups with the repl.System/repl.Loader
// surface the drivers and benchmarks already speak, so a partitioned
// deployment drops in wherever a single cluster did.
type Router struct {
	m      Map
	groups []Group
	// seq numbers cross-shard transactions; with the epoch (wall clock
	// at construction) it makes ids unique across restarts, which the
	// presumed-abort protocol requires — a recycled id could collide
	// with a forgotten decision.
	epoch int64
	seq   atomic.Int64
}

// New builds a router over the given groups. The shard map's group
// count always equals len(groups).
func New(version int64, groups []Group) (*Router, error) {
	if len(groups) == 0 {
		return nil, fmt.Errorf("router: no shard groups")
	}
	return &Router{
		m:      Map{Version: version, Shards: len(groups)},
		groups: groups,
		epoch:  time.Now().UnixNano(),
	}, nil
}

// Map returns the shard map clients route by.
func (r *Router) Map() Map { return r.m }

// Group returns shard group i (status tooling and tests).
func (r *Router) Group(i int) Group { return r.groups[i] }

// Groups returns the number of shard groups.
func (r *Router) Groups() int { return len(r.groups) }

// nextTxnID mints a globally unique cross-shard transaction id.
func (r *Router) nextTxnID() string {
	return fmt.Sprintf("x%x-%d", r.epoch, r.seq.Add(1))
}

// CreateTable implements repl.Loader: every group carries every
// table's schema.
func (r *Router) CreateTable(name string) error {
	for i, g := range r.groups {
		if err := g.CreateTable(name); err != nil {
			return fmt.Errorf("router: create %s at group %d: %w", name, i, err)
		}
	}
	return nil
}

// Load implements repl.Loader: values are evaluated once, each group
// loads only the rows Locate assigns it, and Sync waits for every
// group's replicas.
func (r *Router) Load(table string, rows int, value func(int64) string) error {
	ids := make([][]int64, len(r.groups))
	values := make([][]string, len(r.groups))
	for row := int64(0); row < int64(rows); row++ {
		gi := r.m.Locate(table, row)
		ids[gi] = append(ids[gi], row)
		values[gi] = append(values[gi], value(row))
	}
	for i, g := range r.groups {
		if err := g.LoadRows(table, ids[i], values[i]); err != nil {
			return fmt.Errorf("router: load %s at group %d: %w", table, i, err)
		}
	}
	r.Sync()
	return nil
}

// Sync implements repl.System: every group drains its apply queues.
func (r *Router) Sync() {
	for _, g := range r.groups {
		g.Sync()
	}
}

// Replicas implements repl.System: the per-group replica count (the
// minimum across groups), so convergence checks compare that many
// copies of every row within its owning group.
func (r *Router) Replicas() int {
	min := r.groups[0].Replicas()
	for _, g := range r.groups[1:] {
		if n := g.Replicas(); n < min {
			min = n
		}
	}
	return min
}

// TableDump implements repl.System: replica i's view of a table is the
// union, across groups, of replica i's rows in each group — every row
// lives only in the group that owns it.
func (r *Router) TableDump(replica int, table string) (map[int64]string, error) {
	out := make(map[int64]string)
	for gi, g := range r.groups {
		dump, err := g.TableDump(replica, table)
		if err != nil {
			return nil, fmt.Errorf("router: dump %s at group %d: %w", table, gi, err)
		}
		for row, v := range dump {
			out[row] = v
		}
	}
	return out, nil
}

// BeginRead implements repl.System.
func (r *Router) BeginRead() (repl.Txn, error) { return r.begin(true) }

// BeginUpdate implements repl.System.
func (r *Router) BeginUpdate() (repl.Txn, error) { return r.begin(false) }

func (r *Router) begin(readOnly bool) (repl.Txn, error) {
	t := &rtxn{r: r, readOnly: readOnly, subs: make([]repl.Txn, len(r.groups))}
	t.order = t.orderBuf[:0]
	return t, nil
}

// rtxn is one routed transaction: per-group sub-transactions are begun
// lazily on first touch, so a single-shard transaction pays for
// exactly one — and commits through that group's ordinary path with no
// coordinator in sight.
type rtxn struct {
	r        *Router
	readOnly bool
	done     bool
	subs     []repl.Txn // indexed by group; nil until first touch
	order    []int      // touched groups in first-touch order
	orderBuf [4]int     // backs order while few groups are touched
}

// sub returns (beginning if needed) the sub-transaction at the group
// owning (table, row).
func (t *rtxn) sub(table string, row int64) (repl.Txn, error) {
	gi := t.r.m.Locate(table, row)
	if s := t.subs[gi]; s != nil {
		return s, nil
	}
	var s repl.Txn
	var err error
	if t.readOnly {
		s, err = t.r.groups[gi].BeginRead()
	} else {
		s, err = t.r.groups[gi].BeginUpdate()
	}
	if err != nil {
		return nil, err
	}
	t.subs[gi] = s
	t.order = append(t.order, gi)
	return s, nil
}

func (t *rtxn) Read(table string, row int64) (string, bool, error) {
	s, err := t.sub(table, row)
	if err != nil {
		return "", false, err
	}
	return s.Read(table, row)
}

func (t *rtxn) Write(table string, row int64, value string) error {
	s, err := t.sub(table, row)
	if err != nil {
		return err
	}
	return s.Write(table, row, value)
}

func (t *rtxn) Delete(table string, row int64) error {
	s, err := t.sub(table, row)
	if err != nil {
		return err
	}
	return s.Delete(table, row)
}

// Abort implements repl.Txn.
func (t *rtxn) Abort() {
	if t.done {
		return
	}
	t.done = true
	for _, gi := range t.order {
		t.subs[gi].Abort()
	}
}

// Commit implements repl.Txn. Zero or one WRITING group is the fast
// path: that group's own commit (certification, journal, propagation)
// IS the transaction's commit, no coordination anywhere — groups that
// were only read from commit locally for free. Two or more writing
// groups run 2PC over certification.
func (t *rtxn) Commit() error {
	if t.done {
		return fmt.Errorf("router: transaction already finished")
	}
	t.done = true
	var buf [4]int
	writers := buf[:0]
	for _, gi := range t.order {
		if p, ok := t.subs[gi].(Preparer); !ok || p.HasWrites() {
			writers = append(writers, gi)
		}
	}
	if len(writers) >= 2 {
		return t.commit2PC(writers)
	}
	// Fast path: commit the read-only bystanders (free), then the
	// single writer — whose commit outcome is the transaction's.
	var err error
	for _, gi := range t.order {
		if len(writers) == 1 && gi == writers[0] {
			continue
		}
		if cerr := t.subs[gi].Commit(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if len(writers) == 1 {
		return t.subs[writers[0]].Commit()
	}
	return err
}

// commit2PC coordinates the cross-shard commit. The coordinator is the
// lowest participating group id — a deterministic choice every
// participant can re-derive from the prepare record's Coord field.
//
// Phase 1: every participant votes via Prepare (certify + durable
// in-doubt journal + key locks). Any no-vote aborts everywhere.
// Phase 2: the COORDINATOR group's durable decision is the commit
// point; after it lands, the remaining participants are decided (each
// journals the decision and routes its fragment through its ordinary
// record log), and the decision is retired everywhere once all have
// acknowledged. A decide failure after the commit point leaves that
// participant in doubt — its recovery resolves against the
// coordinator, which still holds the decision (Forget only runs after
// every participant acknowledged).
func (t *rtxn) commit2PC(writers []int) error {
	groups := append([]int(nil), writers...)
	sort.Ints(groups)
	coord := groups[0]
	id := t.r.nextTxnID()

	// Read-only bystander groups commit locally for free; only the
	// writing groups coordinate.
	for _, gi := range t.order {
		if !contains(groups, gi) {
			_ = t.subs[gi].Commit()
		}
	}

	voted := true
	var conflictWith int64
	for _, gi := range groups {
		p, ok := t.subs[gi].(Preparer)
		if !ok {
			t.abortPrepared(id, groups, gi)
			return fmt.Errorf("router: group %d transaction %T cannot prepare", gi, t.subs[gi])
		}
		vote, with, err := p.Prepare(id, int64(coord))
		if err != nil {
			// The vote's durability is unknown — the group may hold the
			// lock. An explicit abort decision releases it either way
			// (no coordinator decision exists yet, so abort is safe).
			_, _ = t.r.groups[gi].DecideTxn(id, false)
			_ = t.r.groups[gi].ForgetTxn(id)
			t.abortPrepared(id, groups, gi)
			return fmt.Errorf("router: prepare at group %d: %w", gi, err)
		}
		if !vote {
			voted, conflictWith = false, with
			// This group journaled no vote; the earlier ones did and
			// must be aborted durably.
			t.abortPrepared(id, groups, gi)
			break
		}
	}
	if !voted {
		return &repl.AbortedError{ConflictWith: conflictWith}
	}

	// Commit point: the coordinator group's durable decision.
	if _, err := t.r.groups[coord].DecideTxn(id, true); err != nil {
		// The decide may or may not have reached the coordinator's
		// journal/quorum before the failure. Only the recovered
		// coordinator knows; surface that honestly.
		return &UnknownOutcomeError{TxnID: id, Err: err}
	}
	for _, gi := range groups[1:] {
		if _, err := t.r.groups[gi].DecideTxn(id, true); err != nil {
			// Committed (the coordinator decided) but this participant
			// could not be told; it is in doubt and will resolve on
			// recovery. The commit ack stands. Keep the coordinator's
			// decision available for that resolution — skip Forget.
			return nil
		}
	}
	// Every participant applied the decision; retire it, coordinator
	// last so Resolve keeps working until nobody needs it. Forget
	// failures are harmless (the decision is retried-forgotten or
	// compacted later), so errors are not propagated.
	for i := len(groups) - 1; i >= 1; i-- {
		_ = t.r.groups[groups[i]].ForgetTxn(id)
	}
	_ = t.r.groups[coord].ForgetTxn(id)
	return nil
}

// abortPrepared durably aborts txn id at every group before stop
// (exclusive) and locally aborts the rest of the sub-transactions.
// Called when a vote fails partway: the groups that voted yes hold
// binding locks that only a decision releases.
func (t *rtxn) abortPrepared(id string, groups []int, stop int) {
	for _, gi := range groups {
		if gi >= stop {
			break
		}
		_, _ = t.r.groups[gi].DecideTxn(id, false)
		// Presumed abort: nobody ever needs to resolve an abort, so the
		// decision record can be retired immediately.
		_ = t.r.groups[gi].ForgetTxn(id)
	}
	for _, gi := range groups {
		if gi >= stop {
			t.subs[gi].Abort()
		}
	}
}

// contains reports whether sorted slice s holds v.
func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

var (
	_ repl.System = (*Router)(nil)
	_ repl.Loader = (*Router)(nil)
	_ repl.Txn    = (*rtxn)(nil)
)
