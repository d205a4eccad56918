// Package router partitions the keyspace across independent shard
// groups, each running the full replicated stack (certifier + Paxos +
// WAL + apply), and routes transactions to the groups that
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
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/codec"
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
// system and loader surface plus the group-level 2PC calls. The pooled
// client satisfies it.
type Group interface {
	repl.System
	repl.Loader
	// LoadRows installs values[i] at (table, rows[i]) through the
	// group's log, visible after Sync: the router loads each group with
	// the rows it owns.
	LoadRows(table string, rows []int64, values []string) error

	// DecideTxn applies a coordinator decision at this group's
	// certifier host, following the host as it moves, and retires the
	// decisions in retire in the same write. The router calls it where
	// a sub-transaction's decide halves did not settle the decision.
	DecideTxn(id codec.TxnID, commit bool, retire ...codec.TxnID) (version int64, err error)
	// ResolveTxn answers an in-doubt inquiry (coordinator side).
	ResolveTxn(id codec.TxnID) (commit bool, err error)
	// ForgetTxn retires acknowledged decisions in one request.
	ForgetTxn(ids ...codec.TxnID) error
}

// Sub is the sub-transaction a Group must begin: a repl.Txn whose
// commit, 2PC vote and 2PC decision each split into a send and a
// receive half, so the router puts one message per group in flight
// before it reads any reply — one scatter per phase, on each group's
// own connection, with no goroutine. HasWrites tells writing
// participants from read-side bystanders: a group a cross-shard
// transaction only read from never joins the 2PC. The pooled client's
// transaction implements it.
type Sub interface {
	repl.Txn
	HasWrites() bool
	// SendCommit and RecvCommit are the halves of Commit.
	SendCommit() error
	RecvCommit() error
	// SendPrepare and RecvPrepare run the first 2PC phase at the
	// group's certifier: certify, journal in doubt, lock the keys.
	SendPrepare(id codec.TxnID, coord int64) error
	RecvPrepare() (vote bool, conflictWith int64, err error)
	// SendDecide and RecvDecide deliver the decision for the prepared
	// transaction; retire retires it in the same write, forget retires
	// earlier decisions with it. Any failure of either half leaves the
	// decision to Group.DecideTxn.
	SendDecide(id codec.TxnID, commit, retire bool, forget []codec.TxnID) error
	RecvDecide() error
}

// UnknownOutcomeError reports a cross-shard commit whose decision
// could not be confirmed: the coordinator group failed between
// receiving the decide and acknowledging it, so the transaction may
// be either committed or aborted. Callers must not retry blindly —
// they resolve against the recovered coordinator instead.
type UnknownOutcomeError struct {
	TxnID codec.TxnID
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

	// mu guards retire and spare. retire[g] holds the ids of decisions
	// group g made as coordinator whose participants have all
	// acknowledged: the next commit decide the router sends g as
	// coordinator retires them, and Sync retires what is left. spare
	// holds emptied lists for reuse, so retirement allocates nothing
	// once the lists have grown.
	mu     sync.Mutex
	retire [][]codec.TxnID
	spare  [][]codec.TxnID

	// Commit counters (see Stats).
	single, cross, exchanges atomic.Int64
}

// Stats counts the commits a router has run and the sequential
// exchanges they made, which a client's own count of its calls cannot
// see: a routed commit makes them inside one Commit call.
type Stats struct {
	// Single counts commits with at most one writing group, which
	// commit without 2PC; Cross counts those that ran 2PC.
	Single, Cross int64
	// Exchanges counts the sequential exchanges of both kinds: one per
	// scatter whose replies were awaited (a phase), and one per
	// synchronous fallback decide.
	Exchanges int64
}

// Stats returns the router's commit counters.
func (r *Router) Stats() Stats {
	return Stats{Single: r.single.Load(), Cross: r.cross.Load(), Exchanges: r.exchanges.Load()}
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
		retire: make([][]codec.TxnID, len(groups)),
	}, nil
}

// Map returns the shard map clients route by.
func (r *Router) Map() Map { return r.m }

// Group returns shard group i (status tooling and tests).
func (r *Router) Group(i int) Group { return r.groups[i] }

// Groups returns the number of shard groups.
func (r *Router) Groups() int { return len(r.groups) }

// nextTxnID mints a globally unique cross-shard transaction id.
func (r *Router) nextTxnID() codec.TxnID {
	return codec.TxnID{Epoch: r.epoch, Seq: r.seq.Add(1)}
}

// takeRetire removes and returns group g's pending retirements,
// leaving g an emptied spare list to collect new ones in.
func (r *Router) takeRetire(g int) []codec.TxnID {
	r.mu.Lock()
	defer r.mu.Unlock()
	ids := r.retire[g]
	if len(ids) == 0 {
		return nil
	}
	r.retire[g] = nil
	if n := len(r.spare); n > 0 {
		r.retire[g], r.spare = r.spare[n-1], r.spare[:n-1]
	}
	return ids
}

// settleRetire ends a retirement takeRetire began: ids go back to
// group g's list when the group did not retire them, and their list
// becomes a spare.
func (r *Router) settleRetire(g int, ids []codec.TxnID, retired bool) {
	if ids == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !retired {
		r.retire[g] = append(r.retire[g], ids...)
	}
	r.spare = append(r.spare, ids[:0])
}

// addRetire queues the retirement of coordinator group g's decision
// for id.
func (r *Router) addRetire(g int, id codec.TxnID) {
	r.mu.Lock()
	r.retire[g] = append(r.retire[g], id)
	r.mu.Unlock()
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

// Sync implements repl.System: every group retires, in one ForgetTxn,
// the coordinator decisions no later decide has retired, and drains
// its apply queues.
func (r *Router) Sync() {
	for i, g := range r.groups {
		if ids := r.takeRetire(i); ids != nil {
			r.settleRetire(i, ids, g.ForgetTxn(ids...) == nil)
		}
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
	return &rtxn{r: r, readOnly: readOnly, subs: make([]Sub, len(r.groups))}, nil
}

// rtxn is one routed transaction: per-group sub-transactions are begun
// lazily on first touch, so a single-shard transaction pays for
// exactly one — and commits through that group's ordinary path with no
// coordinator in sight. Every pass over the touched groups walks subs
// by group index, so the writers a commit collects come out ascending.
type rtxn struct {
	r        *Router
	readOnly bool
	done     bool
	// subs is indexed by group; nil until first touch. Once Commit has
	// begun, a sub whose send half failed is set back to nil: its
	// exchange is settled, and there is no reply to read.
	subs []Sub
	// trips counts the commit's sequential exchanges (Stats.Exchanges).
	trips int
}

// sub returns (beginning if needed) the sub-transaction at the group
// owning (table, row).
func (t *rtxn) sub(table string, row int64) (Sub, error) {
	gi := t.r.m.Locate(table, row)
	if s := t.subs[gi]; s != nil {
		return s, nil
	}
	var tx repl.Txn
	var err error
	if t.readOnly {
		tx, err = t.r.groups[gi].BeginRead()
	} else {
		tx, err = t.r.groups[gi].BeginUpdate()
	}
	if err != nil {
		return nil, err
	}
	s, ok := tx.(Sub)
	if !ok {
		tx.Abort()
		return nil, fmt.Errorf("router: group %d transaction %T cannot split its exchanges", gi, tx)
	}
	t.subs[gi] = s
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
	for _, s := range t.subs {
		if s != nil {
			s.Abort()
		}
	}
}

// Commit implements repl.Txn. Zero or one WRITING group is the fast
// path: that group's own commit (certification, journal, propagation)
// IS the transaction's commit, no coordination anywhere — groups that
// were only read from commit locally for free. Every touched group's
// commit goes out before any reply is read, so the fast path is one
// round trip however many groups were read. Two or more writing
// groups run 2PC over certification.
func (t *rtxn) Commit() error {
	if t.done {
		return fmt.Errorf("router: transaction already finished")
	}
	t.done = true
	var buf [4]int
	writers := buf[:0]
	for gi, s := range t.subs {
		if s != nil && s.HasWrites() {
			writers = append(writers, gi)
		}
	}
	if len(writers) >= 2 {
		err := t.commit2PC(writers)
		t.r.cross.Add(1)
		t.r.exchanges.Add(int64(t.trips))
		return err
	}
	writer := -1
	if len(writers) == 1 {
		writer = writers[0]
	}
	var err error
	sent := false
	for gi, s := range t.subs {
		if s == nil {
			continue
		}
		if e := s.SendCommit(); e != nil {
			t.subs[gi] = nil
			err = outcome(err, e, gi, writer)
		} else {
			sent = true
		}
	}
	if sent {
		t.trips++ // one exchange: a reply is left to read
	}
	for gi, s := range t.subs {
		if s != nil {
			err = outcome(err, s.RecvCommit(), gi, writer)
		}
	}
	t.r.single.Add(1)
	t.r.exchanges.Add(int64(t.trips))
	return err
}

// outcome folds group gi's commit error e into the transaction's err:
// the writer's outcome is the transaction's (writer < 0: there is
// none), and without a writer the first bystander failure is.
func outcome(err, e error, gi, writer int) error {
	if e != nil && (gi == writer || writer < 0 && err == nil) {
		return e
	}
	return err
}

// commit2PC coordinates the cross-shard commit over the writing
// groups, in ascending order. The coordinator is the lowest writing
// group — a deterministic choice every participant can re-derive from
// the prepare record's Coord field. Each phase is one scatter: every
// message of the phase goes out, each on its group's connection,
// before any reply is read.
//
// Phase 1: every writer votes (certify + durable in-doubt journal +
// key locks), while the read-only bystanders commit locally for free.
// A no-vote or an error aborts at every writer whose prepare was sent.
// Phase 2: the COORDINATOR group's durable decision is the commit
// point; it also retires the coordinator's earlier decisions whose
// participants all acknowledged. Then every participant decides and
// retires its decision in one write, and the commit returns once all
// have answered. A participant that cannot be told stays in doubt and
// resolves against the coordinator on recovery, so the coordinator's
// decision is queued for retirement only once every participant
// acknowledged it.
func (t *rtxn) commit2PC(writers []int) error {
	coord := writers[0]
	id := t.r.nextTxnID()

	var failed error
	sent := false
	for gi, s := range t.subs {
		if s == nil {
			continue
		}
		if !contains(writers, gi) {
			if s.SendCommit() != nil {
				t.subs[gi] = nil
			} else {
				sent = true
			}
			continue
		}
		if err := s.SendPrepare(id, int64(coord)); err != nil {
			t.subs[gi] = nil
			if failed == nil {
				failed = fmt.Errorf("router: prepare at group %d: %w", gi, err)
			}
		} else {
			sent = true
		}
	}
	if sent {
		t.trips++
	}
	voted := true
	var conflictWith int64
	for gi, s := range t.subs {
		if s == nil {
			continue
		}
		if !contains(writers, gi) {
			_ = s.RecvCommit()
			continue
		}
		vote, with, err := s.RecvPrepare()
		switch {
		case err != nil:
			if failed == nil {
				failed = fmt.Errorf("router: prepare at group %d: %w", gi, err)
			}
		case !vote && voted:
			voted, conflictWith = false, with
		}
	}
	if failed != nil || !voted {
		// A writer that voted yes holds binding locks only a decision
		// releases, and one whose vote failed may hold them too: no
		// coordinator decision exists yet, so abort is safe everywhere,
		// and presumed abort lets each retire at once.
		t.decideAll(writers, id, false)
		if failed != nil {
			return failed
		}
		return &repl.AbortedError{ConflictWith: conflictWith}
	}

	// Commit point: the coordinator group's durable decision, which
	// retires the coordinator's earlier ones.
	forget := t.r.takeRetire(coord)
	s := t.subs[coord]
	err := s.SendDecide(id, true, false, forget)
	if err == nil {
		t.trips++
		err = s.RecvDecide()
	}
	if err != nil {
		err = t.decideSync(coord, id, true, forget...)
	}
	t.r.settleRetire(coord, forget, err == nil)
	if err != nil {
		// The decide may or may not have reached the coordinator's
		// journal/quorum before the failure. Only the recovered
		// coordinator knows; surface that honestly.
		return &UnknownOutcomeError{TxnID: id, Err: err}
	}
	if t.decideAll(writers[1:], id, true) {
		t.r.addRetire(coord, id)
	}
	return nil
}

// decideAll delivers decision commit for id to every group in groups
// as one scatter, each retiring it in the same write, and reports
// whether all of them acknowledged. A group whose decide halves do not
// settle it is decided through Group.DecideTxn; a group that still
// cannot be told is left in doubt.
func (t *rtxn) decideAll(groups []int, id codec.TxnID, commit bool) bool {
	acked := true
	sent := false
	for _, gi := range groups {
		if s := t.subs[gi]; s == nil || s.SendDecide(id, commit, true, nil) != nil {
			t.subs[gi] = nil
			acked = t.decideSync(gi, id, commit, id) == nil && acked
		} else {
			sent = true
		}
	}
	if sent {
		t.trips++
	}
	for _, gi := range groups {
		if s := t.subs[gi]; s != nil && s.RecvDecide() != nil {
			acked = t.decideSync(gi, id, commit, id) == nil && acked
		}
	}
	return acked
}

// decideSync decides through the group's synchronous DecideTxn, which
// follows the certifier host across redirects.
func (t *rtxn) decideSync(gi int, id codec.TxnID, commit bool, retire ...codec.TxnID) error {
	t.trips++
	_, err := t.r.groups[gi].DecideTxn(id, commit, retire...)
	return err
}

// contains reports whether s holds v.
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
