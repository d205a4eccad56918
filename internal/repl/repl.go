// Package repl defines the common surface of the two replicated
// database designs (multi-master and single-master, both served by
// internal/server and reached through internal/client) and a workload
// driver that exercises either through real concurrent clients. These
// are the functional counterparts of the paper's prototypes (§5); the
// performance counterparts live in internal/cluster.
package repl

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/stats"
	"repro/internal/workload"
)

// ErrAborted reports a write-write conflict abort; the client should
// retry the transaction, as the paper's servlets do.
var ErrAborted = errors.New("repl: transaction aborted by certification")

// ErrReadOnlyTxn reports a write attempted through a read-only
// transaction handle.
var ErrReadOnlyTxn = errors.New("repl: write on read-only transaction")

// AbortedError is an ErrAborted that carries the newest committed
// version the transaction conflicted with, so the diagnostic survives
// structured channels (like the wire protocol) instead of living only
// in an error string. errors.Is(err, ErrAborted) matches it.
type AbortedError struct {
	ConflictWith int64
}

// Error implements error.
func (e *AbortedError) Error() string {
	if e.ConflictWith > 0 {
		return fmt.Sprintf("%v (conflicts with version %d)", ErrAborted, e.ConflictWith)
	}
	return ErrAborted.Error()
}

// Unwrap makes errors.Is(err, ErrAborted) hold.
func (e *AbortedError) Unwrap() error { return ErrAborted }

// ConflictWith extracts the conflicting version from an abort error
// chain, or 0 when the error does not carry one.
func ConflictWith(err error) int64 {
	var ae *AbortedError
	if errors.As(err, &ae) {
		return ae.ConflictWith
	}
	return 0
}

// UnknownOutcomeError reports a commit whose fate is unknown: the
// transport died after the request may have reached the certifier, so
// the transaction might be durably committed even though no
// acknowledgement arrived. It deliberately does NOT match ErrAborted —
// a driver that retried it blindly could apply the transaction twice
// once commits are durable. Drivers should reconcile (re-read) or
// surface the ambiguity instead.
type UnknownOutcomeError struct {
	// Err is the underlying transport failure.
	Err error
}

// Error implements error.
func (e *UnknownOutcomeError) Error() string {
	return fmt.Sprintf("repl: commit outcome unknown (connection lost mid-commit): %v", e.Err)
}

// Unwrap exposes the transport failure for errors.Is/As.
func (e *UnknownOutcomeError) Unwrap() error { return e.Err }

// Txn is one client transaction against a replicated system.
type Txn interface {
	// Read returns the visible value of (table, row).
	Read(table string, row int64) (string, bool, error)
	// Write stages an update of (table, row).
	Write(table string, row int64, value string) error
	// Delete stages a row removal.
	Delete(table string, row int64) error
	// Commit finishes the transaction; ErrAborted signals a
	// write-write conflict.
	Commit() error
	// Abort discards the transaction.
	Abort()
}

// System is a replicated database as seen by the load driver.
type System interface {
	// BeginRead starts a read-only transaction (routed to any
	// replica).
	BeginRead() (Txn, error)
	// BeginUpdate starts an update transaction (routed per design:
	// any replica for MM, the master for SM).
	BeginUpdate() (Txn, error)
	// Sync blocks until every replica has applied all writesets
	// committed so far.
	Sync()
	// Replicas returns the number of database replicas.
	Replicas() int
	// TableDump returns a canonical dump of one replica's table
	// contents for convergence checks.
	TableDump(replica int, table string) (map[int64]string, error)
}

// Loader populates tables; both designs implement it. Schema and rows
// enter the replicated log like commits, so every replica — including
// one that joins or recovers later — receives them from the log.
type Loader interface {
	// CreateTable makes an empty table on every replica.
	CreateTable(name string) error
	// Load fills table rows [0, rows) with value(row) on every
	// replica (initial load).
	Load(table string, rows int, value func(int64) string) error
}

// LoadChunkBytes bounds one load record. A loader cuts its rows into
// chunks whose charge — each row's value length plus loadEntryOverhead
// — stays within it (a single larger row travels alone). Each chunk is
// one record of the replicated log and, on the networked stack, one
// wire.Load frame, comfortably under wire.MaxFrame. The client and the
// server cut with the same function, so a client's chunk is exactly one
// record at the server.
const LoadChunkBytes = 256 << 10

// loadEntryOverhead is what a row costs beyond its value bytes: the
// worst-case wire.Records entry header of a row in a within-budget
// chunk — table dictionary index (2 bytes, under 16384 tables per
// frame), zig-zag row varint (10), delete flag (1) and the value's
// length prefix (3, for values under 2 MiB) — so row ids count toward
// the budget as well.
const loadEntryOverhead = 16

// Rows evaluates value for rows [0, n), returning the row ids and
// values a chunked loader installs.
func Rows(n int, value func(int64) string) ([]int64, []string) {
	rows := make([]int64, n)
	values := make([]string, n)
	for i := range rows {
		rows[i] = int64(i)
		values[i] = value(int64(i))
	}
	return rows, values
}

// Chunks calls load on consecutive chunks of rows and their values,
// each within LoadChunkBytes, stopping at the first error. Cutting a
// chunk again returns it whole.
func Chunks(rows []int64, values []string, load func(rows []int64, values []string) error) error {
	for start := 0; start < len(rows); {
		end, charge := start+1, loadEntryOverhead+len(values[start])
		for end < len(rows) && charge+loadEntryOverhead+len(values[end]) <= LoadChunkBytes {
			charge += loadEntryOverhead + len(values[end])
			end++
		}
		if err := load(rows[start:end], values[start:end]); err != nil {
			return err
		}
		start = end
	}
	return nil
}

// LoadCatalog creates and populates every table of a workload catalog
// (scaled down by factor to keep tests fast; factor 1 loads full
// size). Row values are deterministic.
func LoadCatalog(l Loader, cat workload.Catalog, factor int) error {
	if factor < 1 {
		factor = 1
	}
	for _, name := range sortedTables(cat) {
		rows := cat.Tables[name] / factor
		if rows < 10 {
			rows = 10
		}
		if err := l.CreateTable(name); err != nil {
			return err
		}
		if err := l.Load(name, rows, func(r int64) string { return loadValue(name, r) }); err != nil {
			return err
		}
	}
	return nil
}

// loadValue is the value LoadCatalog gives a row: "<table>-row-<r>",
// the bytes the bench's correctness check (bench/drive.go) expects of
// a row no transaction wrote. It is concatenated rather than formatted
// because it runs once per loaded row, inside the cluster's set-up
// time.
func loadValue(table string, r int64) string {
	return table + "-row-" + strconv.FormatInt(r, 10)
}

// sortedTables returns catalog table names in deterministic order.
func sortedTables(cat workload.Catalog) []string {
	names := make([]string, 0, len(cat.Tables))
	for n := range cat.Tables {
		names = append(names, n)
	}
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	return names
}

// DriveResult summarizes a workload run.
type DriveResult struct {
	Commits       int64
	ReadCommits   int64
	UpdateCommits int64
	Aborts        int64 // update attempts that ended in ErrAborted
	Errors        int64 // unexpected errors (should be zero)

	// Unknown counts transactions whose commit outcome is ambiguous
	// (UnknownOutcomeError): the request may have reached the
	// certifier before the connection died or the leader was deposed,
	// so the transaction may or may not be durably committed. A
	// closed-loop driver cannot retry these blindly (double-apply)
	// nor treat them as failures of the system under test — they are
	// the unavoidable residue of killing a replica with commits in
	// flight — so they are reported separately from Errors.
	Unknown int64

	// FirstError samples the first unexpected error a client hit, so
	// a nonzero Errors count is diagnosable instead of a bare number.
	FirstError string

	// ReadLatency and UpdateLatency are client-perceived latency
	// histograms over committed logical transactions per class; an
	// update transaction's latency includes its certification-abort
	// retries, matching what the paper's emulated browsers observe.
	ReadLatency   *stats.Latency
	UpdateLatency *stats.Latency
}

// Drive runs clients concurrent closed-loop clients, each executing
// txnsPerClient committed transactions drawn from the catalog at the
// mix's read/update fractions against sys. Aborted updates are
// retried until they commit. The row space of each template's table is
// assumed loaded via LoadCatalog with the same factor.
func Drive(sys System, cat workload.Catalog, mix workload.Mix, clients, txnsPerClient int, factor int, seed uint64) DriveResult {
	if factor < 1 {
		factor = 1
	}
	res := DriveResult{
		ReadLatency:   stats.NewLatency(),
		UpdateLatency: stats.NewLatency(),
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	root := stats.NewRand(seed)
	rngs := make([]*stats.Rand, clients)
	for i := range rngs {
		rngs[i] = root.Split()
	}
	for c := 0; c < clients; c++ {
		rng := rngs[c]
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local DriveResult
			for i := 0; i < txnsPerClient; i++ {
				tpl := cat.Pick(mix, rng)
				rows := cat.Tables[tpl.Table] / factor
				if rows < 10 {
					rows = 10
				}
				start := time.Now()
				if err := runTemplate(sys, tpl, rows, rng, &local); err != nil {
					var uo *UnknownOutcomeError
					if errors.As(err, &uo) {
						local.Unknown++
					} else {
						local.Errors++
						if local.FirstError == "" {
							local.FirstError = err.Error()
						}
					}
					continue
				}
				if tpl.ReadOnly {
					res.ReadLatency.Record(time.Since(start))
				} else {
					res.UpdateLatency.Record(time.Since(start))
				}
			}
			mu.Lock()
			res.Commits += local.Commits
			res.ReadCommits += local.ReadCommits
			res.UpdateCommits += local.UpdateCommits
			res.Aborts += local.Aborts
			res.Errors += local.Errors
			res.Unknown += local.Unknown
			if res.FirstError == "" {
				res.FirstError = local.FirstError
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	return res
}

// runTemplate executes one logical transaction until it commits.
func runTemplate(sys System, tpl workload.TxnTemplate, rows int, rng *stats.Rand, res *DriveResult) error {
	for {
		var tx Txn
		var err error
		if tpl.ReadOnly {
			tx, err = sys.BeginRead()
		} else {
			tx, err = sys.BeginUpdate()
		}
		if err != nil {
			return err
		}
		aborted := false
		for r := 0; r < tpl.ReadRows; r++ {
			if _, _, err := tx.Read(tpl.Table, int64(rng.Intn(rows))); err != nil {
				tx.Abort()
				if errors.Is(err, ErrAborted) {
					// The replica died or left mid-transaction; the
					// networked driver surfaces that as an abort so the
					// transaction retries on a surviving replica.
					res.Aborts++
					aborted = true
					break
				}
				return err
			}
		}
		if aborted {
			continue
		}
		for w := 0; w < tpl.Writes; w++ {
			row := int64(rng.Intn(rows))
			if err := tx.Write(tpl.Table, row, fmt.Sprintf("%s-%d", tpl.Name, rng.Uint64())); err != nil {
				if errors.Is(err, ErrAborted) {
					// Eager certification killed the transaction early.
					tx.Abort()
					res.Aborts++
					aborted = true
					break
				}
				tx.Abort()
				return err
			}
		}
		if aborted {
			continue
		}
		switch err := tx.Commit(); {
		case err == nil:
			res.Commits++
			if tpl.ReadOnly {
				res.ReadCommits++
			} else {
				res.UpdateCommits++
			}
			return nil
		case errors.Is(err, ErrAborted):
			res.Aborts++
			// Retry with a fresh snapshot.
		default:
			return err
		}
	}
}

// CheckConvergence verifies that all replicas hold identical contents
// for the given tables, returning a descriptive error on divergence.
func CheckConvergence(sys System, tables []string) error {
	sys.Sync()
	for _, table := range tables {
		ref, err := sys.TableDump(0, table)
		if err != nil {
			return err
		}
		for r := 1; r < sys.Replicas(); r++ {
			got, err := sys.TableDump(r, table)
			if err != nil {
				return err
			}
			if len(got) != len(ref) {
				return fmt.Errorf("repl: table %q: replica %d has %d rows, replica 0 has %d",
					table, r, len(got), len(ref))
			}
			for k, v := range ref {
				if got[k] != v {
					return fmt.Errorf("repl: table %q row %d: replica %d=%q, replica 0=%q",
						table, k, r, got[k], v)
				}
			}
		}
	}
	return nil
}
