// Package app implements realistic e-commerce applications — a TPC-W
// style bookstore and a RUBiS-style auction site — on top of the live
// replicated middleware (internal/repl). The paper motivates its
// models with exactly these workloads (§1, §6.1); this package runs
// their actual transaction logic (stock decrements, order creation,
// bidding, comments) rather than synthetic row touches, and checks
// application-level integrity invariants that only hold if the
// replication protocols provide the isolation they claim:
//
//   - conservation: stock sold equals stock removed, money charged
//     equals order totals;
//   - auction consistency: an item's recorded highest bid equals the
//     maximum over its bid records;
//   - convergence: every replica reports identical application state.
//
// Rows store flat attribute maps encoded as "k=v;k=v" strings, the
// closest row shape the storage engine (one value per row) supports.
package app

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/repl"
)

// Record is a row's attribute map with integer values (cents,
// quantities, identifiers).
type Record map[string]int64

// Encode renders the record deterministically (sorted keys).
func (r Record) Encode() string {
	keys := make([]string, 0, len(r))
	for k := range r {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%d", k, r[k]))
	}
	return strings.Join(parts, ";")
}

// DecodeRecord parses a row value produced by Encode.
func DecodeRecord(s string) (Record, error) {
	r := Record{}
	if s == "" {
		return r, nil
	}
	for _, part := range strings.Split(s, ";") {
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 || kv[0] == "" {
			return nil, fmt.Errorf("app: malformed record part %q", part)
		}
		v, err := strconv.ParseInt(kv[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("app: malformed record value %q: %v", part, err)
		}
		r[kv[0]] = v
	}
	return r, nil
}

// Clone copies the record.
func (r Record) Clone() Record {
	out := make(Record, len(r))
	for k, v := range r {
		out[k] = v
	}
	return out
}

// update runs body in an update transaction, retrying certification
// aborts with a fresh snapshot (the servlet behaviour, §6.1).
// Application-level failures (e.g. ErrOutOfStock) abort and return.
//
// A committed update is applied everywhere (sys.Sync) before update
// returns. The interactions read their own earlier writes — checkout
// reads the cart the previous step filled, a bid must beat the last
// one — but generalized snapshot isolation gives a transaction only
// what its replica has applied, and a multi-master replica applies
// other replicas' commits asynchronously. Waiting here gives each
// session read-your-writes on any replica.
func update(sys repl.System, body func(tx repl.Txn) error) error {
	for {
		tx, err := sys.BeginUpdate()
		if err != nil {
			return err
		}
		if err := body(tx); err != nil {
			tx.Abort()
			if errors.Is(err, repl.ErrAborted) {
				continue // eager certification killed it; retry
			}
			return err
		}
		switch err := tx.Commit(); {
		case err == nil:
			sys.Sync()
			return nil
		case errors.Is(err, repl.ErrAborted):
			// Retry with a fresh snapshot.
		default:
			return err
		}
	}
}
