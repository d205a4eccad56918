package main

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/repl"
	"repro/internal/router"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/internal/writeset"
)

// Calls into the client layer that a traced run times, indexed by op*.
const (
	opBegin = iota
	opRead
	opWrite
	opCommit       // update transactions: the certification path
	opCommitRO     // read-only transactions
	opCommitSingle // router commits whose writes stay in one group
	opCommitCross  // router commits whose writes span groups (2PC)
	numOps
)

var opNames = [numOps]string{"client.begin", "client.read", "client.write", "client.commit",
	"client.commit_ro", "router.commit_single", "router.commit_cross"}

// Phases of a trial's load, switched by the trial and read by every
// client goroutine.
const (
	phaseWarmup int32 = iota
	phaseMeasure
	phaseStop
)

// Per-client caps on what a traced run keeps in memory.
const (
	maxSpansPerClient   = 20000
	maxSampledPerClient = 2500
)

// opStat accumulates the calls of one operation kind.
type opStat struct{ n, ns int64 }

func (s opStat) meanUs() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.ns) / float64(s.n) / 1e3
}

// span is one timed call into a layer. Spans of one transaction share
// Trace; Parent names the span that caused this one.
type span struct {
	Trace  uint64 `json:"trace"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // since the measured window opened
	End    int64  `json:"end_ns"`
}

// txnRecord is one committed transaction's operations, which a traced
// run replays single-threaded through each layer.
type txnRecord struct {
	readOnly bool
	reads    []readOp
	writes   []writeset.Entry
}

type readOp struct {
	key   writeset.Key
	value string
	ok    bool
}

// bitset records which write tokens of one client may be visible.
type bitset []uint64

func (b *bitset) set(i uint64) {
	for uint64(len(*b)) <= i/64 {
		*b = append(*b, 0)
	}
	(*b)[i/64] |= 1 << (i % 64)
}

func (b bitset) has(i uint64) bool { return i/64 < uint64(len(b)) && b[i/64]&(1<<(i%64)) != 0 }

// driver runs the closed loop: every client goroutine issues its next
// transaction as soon as the previous one finishes.
type driver struct {
	sys    repl.System
	cat    workload.Catalog
	mix    workload.Mix
	factor int
	smap   router.Map
	traced bool

	phase  atomic.Int32
	origin time.Time // window start; written before phase becomes phaseMeasure
}

// clientRun is one client goroutine's state and window counters.
type clientRun struct {
	id     int
	rng    *stats.Rand
	credit float64 // update credit; see driver.next

	// Every written value is a token naming its client and sequence
	// number; visible marks the tokens of commits that succeeded or
	// whose outcome is unknown. A visible aborted write fails the check.
	seq     uint64
	pending []uint64
	visible bitset

	readLat, updateLat []int64 // window latencies in ns, one per committed transaction
	reads, updates     int64   // committed transactions in the window
	aborts, failed     int64
	firstErr           string
	ops                [numOps]opStat
	trace              uint64
	spans              []span
	sample             []txnRecord
	cur                *txnRecord
}

// latencyCap presizes each client's latency record so that recording
// inside the window does not allocate.
const latencyCap = 1 << 17

func newClientRun(id int, rng *stats.Rand) *clientRun {
	return &clientRun{id: id, rng: rng, credit: rng.Float64(),
		readLat: make([]int64, 0, latencyCap), updateLat: make([]int64, 0, latencyCap)}
}

// next picks the client's next transaction. The read/update split is
// exact — an update each time the client's update credit reaches one —
// so every window runs the mix's fractions, and costs per transaction do
// not move with a randomly drawn share of updates. The template within
// each class is drawn by weight.
func (d *driver) next(cr *clientRun) workload.TxnTemplate {
	cr.credit += d.mix.Pw
	if cr.credit >= 1 {
		cr.credit--
		return d.cat.PickUpdate(cr.rng)
	}
	return d.cat.PickRead(cr.rng)
}

// token is the value a client writes: template, row, client, sequence.
func token(tpl string, row int64, client int, seq uint64) string {
	return fmt.Sprintf("%s-%d-c%d-%d", tpl, row, client, seq)
}

// loadValue is the value repl.LoadCatalog gives a row.
func loadValue(table string, row int64) string { return fmt.Sprintf("%s-row-%d", table, row) }

// run is one client goroutine's loop until the trial stops it. A
// transaction counts when it both starts and ends inside the window.
func (d *driver) run(cr *clientRun) {
	for {
		phase := d.phase.Load()
		if phase == phaseStop {
			return
		}
		measuring := phase == phaseMeasure
		tpl := d.next(cr)
		rows := catalogRows(d.cat, tpl.Table, d.factor)
		start := time.Now()
		aborts, err := d.runTxn(cr, tpl, rows, measuring && d.traced)
		end := time.Now()
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: client %d: %s: %v\n", cr.id, tpl.Name, err)
		}
		if !measuring || d.phase.Load() != phaseMeasure {
			continue
		}
		cr.aborts += int64(aborts)
		switch {
		case err != nil:
			cr.failed++
			if cr.firstErr == "" {
				cr.firstErr = err.Error()
			}
		case tpl.ReadOnly:
			cr.reads++
			cr.readLat = append(cr.readLat, end.Sub(start).Nanoseconds())
		default:
			cr.updates++
			cr.updateLat = append(cr.updateLat, end.Sub(start).Nanoseconds())
		}
		if d.traced && err == nil {
			name := "txn.update"
			if tpl.ReadOnly {
				name = "txn.read"
			}
			cr.addSpan(span{Trace: cr.trace, Name: name,
				Start: start.Sub(d.origin).Nanoseconds(), End: end.Sub(d.origin).Nanoseconds()})
		}
	}
}

// runTxn executes one logical transaction, retrying aborts with a fresh
// snapshot and fresh rows, as the paper's servlets do.
func (d *driver) runTxn(cr *clientRun, tpl workload.TxnTemplate, rows int, traced bool) (int, error) {
	cr.trace = uint64(cr.id)<<48 | (cr.trace+1)&(1<<48-1)
	for aborts := 0; ; aborts++ {
		cr.cur = nil
		if traced && len(cr.sample) < maxSampledPerClient {
			cr.cur = &txnRecord{readOnly: tpl.ReadOnly}
		}
		err := d.attempt(cr, tpl, rows, traced)
		if err == nil {
			if cr.cur != nil {
				cr.sample = append(cr.sample, *cr.cur)
			}
			return aborts, nil
		}
		if !errors.Is(err, repl.ErrAborted) {
			return aborts, err
		}
	}
}

// attempt runs one try of a transaction: begin, reads, writes, commit.
func (d *driver) attempt(cr *clientRun, tpl workload.TxnTemplate, rows int, traced bool) error {
	t := clock(traced)
	var tx repl.Txn
	var err error
	if tpl.ReadOnly {
		tx, err = d.sys.BeginRead()
	} else {
		tx, err = d.sys.BeginUpdate()
	}
	d.timed(cr, opBegin, t)
	if err != nil {
		return err
	}
	for r := 0; r < tpl.ReadRows; r++ {
		row := int64(cr.rng.Intn(rows))
		t = clock(traced)
		v, ok, err := tx.Read(tpl.Table, row)
		d.timed(cr, opRead, t)
		if err != nil {
			tx.Abort()
			return err
		}
		if cr.cur != nil {
			cr.cur.reads = append(cr.cur.reads, readOp{writeset.Key{Table: tpl.Table, Row: row}, v, ok})
		}
	}
	cr.pending = cr.pending[:0]
	groups := 0 // shard groups written, as a bit mask (traced runs only)
	for w := 0; w < tpl.Writes; w++ {
		row := int64(cr.rng.Intn(rows))
		v := token(tpl.Name, row, cr.id, cr.seq)
		cr.pending = append(cr.pending, cr.seq)
		cr.seq++
		if traced {
			groups |= 1 << d.smap.Locate(tpl.Table, row)
		}
		t = clock(traced)
		err := tx.Write(tpl.Table, row, v)
		d.timed(cr, opWrite, t)
		if err != nil {
			tx.Abort()
			return err
		}
		if cr.cur != nil {
			cr.cur.writes = append(cr.cur.writes, writeset.Entry{Key: writeset.Key{Table: tpl.Table, Row: row}, Value: v})
		}
	}
	t = clock(traced)
	err = tx.Commit()
	if tpl.ReadOnly {
		d.timed(cr, opCommitRO, t)
	} else {
		d.timed(cr, opCommit, t)
	}
	if d.smap.Shards > 1 && groups != 0 {
		op := opCommitSingle
		if groups&(groups-1) != 0 {
			op = opCommitCross
		}
		d.timed(cr, op, t)
	}
	if err == nil || !errors.Is(err, repl.ErrAborted) {
		// Committed, or outcome unknown: these writes may be visible.
		for _, seq := range cr.pending {
			cr.visible.set(seq)
		}
	}
	return err
}

// clock starts timing a call when the trial is tracing it.
func clock(traced bool) time.Time {
	if !traced {
		return time.Time{}
	}
	return time.Now()
}

// timed ends a call started by clock: it accumulates the call and keeps
// its span.
func (d *driver) timed(cr *clientRun, op int, start time.Time) {
	if start.IsZero() {
		return
	}
	end := time.Now()
	cr.ops[op].n++
	cr.ops[op].ns += end.Sub(start).Nanoseconds()
	if op < opCommitSingle {
		cr.addSpan(span{Trace: cr.trace, Name: opNames[op], Parent: "txn",
			Start: start.Sub(d.origin).Nanoseconds(), End: end.Sub(d.origin).Nanoseconds()})
	}
}

func (cr *clientRun) addSpan(s span) {
	if len(cr.spans) < maxSpansPerClient {
		cr.spans = append(cr.spans, s)
	}
}

// load runs the closed loop for warmup, then for the measured window,
// then stops the clients and waits for them. at(phaseMeasure) runs just
// before the window opens and at(phaseStop) just after it closes, so the
// trial can sample counters at its edges.
func (d *driver) load(crs []*clientRun, warmup, window time.Duration, at func(phase int32)) {
	var wg sync.WaitGroup
	for _, cr := range crs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.run(cr)
		}()
	}
	time.Sleep(warmup)
	at(phaseMeasure)
	d.origin = time.Now()
	d.phase.Store(phaseMeasure)
	time.Sleep(window)
	d.phase.Store(phaseStop)
	at(phaseStop)
	wg.Wait()
}

// check verifies the trial's outcome after the load stopped: every
// replica of each group holds the same rows, and every row holds its
// load value or a value a committed (or unknown-outcome) transaction of
// this trial wrote to that row.
func (d *driver) check(sys repl.System, crs []*clientRun) error {
	tables := make([]string, 0, len(d.cat.Tables))
	for t := range d.cat.Tables {
		tables = append(tables, t)
	}
	if err := repl.CheckConvergence(sys, tables); err != nil {
		return fmt.Errorf("convergence: %w", err)
	}
	for _, table := range tables {
		dump, err := sys.TableDump(0, table)
		if err != nil {
			return err
		}
		if want := catalogRows(d.cat, table, d.factor); len(dump) != want {
			return fmt.Errorf("table %s holds %d rows, loaded %d", table, len(dump), want)
		}
		for row, v := range dump {
			if v != loadValue(table, row) && !d.visibleToken(table, row, v, crs) {
				return fmt.Errorf("table %s row %d holds %q, which no committed transaction wrote there", table, row, v)
			}
		}
	}
	return nil
}

// visibleToken reports whether v is a token some client wrote to
// (table, row) in a commit that succeeded or has an unknown outcome.
func (d *driver) visibleToken(table string, row int64, v string, crs []*clientRun) bool {
	parts := strings.Split(v, "-")
	if len(parts) != 4 || parts[1] != strconv.FormatInt(row, 10) || !strings.HasPrefix(parts[2], "c") {
		return false
	}
	writesTable := false
	for _, tpl := range d.cat.Updates {
		writesTable = writesTable || (tpl.Name == parts[0] && tpl.Table == table)
	}
	id, err1 := strconv.Atoi(parts[2][1:])
	seq, err2 := strconv.ParseUint(parts[3], 10, 64)
	return writesTable && err1 == nil && err2 == nil && id >= 0 && id < len(crs) && crs[id].visible.has(seq)
}
