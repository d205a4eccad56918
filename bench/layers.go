package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/certifier"
	"repro/internal/client"
	"repro/internal/repl"
	"repro/internal/repl/pipeline"
	"repro/internal/router"
	"repro/internal/sidb"
	"repro/internal/wal"
	"repro/internal/wire"
	"repro/internal/workload"
	"repro/internal/writeset"
)

// layerProbe reads every replica's public Stats counters at the edges
// of a traced trial's window, and samples the apply backlog in between.
// Its methods do nothing on a nil probe (untraced trials).
type layerProbe struct {
	links         []*client.Link
	before, after []*wire.StatsOK
	err           error

	quit    chan struct{}
	wg      sync.WaitGroup
	backlog int64 // sum over samples of every replica's apply lag
	samples int64
}

func newLayerProbe(addrs []string, design string) *layerProbe {
	p := &layerProbe{}
	for _, a := range addrs {
		p.links = append(p.links, client.NewLink(a, design, -1, 2*time.Second))
	}
	return p
}

func (p *layerProbe) poll() ([]*wire.StatsOK, error) {
	out := make([]*wire.StatsOK, len(p.links))
	for i, l := range p.links {
		st, err := l.Stats()
		if err != nil {
			return nil, fmt.Errorf("stats from replica %d: %w", i, err)
		}
		out[i] = st
	}
	return out, nil
}

// backlogEvery is how often a traced window samples the apply backlog.
const backlogEvery = 100 * time.Millisecond

func (p *layerProbe) start() {
	if p == nil {
		return
	}
	p.before, p.err = p.poll()
	p.quit = make(chan struct{})
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		tick := time.NewTicker(backlogEvery)
		defer tick.Stop()
		for {
			select {
			case <-p.quit:
				return
			case <-tick.C:
				sts, err := p.poll()
				if err != nil {
					continue
				}
				for _, st := range sts {
					p.backlog += st.ApplyLag
				}
				p.samples++
			}
		}
	}()
}

func (p *layerProbe) stop() {
	if p == nil {
		return
	}
	close(p.quit)
	p.wg.Wait()
	after, err := p.poll()
	p.after = after
	if p.err == nil {
		p.err = err
	}
}

func (p *layerProbe) close() {
	for _, l := range p.links {
		l.Close()
	}
}

// layers adds a traced trial's per-layer metrics to res.Metrics and
// keeps its spans.
func (p *layerProbe) layers(res *trialResult, crs []*clientRun, before, after procSample,
	cat workload.Catalog, cfg trialConfig) error {
	if p.err != nil {
		return p.err
	}
	m := res.Metrics
	committed := max(float64(res.committed()), 1)

	// client, lb and router: the benchmark's own spans around its calls.
	var ops [numOps]opStat
	var sample []txnRecord
	for _, cr := range crs {
		for i := range ops {
			ops[i].n += cr.ops[i].n
			ops[i].ns += cr.ops[i].ns
		}
		res.Spans = append(res.Spans, cr.spans...)
		sample = append(sample, cr.sample...)
	}
	calls := ops[opBegin].n + ops[opRead].n + ops[opWrite].n + ops[opCommit].n + ops[opCommitRO].n
	m["client.begin_us"] = ops[opBegin].meanUs()
	m["client.read_us"] = ops[opRead].meanUs()
	m["client.write_us"] = ops[opWrite].meanUs()
	m["client.commit_us"] = ops[opCommit].meanUs()
	m["client.commit_ro_us"] = ops[opCommitRO].meanUs()
	m["client.rtt_per_txn"] = float64(calls) / committed
	if ops[opCommitSingle].n+ops[opCommitCross].n > 0 {
		m["router.commit_single_us"] = ops[opCommitSingle].meanUs()
		m["router.commit_cross_us"] = ops[opCommitCross].meanUs()
	}
	if updates := float64(res.UpdateCommits + res.Aborts); updates > 0 {
		m["certifier.abort_ratio"] = float64(res.Aborts) / updates
	}

	// server, certifier, pipeline, wal: Stats deltas summed over replicas.
	// The servers' share of a commit is certify and ack at the node that
	// served it, plus — for commits served at a certifier host — the
	// paxos, journal and fsync waits its certify stage leaves out (a
	// remote node's certify already spans them).
	var d wire.StatsOK
	var commitNs, commits float64
	for i := range p.after {
		a, b := p.after[i], p.before[i]
		d.ReadCommits += a.ReadCommits - b.ReadCommits
		d.ReadNs += a.ReadNs - b.ReadNs
		d.UpdateCommits += a.UpdateCommits - b.UpdateCommits
		d.UpdateNs += a.UpdateNs - b.UpdateNs
		d.LagCount += a.LagCount - b.LagCount
		d.LagSumNs += a.LagSumNs - b.LagSumNs
		var sub, subN int64
		for s := range d.StageCounts {
			n, ns := a.StageCounts[s]-b.StageCounts[s], a.StageNs[s]-b.StageNs[s]
			d.StageCounts[s] += n
			d.StageNs[s] += ns
			if s == pipeline.StagePaxos || s == pipeline.StageJournal || s == pipeline.StageFsync {
				sub, subN = sub+ns, max(subN, n)
			}
		}
		acks := float64(a.StageCounts[pipeline.StageAck] - b.StageCounts[pipeline.StageAck])
		commits += acks
		commitNs += float64(a.StageNs[pipeline.StageCertify]-b.StageNs[pipeline.StageCertify]) +
			float64(a.StageNs[pipeline.StageAck]-b.StageNs[pipeline.StageAck])
		if subN > 0 {
			commitNs += acks * float64(sub) / float64(subN)
		}
	}
	m["server.read_txn_us"] = perUs(d.ReadNs, d.ReadCommits)
	m["server.update_txn_us"] = perUs(d.UpdateNs, d.UpdateCommits)
	m["repl.lag_us"] = perUs(d.LagSumNs, d.LagCount)
	if p.samples > 0 {
		m["apply.lag_versions"] = float64(p.backlog) / float64(p.samples)
	}
	for s, name := range pipeline.StageNames {
		if d.StageCounts[s] > 0 { // zero: the stage is not on this workload's path
			m["stage."+name+"_us"] = perUs(d.StageNs[s], d.StageCounts[s])
		}
	}
	m["commit_residual_us"] = m["client.commit_us"]
	if commits > 0 {
		m["commit_residual_us"] -= commitNs / commits / 1e3
	}

	// Go runtime.
	m["proc.heap_mb"] = float64(after.heapLive) / (1 << 20)
	if cycles := after.gcCycles - before.gcCycles; cycles > 0 {
		// The runtime adds a cycle's GC CPU time when the cycle ends;
		// the share is of the CPU GOMAXPROCS makes available.
		m["proc.gc_cpu_frac"] = (after.gcCPU - before.gcCPU) /
			(float64(runtime.GOMAXPROCS(0)) * after.at.Sub(before.at).Seconds())
		m["proc.gc_cycles_per_ktxn"] = float64(cycles) / committed * 1000
	}

	return replay(m, sample, cat, cfg)
}

func perUs(ns, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(ns) / float64(n) / 1e3
}

// recordsBatch is how many writesets one replayed Records frame carries.
const recordsBatch = 16

// replay runs the committed transactions a traced trial sampled through
// single layers, single-threaded, and adds what each costs to m.
func replay(m map[string]float64, sample []txnRecord, cat workload.Catalog, cfg trialConfig) error {
	var updates []certifier.Record
	var reads []txnRecord
	for _, t := range sample {
		if t.readOnly {
			reads = append(reads, t)
		} else {
			updates = append(updates, certifier.Record{
				Version: int64(len(updates) + 1), Writeset: writeset.New(t.writes)})
		}
	}
	if len(sample) == 0 || len(updates) == 0 || len(reads) == 0 {
		return fmt.Errorf("replay: the window sampled %d transactions, %d of them updates", len(sample), len(updates))
	}
	n := float64(len(sample))

	// wire: every request and reply frame of each transaction.
	var frames []wire.Message
	for _, t := range sample {
		frames = append(frames, &wire.Begin{ReadOnly: t.readOnly}, &wire.BeginOK{})
		for _, r := range t.reads {
			frames = append(frames, &wire.Read{Table: r.key.Table, Row: r.key.Row}, &wire.ReadOK{OK: r.ok, Value: r.value})
		}
		for _, e := range t.writes {
			frames = append(frames, &wire.Write{Table: e.Key.Table, Row: e.Key.Row, Value: e.Value}, &wire.WriteOK{})
		}
		frames = append(frames, &wire.Commit{}, &wire.CommitOK{})
	}
	var buf bytes.Buffer
	conn := wire.NewConn(&buf)
	reqBytes := 0
	start := time.Now()
	for i, f := range frames {
		before := buf.Len()
		if err := conn.Send(f); err != nil {
			return fmt.Errorf("replay encode: %w", err)
		}
		if i%2 == 0 {
			reqBytes += buf.Len() - before
		}
	}
	m["wire.encode_ns_per_txn"] = float64(time.Since(start).Nanoseconds()) / n
	m["wire.req_bytes_per_txn"] = float64(reqBytes) / n
	start = time.Now()
	for range frames {
		if _, err := conn.Recv(); err != nil {
			return fmt.Errorf("replay decode: %w", err)
		}
	}
	m["wire.decode_ns_per_txn"] = float64(time.Since(start).Nanoseconds()) / n

	// wire: the propagation stream of the committed writesets.
	buf.Reset()
	for i := 0; i < len(updates); i += recordsBatch {
		batch := &wire.Records{Compress: true}
		for _, u := range updates[i:min(i+recordsBatch, len(updates))] {
			batch.Recs = append(batch.Recs, wire.Record{Version: u.Version, WS: u.Writeset})
		}
		if err := conn.Send(batch); err != nil {
			return fmt.Errorf("replay records: %w", err)
		}
	}
	m["wire.records_bytes_per_update"] = float64(buf.Len()) / float64(len(updates))

	// certifier: certify each writeset against the newest snapshot.
	cert := certifier.New()
	start = time.Now()
	for _, u := range updates {
		out, err := cert.Certify(cert.Version(), u.Writeset)
		if err != nil || !out.Committed {
			return fmt.Errorf("replay certify: committed=%v err=%v", out.Committed, err)
		}
	}
	m["certifier.certify_ns_per_update"] = perNs(time.Since(start), len(updates))

	// wal: append each certified writeset (no fsync).
	dir := filepath.Join(cfg.Workdir, "wal", fmt.Sprintf("replay-%d", os.Getpid()))
	w, _, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		return fmt.Errorf("replay wal: %w", err)
	}
	size0 := w.Size()
	start = time.Now()
	for _, u := range updates {
		if _, err := w.Append([]certifier.Record{u}); err != nil {
			w.Close()
			return fmt.Errorf("replay wal append: %w", err)
		}
	}
	m["wal.append_ns_per_update"] = perNs(time.Since(start), len(updates))
	m["wal.bytes_per_update"] = float64(w.Size()-size0) / float64(len(updates))
	if err := w.Close(); err != nil {
		return fmt.Errorf("replay wal close: %w", err)
	}
	if err := os.RemoveAll(dir); err != nil {
		return err
	}

	// sidb: the read-only transactions, then the writesets, against a
	// standalone database holding the same catalog.
	db := sidb.New()
	if err := repl.LoadCatalog(sidbLoader{db}, cat, cfg.Factor); err != nil {
		return fmt.Errorf("replay sidb load: %w", err)
	}
	start = time.Now()
	for _, t := range reads {
		tx := db.Begin()
		for _, r := range t.reads {
			if _, _, err := tx.Read(r.key.Table, r.key.Row); err != nil {
				return fmt.Errorf("replay sidb read: %w", err)
			}
		}
		if _, _, err := tx.Commit(); err != nil {
			return fmt.Errorf("replay sidb commit: %w", err)
		}
	}
	m["sidb.read_ns_per_read_txn"] = perNs(time.Since(start), len(reads))
	start = time.Now()
	for _, u := range updates {
		if err := db.ApplyWriteset(u.Writeset, db.Version()+1); err != nil {
			return fmt.Errorf("replay sidb apply: %w", err)
		}
	}
	m["sidb.apply_ns_per_update"] = perNs(time.Since(start), len(updates))

	// router: locate every key, and count the updates a two-group map
	// would split.
	smap := router.Map{Version: 1, Shards: 2}
	var keys []writeset.Key
	cross := 0
	for _, t := range sample {
		for _, r := range t.reads {
			keys = append(keys, r.key)
		}
		home := -1
		for _, e := range t.writes {
			keys = append(keys, e.Key)
			if g := smap.Locate(e.Key.Table, e.Key.Row); home < 0 {
				home = g
			} else if g != home {
				cross++
				break
			}
		}
	}
	start = time.Now()
	for _, k := range keys {
		locateSink = smap.Locate(k.Table, k.Row)
	}
	m["router.locate_ns"] = perNs(time.Since(start), len(keys))
	m["router.cross_frac"] = float64(cross) / float64(len(updates))
	return nil
}

// locateSink keeps the replayed Locate calls from being optimized away.
var locateSink int

func perNs(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }

// sidbLoader loads a catalog into a standalone database.
type sidbLoader struct{ db *sidb.DB }

func (l sidbLoader) CreateTable(name string) error { return l.db.CreateTable(name) }

func (l sidbLoader) Load(table string, rows int, value func(int64) string) error {
	values := make([]string, rows)
	for i := range values {
		values[i] = value(int64(i))
	}
	return l.db.ApplyWriteset(writeset.FromRows(table, 0, values), l.db.Version()+1)
}
