// Command replicadb runs the live replicated-database middleware (the
// functional prototypes of §5, not the performance simulation) in
// four modes:
//
//   - the default "run" mode boots a multi-master or single-master
//     cluster of replica servers on loopback inside this process,
//     drives concurrent closed-loop clients through the pooled client
//     and verifies convergence;
//   - "serve" runs ONE replica as a TCP server process, so an
//     N-replica cluster is N processes connected by the wire protocol
//     (replica 0 hosts the certifier for mm / is the master for sm);
//   - "bench" drives a TPC-W / RUBiS mix against a running networked
//     cluster through the pooled client and verifies convergence over
//     the wire;
//   - "status" polls a running cluster and renders the operator
//     dashboard: leadership, per-replica apply and replication lag,
//     commit-path stage means, and the live MVA model residual.
//
// Usage:
//
//	replicadb -design mm -replicas 4 -mix tpcw-shopping -txns 200
//	replicadb -design sm -replicas 3 -mix rubis-bidding -clients 16
//	replicadb -design mm -replicas 3 -paxos       # replicated certifier
//
//	replicadb serve -design mm -id 0 -listen 127.0.0.1:7000 \
//	    -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002
//	replicadb serve -design mm -id 0 -listen 127.0.0.1:7000 \
//	    -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 \
//	    -paxos -wal-dir /var/lib/replicadb/0   # leader failover + durability
//	replicadb bench -design mm \
//	    -servers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 \
//	    -mix tpcw-shopping -clients 8 -txns 100
//
// Flag combinations are validated up front; invalid ones exit 2 with
// a usage message.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/client"
	"repro/internal/elastic"
	"repro/internal/launch"
	"repro/internal/obs/events"
	"repro/internal/repl"
	"repro/internal/repl/pipeline"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/workload"
)

func main() {
	args := os.Args[1:]
	mode := "run"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		mode = args[0]
		args = args[1:]
	}
	switch mode {
	case "run":
		runMain(args)
	case "serve":
		serveMain(args)
	case "bench":
		benchMain(args)
	case "status":
		statusMain(args)
	default:
		fmt.Fprintf(os.Stderr, "replicadb: unknown mode %q (run|serve|bench|status)\n", mode)
		os.Exit(2)
	}
}

// usageExit prints a flag error plus the flag set's usage and exits 2,
// the contract for invalid invocations.
func usageExit(fs *flag.FlagSet, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "replicadb %s: %s\n", fs.Name(), fmt.Sprintf(format, args...))
	fs.Usage()
	os.Exit(2)
}

// fatal reports a runtime failure (exit 1, not a usage error).
func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "replicadb: %s\n", fmt.Sprintf(format, args...))
	os.Exit(1)
}

// mustMix resolves a mix id or exits 2 listing the valid ones.
func mustMix(fs *flag.FlagSet, id string) workload.Mix {
	mix, ok := workload.ByID(id)
	if !ok {
		ids := make([]string, 0, len(workload.All()))
		for _, m := range workload.All() {
			ids = append(ids, m.ID())
		}
		usageExit(fs, "unknown mix %q (valid: %s)", id, strings.Join(ids, ", "))
	}
	return mix
}

// printDriveResult renders commit counts and the per-class latency
// percentiles shared by the run and bench drivers.
func printDriveResult(res repl.DriveResult, elapsed time.Duration) {
	fmt.Printf("\ncommitted %d transactions in %.2fs (%.0f tps wall-clock)\n",
		res.Commits, elapsed.Seconds(), float64(res.Commits)/elapsed.Seconds())
	fmt.Printf("  read-only: %d, updates: %d, certification aborts (retried): %d, errors: %d\n",
		res.ReadCommits, res.UpdateCommits, res.Aborts, res.Errors)
	if res.Unknown > 0 {
		fmt.Printf("  unknown-outcome commits (leadership moved mid-commit, not retried): %d\n",
			res.Unknown)
	}
	if res.Errors > 0 && res.FirstError != "" {
		fmt.Printf("  first error: %s\n", res.FirstError)
	}
	printLatency("read-only", res.ReadLatency)
	printLatency("update   ", res.UpdateLatency)
}

func printLatency(class string, l *stats.Latency) {
	if l == nil || l.Count() == 0 {
		return
	}
	fmt.Printf("  %s latency: %s\n", class, l.Summary())
}

// runMain boots a loopback cluster of real replica servers in this
// process, drives it through the pooled client and verifies
// convergence.
func runMain(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	var (
		design   = fs.String("design", "mm", "replication design: mm or sm")
		replicas = fs.Int("replicas", 4, "number of database replicas")
		mixID    = fs.String("mix", "tpcw-shopping", "workload mix id")
		clients  = fs.Int("clients", 8, "concurrent clients")
		txns     = fs.Int("txns", 100, "committed transactions per client")
		factor   = fs.Int("factor", 100, "table scale-down factor (1 = full benchmark size)")
		paxos    = fs.Bool("paxos", false, "replicate the certifier over the replicas with leader election (mm)")
		batch    = fs.Bool("groupcommit", false, "batch commit certification on the certifier host (mm)")
		seed     = fs.Uint64("seed", 1, "workload seed")
	)
	fs.Parse(args)

	// Validate the flag combination before building anything: the
	// replica rules live in server.Options.Validate.
	if *replicas < 1 {
		usageExit(fs, "-replicas must be >= 1 (got %d)", *replicas)
	}
	if *clients < 1 || *txns < 1 {
		usageExit(fs, "-clients and -txns must be >= 1")
	}
	if *factor < 1 {
		usageExit(fs, "-factor must be >= 1 (got %d)", *factor)
	}
	tmpl := server.Options{
		Design:      *design,
		Paxos:       *paxos,
		GroupCommit: *batch,
		EagerCert:   *design == "mm",
	}
	if err := launch.Validate(1, *replicas, tmpl); err != nil {
		usageExit(fs, "%v", err)
	}
	mix := mustMix(fs, *mixID)
	cat, err := workload.CatalogFor(mix)
	if err != nil {
		fatal("%v", err)
	}

	c, err := launch.Start(1, *replicas, tmpl)
	if err != nil {
		fatal("%v", err)
	}
	defer c.Close()
	cl := c.Clients[0]

	fmt.Printf("loading %s schema (scale 1/%d) on %d replicas...\n", cat.Benchmark, *factor, *replicas)
	if err := repl.LoadCatalog(cl, cat, *factor); err != nil {
		fatal("load: %v", err)
	}

	fmt.Printf("driving %d clients x %d transactions (%s mix: %.0f%% reads / %.0f%% updates)...\n",
		*clients, *txns, mix.Name, mix.Pr*100, mix.Pw*100)
	start := time.Now()
	res := repl.Drive(cl, cat, mix, *clients, *txns, *factor, *seed)
	printDriveResult(res, time.Since(start))
	if res.Errors > 0 {
		fatal("unexpected errors during the run")
	}

	fmt.Print("checking replica convergence... ")
	if err := repl.CheckConvergence(cl, tableNames(cat)); err != nil {
		fmt.Println("FAILED")
		fatal("%v", err)
	}
	fmt.Println("ok: all replicas identical")

	if *design == "mm" {
		printCertifier(c)
	}
}

// printCertifier sums the replicas' Stats counters into the
// certifier's totals: update commits, certification aborts, and the
// version the log reached (the highest applied version after the
// convergence check's sync), plus the elected leader under Paxos.
func printCertifier(c *launch.Cluster) {
	stats, err := c.Stats(0)
	if err != nil {
		fatal("%v", err)
	}
	var commits, aborts, version int64
	leader := int64(-1)
	for _, st := range stats {
		commits += st.UpdateCommits
		aborts += st.Aborts
		version = max(version, st.Applied)
		if st.Leading && st.Epoch > 0 {
			leader = st.ReplicaID
		}
	}
	fmt.Printf("certifier: %d commits, %d aborts, version %d\n", commits, aborts, version)
	if leader >= 0 {
		fmt.Printf("certifier leader: replica %d (Paxos over %d replicas)\n", leader, len(stats))
	}
}

// serveMain runs one replica server process: a boot-time member of a
// configured cluster (-id/-peers), an elastic joiner (-join), or the
// primary with the prediction-driven autoscaler (-autoscale).
func serveMain(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	var (
		design  = fs.String("design", "mm", "replication design: mm or sm")
		id      = fs.Int("id", 0, "this replica's id (0 hosts the certifier / is the master)")
		listen  = fs.String("listen", "", "TCP listen address, e.g. 127.0.0.1:7000 (required)")
		peers   = fs.String("peers", "", "comma-separated replica addresses indexed by id (peers[0] is the primary; required unless -join)")
		join    = fs.String("join", "", "elastic join: primary address to join at startup (mm; the primary assigns the id and transfers a snapshot)")
		metrics = fs.String("metrics", "", "optional HTTP /metrics listen address")
		batch   = fs.Bool("groupcommit", false, "batch commit certification on the certifier host (mm: id 0, or any node with -paxos)")
		eager   = fs.Bool("eager", false, "eager certification on writes (mm; remote probe per write on non-primary nodes)")
		walDir  = fs.String("wal-dir", "", "durable commits: write-ahead log directory (replayed on start; a restarted replica resumes via FetchSince)")
		fsync   = fs.Bool("fsync", false, "fsync WAL commits (group commit) before acknowledging; requires -wal-dir")
		paxos   = fs.Bool("paxos", false, "replicate the certifier over the -peers group with leader election and automatic failover (mm; composes with -wal-dir/-fsync)")
		electTO = fs.Duration("elect-timeout", time.Second, "paxos: how long a backup goes without leader progress before campaigning")

		shard  = fs.Int("shard", 0, "hash-partitioned deployment: this replica group's shard id (every replica of a group serves the same -shard)")
		shards = fs.Int("shards", 1, "hash-partitioned deployment: total shard groups in the map (1: unsharded; clients route by the map stamped on Join/Members)")

		notrace = fs.Bool("notrace", false, "disable commit-path stage tracing (per-stage histograms, /debug/slowtxns)")
		slowMs  = fs.Int("slow-ms", 0, "slow-transaction threshold in milliseconds for /debug/slowtxns (0: default 50ms)")

		autoscale  = fs.Bool("autoscale", false, "run the MVA autoscaler on this primary (mm, id 0): spawn/retire loopback replicas to track the live load")
		modelcheck = fs.Bool("modelcheck", false, "continuously evaluate the MVA model against this cluster and export replicadb_model_* residual gauges (mm, id 0)")
		recal      = fs.Bool("recalibrate", false, "fold live-measured commit-path stage demands into the model's calibrated profile (-autoscale and -modelcheck)")
		minRep     = fs.Int("min", 1, "autoscaler: minimum replica count")
		maxRep     = fs.Int("max", 4, "autoscaler: maximum replica count")
		profMix    = fs.String("profile-mix", "tpcw-shopping", "autoscaler: standalone profile supplying the model's service demands")
		think      = fs.Float64("think", 0, "autoscaler: live client think time in seconds (0: the profile's)")
	)
	fs.Parse(args)

	// Rules on flags that map onto server.Options live in
	// Options.Validate; only the flags with no Options field are checked
	// here.
	if *join != "" && *peers != "" {
		usageExit(fs, "-join and -peers are mutually exclusive")
	}
	peerList := splitAddrs(*peers)
	if *join == "" && len(peerList) == 0 {
		usageExit(fs, "serve requires -peers (all replica addresses, indexed by id) or -join")
	}
	if *join != "" && *autoscale {
		usageExit(fs, "-autoscale runs on the primary, not on a joiner")
	}
	if *autoscale && *paxos {
		usageExit(fs, "-autoscale is not supported with -paxos (the replicated-certifier group is fixed at boot)")
	}
	if *autoscale && (*design != "mm" || *id != 0) {
		usageExit(fs, "-autoscale requires -design mm and -id 0 (the membership authority)")
	}
	if *autoscale && (*minRep < 1 || *maxRep < *minRep) {
		usageExit(fs, "-min/-max must satisfy 1 <= min <= max (got %d/%d)", *minRep, *maxRep)
	}
	if *autoscale && *maxRep < len(peerList) {
		usageExit(fs, "-max %d below the %d statically configured replicas (they are never scaled away)", *maxRep, len(peerList))
	}
	if *modelcheck && (*design != "mm" || *id != 0) {
		usageExit(fs, "-modelcheck requires -design mm and -id 0 (the model predicts the multi-master design and needs the membership authority)")
	}
	baseMix := mustMix(fs, *profMix)

	opts := server.Options{
		Design:       *design,
		ID:           *id,
		Listen:       *listen,
		MetricsAddr:  *metrics,
		GroupCommit:  *batch,
		EagerCert:    *eager,
		Replicas:     len(peerList),
		Members:      peerList,
		Join:         *join != "",
		WALDir:       *walDir,
		Fsync:        *fsync,
		Paxos:        *paxos,
		ElectTimeout: *electTO,
		DisableTrace: *notrace,
		SlowTxn:      time.Duration(*slowMs) * time.Millisecond,
		ShardID:      *shard,
		ShardCount:   *shards,
	}
	if *join != "" {
		opts.Primary = *join
	} else if *id > 0 && !*paxos {
		opts.Primary = peerList[0]
	}
	if err := opts.Validate(); err != nil {
		usageExit(fs, "%v", err)
	}
	srv, err := server.New(opts)
	if err != nil {
		fatal("%v", err)
	}
	srv.Start()
	role := "replica"
	switch {
	case *paxos:
		role = "replicated-certifier replica"
	case *join != "":
		role = "elastic replica"
	case *id == 0 && *design == "mm":
		role = "replica+certifier"
	case *id == 0:
		role = "master"
	}
	fmt.Printf("replicadb: serving %s %s on %s\n", *design, role, srv.Addr())
	if *shards > 1 {
		fmt.Printf("replicadb: shard group %d of %d (clients route by the published shard map)\n", *shard, *shards)
	}
	if *paxos {
		fmt.Printf("replicadb: certification replicated over %d nodes (election timeout %s)\n",
			len(peerList), *electTO)
		// Announce the election outcome once it settles; kill the leader
		// and the survivors print the handover the same way.
		go func() {
			wasLeading, hadLeader := false, -2
			for {
				leading, leader, epoch, ok := srv.Leader()
				if !ok {
					return
				}
				switch {
				case leading && !wasLeading:
					fmt.Printf("replicadb: this node leads certification (epoch %d.%d)\n", epoch.Round, epoch.Proposer)
				case !leading && leader >= 0 && (leader != hadLeader || wasLeading):
					fmt.Printf("replicadb: certifier leader is node %d (epoch %d.%d)\n", leader, epoch.Round, epoch.Proposer)
				}
				wasLeading, hadLeader = leading, leader
				time.Sleep(200 * time.Millisecond)
			}
		}()
	}
	if v, ok := srv.Resumed(); ok {
		fmt.Printf("replicadb: resumed from WAL at version %d (catching up via FetchSince)\n", v)
	}
	if addr := srv.MetricsAddr(); addr != "" {
		fmt.Printf("replicadb: metrics on http://%s/metrics\n", addr)
	}

	var ctlStop chan struct{}
	var scaler *elastic.LocalScaler
	var src *elastic.WireSource
	if *autoscale {
		// The baseline is the statically configured cluster (never
		// scaled away); only replicas spawned here are elastic.
		baseline := len(peerList)
		if baseline < 1 {
			baseline = 1
		}
		scaler = elastic.NewLocalScaler(baseline, func() (elastic.Replica, error) {
			rep, err := server.New(server.Options{
				Design:  "mm",
				Listen:  "127.0.0.1:0",
				Join:    true,
				Primary: srv.Addr(),
			})
			if err != nil {
				return nil, err
			}
			rep.Start()
			fmt.Printf("replicadb: autoscaler added replica on %s\n", rep.Addr())
			return rep, nil
		})
		src = elastic.NewWireSource(srv.Addr(), "mm", 2*time.Second)
		ctl, err := elastic.NewController(elastic.Config{
			Min: *minRep, Max: *maxRep,
			Base:        baseMix,
			Think:       *think,
			Recalibrate: *recal,
		}, scaler, src)
		if err != nil {
			fatal("autoscaler: %v", err)
		}
		// Every attempted scaling step lands in the node's event journal
		// with the MVA inputs that motivated it.
		ctl.OnDecision(func(d elastic.Decision) {
			msg := fmt.Sprintf("scale %s: %d -> %d replicas (util %.2f, ~%.0f clients)",
				d.Direction, d.Current, d.Target, d.Util, d.Clients)
			fields := map[string]string{
				"direction": d.Direction,
				"target":    strconv.Itoa(d.Target),
				"current":   strconv.Itoa(d.Current),
				"clients":   fmt.Sprintf("%.1f", d.Clients),
				"util":      fmt.Sprintf("%.3f", d.Util),
			}
			if d.Err != nil {
				fields["error"] = d.Err.Error()
				msg += ": " + d.Err.Error()
			}
			srv.Events().Emit(events.ScaleDecision, msg, fields)
		})
		ctlStop = make(chan struct{})
		go ctl.Run(ctlStop)
		fmt.Printf("replicadb: autoscaling %d..%d replicas against the %s profile\n", *minRep, *maxRep, baseMix.ID())
	}

	var monStop chan struct{}
	var monSrc *elastic.WireSource
	if *modelcheck {
		monSrc = elastic.NewWireSource(srv.Addr(), "mm", 2*time.Second)
		mon := elastic.NewMonitor(srv.Registry(), baseMix, *think, monSrc)
		mon.SetRecalibrate(*recal)
		monStop = make(chan struct{})
		go mon.Run(time.Second, monStop)
		fmt.Printf("replicadb: exporting MVA model residuals against the %s profile\n", baseMix.ID())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("replicadb: shutting down")
	if ctlStop != nil {
		close(ctlStop)
		scaler.Close()
		src.Close()
	}
	if monStop != nil {
		close(monStop)
		monSrc.Close()
	}
	if err := srv.Close(); err != nil {
		fatal("shutdown: %v", err)
	}
}

// benchResult is the machine-readable record one bench run emits with
// -json. Repeatable performance measurements come from the bench/
// harness instead (bench/README.md, bench/CALIBRATION.md).
type benchResult struct {
	Design        string  `json:"design"`
	Mix           string  `json:"mix"`
	Clients       int     `json:"clients"`
	TxnsPerClient int     `json:"txns_per_client"`
	Factor        int     `json:"factor"`
	Seed          uint64  `json:"seed"`
	ElapsedSec    float64 `json:"elapsed_sec"`
	TPS           float64 `json:"tps"`
	Commits       int64   `json:"commits"`
	ReadCommits   int64   `json:"read_commits"`
	UpdateCommits int64   `json:"update_commits"`
	Aborts        int64   `json:"aborts"`
	Errors        int64   `json:"errors"`
	Unknown       int64   `json:"unknown_outcomes"`
	ReadP50Ms     float64 `json:"read_p50_ms"`
	ReadP99Ms     float64 `json:"read_p99_ms"`
	UpdateP50Ms   float64 `json:"update_p50_ms"`
	UpdateP99Ms   float64 `json:"update_p99_ms"`
	ReplicasStart int     `json:"replicas_start"`
	ReplicasEnd   int     `json:"replicas_end"`
	Converged     bool    `json:"converged"`
	Pipelined     bool    `json:"pipelined"`
	// Ramp-up exclusion: TPS above includes connection warm-up and
	// joiner catch-up inside its window. RampSec/RampCommits report the
	// excluded warm-up slice, and SteadyTPS is the cluster commit rate
	// over the post-ramp window only (absent when the run finished
	// inside the ramp, or the cluster's counters could not be sampled).
	RampSec     float64 `json:"ramp_sec,omitempty"`
	RampCommits int64   `json:"ramp_commits,omitempty"`
	SteadyTPS   float64 `json:"steady_tps,omitempty"`
	// StageMeanUs is the cluster-wide mean per-writeset latency of each
	// commit-path stage over the run, in microseconds (absent when the
	// target cluster runs with tracing disabled).
	StageMeanUs map[string]float64 `json:"stage_mean_us,omitempty"`
	// Model holds the MVA residual evaluated over the run's window.
	Model *elastic.ModelError `json:"model,omitempty"`
}

// benchWindow samples the cluster's cumulative counters before and
// after the drive and folds the window into the stage breakdown and
// the model residual. Either can come back empty: a cohort change
// (replica joined mid-run) discards the window, and an untraced
// cluster reports no stage counters.
type benchWindow struct {
	src  *elastic.WireSource
	prof *elastic.Profiler
	ok   bool
}

func openBenchWindow(primary string, design string, mix workload.Mix) *benchWindow {
	// The bench driver is a zero-think closed loop (clients fire the
	// next transaction immediately), unlike the paper's 1 s-think TPC-W
	// clients the mix describes — so the model must be evaluated at
	// think 0 or Little's law inflates the population ~4000x.
	mix.Think = 0
	w := &benchWindow{
		src:  elastic.NewWireSource(primary, design, 2*time.Second),
		prof: elastic.NewProfiler(mix, 0),
	}
	if s, err := w.src.Sample(); err == nil {
		w.prof.Observe(s)
		w.ok = true
	}
	return w
}

func (w *benchWindow) close(out *benchResult, design string) {
	defer w.src.Close()
	if !w.ok {
		return
	}
	s, err := w.src.Sample()
	if err != nil {
		return
	}
	load, ok := w.prof.Observe(s)
	if !ok {
		return
	}
	stages := make(map[string]float64, pipeline.NumStages)
	for i, mean := range load.StageMeans {
		if mean > 0 {
			stages[pipeline.StageNames[i]] = mean * 1e6
		}
	}
	if len(stages) > 0 {
		out.StageMeanUs = stages
	}
	// The residual only speaks for the multi-master model.
	if design == "mm" {
		if me, ok := elastic.EvalModel(w.prof, load, load.Members); ok {
			out.Model = &me
		}
	}
}

// clusterCommits samples the cluster-wide cumulative commit count for
// the ramp-up exclusion window.
func clusterCommits(src *elastic.WireSource) (int64, bool) {
	s, err := src.Sample()
	if err != nil {
		return 0, false
	}
	return s.ReadCommits + s.UpdateCommits, true
}

// rampPoint marks the cluster commit counter at the ramp boundary.
type rampPoint struct {
	commits int64
	at      time.Time
	ok      bool
}

// benchMain drives a networked cluster through the pooled client.
func benchMain(args []string) {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	var (
		design   = fs.String("design", "mm", "replication design of the target cluster: mm or sm")
		servers  = fs.String("servers", "", "comma-separated replica server addresses indexed by id (required)")
		mixID    = fs.String("mix", "tpcw-shopping", "workload mix id")
		clients  = fs.Int("clients", 8, "concurrent clients")
		txns     = fs.Int("txns", 100, "committed transactions per client")
		factor   = fs.Int("factor", 100, "table scale-down factor")
		seed     = fs.Uint64("seed", 1, "workload seed")
		load     = fs.Bool("load", true, "create and load the schema before driving")
		converge = fs.Bool("converge", true, "verify replica convergence after the run")
		watch    = fs.Bool("watch", false, "watch cluster membership and spread load onto replicas that join mid-run (mm)")
		pipe     = fs.Bool("pipeline", false, "pipeline update operations: stream writes without per-op acks, drain at commit")
		ramp     = fs.Duration("ramp", 500*time.Millisecond, "with -json: exclude this warm-up window from steady_tps (0 disables)")
		jsonOut  = fs.String("json", "", "write a machine-readable result to this file (\"-\" for stdout)")
	)
	fs.Parse(args)

	if *design != "mm" && *design != "sm" {
		usageExit(fs, "unknown design %q (mm|sm)", *design)
	}
	if *servers == "" {
		usageExit(fs, "bench requires -servers")
	}
	if *clients < 1 || *txns < 1 {
		usageExit(fs, "-clients and -txns must be >= 1")
	}
	if *factor < 1 {
		usageExit(fs, "-factor must be >= 1 (got %d)", *factor)
	}
	if *watch && *design != "mm" {
		usageExit(fs, "-watch requires -design mm")
	}
	mix := mustMix(fs, *mixID)
	cat, err := workload.CatalogFor(mix)
	if err != nil {
		fatal("%v", err)
	}

	cl, err := client.New(client.Options{
		Servers:  splitAddrs(*servers),
		Design:   *design,
		Watch:    *watch,
		Pipeline: *pipe,
	})
	if err != nil {
		fatal("%v", err)
	}
	defer cl.Close()

	if *load {
		fmt.Printf("loading %s schema (scale 1/%d) over %d servers...\n", cat.Benchmark, *factor, cl.Replicas())
		if err := repl.LoadCatalog(cl, cat, *factor); err != nil {
			fatal("load: %v", err)
		}
	}

	fmt.Printf("driving %d clients x %d transactions over TCP (%s mix: %.0f%% reads / %.0f%% updates)...\n",
		*clients, *txns, mix.Name, mix.Pr*100, mix.Pw*100)
	var bw *benchWindow
	var rampSrc *elastic.WireSource
	var startCommits int64
	var startOK bool
	rampCh := make(chan rampPoint, 1)
	if *jsonOut != "" {
		bw = openBenchWindow(splitAddrs(*servers)[0], *design, mix)
		if *ramp > 0 {
			// Sample the cluster's cumulative commit counter at the start
			// and again at the ramp boundary, so the steady-state rate can
			// be computed without the connection warm-up and catch-up
			// transients the wall-clock TPS folds in.
			rampSrc = elastic.NewWireSource(splitAddrs(*servers)[0], *design, 2*time.Second)
			defer rampSrc.Close()
			startCommits, startOK = clusterCommits(rampSrc)
			wait := *ramp
			go func() {
				time.Sleep(wait)
				c, ok := clusterCommits(rampSrc)
				rampCh <- rampPoint{commits: c, at: time.Now(), ok: ok}
			}()
		}
	}
	replicasStart := cl.Replicas()
	start := time.Now()
	res := repl.Drive(cl, cat, mix, *clients, *txns, *factor, *seed)
	elapsed := time.Since(start)
	// The end-of-drive counter sample must land before the convergence
	// check below, whose read transactions would inflate it.
	var endCommits int64
	var endOK bool
	endAt := time.Now()
	if rampSrc != nil {
		endCommits, endOK = clusterCommits(rampSrc)
	}
	printDriveResult(res, elapsed)
	if res.Errors > 0 {
		fatal("unexpected errors during the run")
	}

	converged := false
	if *converge {
		fmt.Print("checking replica convergence... ")
		if err := repl.CheckConvergence(cl, tableNames(cat)); err != nil {
			fmt.Println("FAILED")
			fatal("%v", err)
		}
		fmt.Printf("ok: all %d replicas identical\n", cl.Replicas())
		converged = true
	}

	if *jsonOut != "" {
		out := benchResult{
			Design:        *design,
			Mix:           mix.ID(),
			Clients:       *clients,
			TxnsPerClient: *txns,
			Factor:        *factor,
			Seed:          *seed,
			ElapsedSec:    elapsed.Seconds(),
			TPS:           float64(res.Commits) / elapsed.Seconds(),
			Commits:       res.Commits,
			ReadCommits:   res.ReadCommits,
			UpdateCommits: res.UpdateCommits,
			Aborts:        res.Aborts,
			Errors:        res.Errors,
			Unknown:       res.Unknown,
			ReadP50Ms:     ms(res.ReadLatency.Quantile(0.50)),
			ReadP99Ms:     ms(res.ReadLatency.Quantile(0.99)),
			UpdateP50Ms:   ms(res.UpdateLatency.Quantile(0.50)),
			UpdateP99Ms:   ms(res.UpdateLatency.Quantile(0.99)),
			ReplicasStart: replicasStart,
			ReplicasEnd:   cl.Replicas(),
			Converged:     converged,
			Pipelined:     *pipe,
		}
		var rp rampPoint
		select {
		case rp = <-rampCh:
		default: // the run finished inside the ramp window
		}
		if rp.ok && startOK && endOK && endAt.After(rp.at) && endCommits >= rp.commits {
			out.RampSec = rp.at.Sub(start).Seconds()
			out.RampCommits = rp.commits - startCommits
			out.SteadyTPS = float64(endCommits-rp.commits) / endAt.Sub(rp.at).Seconds()
		}
		bw.close(&out, *design)
		buf, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			fatal("json: %v", err)
		}
		buf = append(buf, '\n')
		if *jsonOut == "-" {
			os.Stdout.Write(buf)
		} else if err := os.WriteFile(*jsonOut, buf, 0o644); err != nil {
			fatal("json: %v", err)
		}
	}
}

// statusReplica is one replica's row in a status report. A replica
// that failed to answer the poll carries only Addr and Error.
type statusReplica struct {
	Addr       string  `json:"addr"`
	ID         int64   `json:"id"`
	Shard      int64   `json:"shard"`
	Leading    bool    `json:"leading"`
	Epoch      int64   `json:"epoch"`
	Applied    int64   `json:"applied"`
	Behind     int64   `json:"versions_behind"`
	QueueDepth int64   `json:"queue_depth"`
	ActiveTxns int64   `json:"active_txns"`
	Commits    int64   `json:"commits"`
	Aborts     int64   `json:"aborts"`
	LagCount   int64   `json:"repl_lag_count"`
	LagMeanMs  float64 `json:"repl_lag_mean_ms"`
	LagMaxMs   float64 `json:"repl_lag_max_ms"`
	Error      string  `json:"error,omitempty"`
}

// statusReport is the machine-readable cluster snapshot `replicadb
// status` renders; -json emits one document per poll.
type statusReport struct {
	When        string              `json:"when"`
	Design      string              `json:"design"`
	Leader      int64               `json:"leader"` // replica id, -1 unknown
	Epoch       int64               `json:"epoch"`
	MaxApplied  int64               `json:"max_applied"`
	Up          int                 `json:"replicas_up"`
	Polled      int                 `json:"replicas_polled"`
	Replicas    []statusReplica     `json:"replicas"`
	StageMeanUs map[string]float64  `json:"stage_mean_us,omitempty"`
	Model       *elastic.ModelError `json:"model,omitempty"`
}

// statusPoller polls every known replica's Stats counters and keeps a
// profiler across polls so watch mode reports the model residual of
// each inter-poll window.
type statusPoller struct {
	design string
	links  map[string]*client.Link
	addrs  []string // stable poll order; grows as members are discovered
	prof   *elastic.Profiler
}

func newStatusPoller(servers []string, design string, mix workload.Mix) *statusPoller {
	p := &statusPoller{
		design: design,
		links:  make(map[string]*client.Link),
		// The status profiler evaluates the model at think 0: the
		// populations it infers come from closed-loop bench clients.
		prof: elastic.NewProfiler(mix, 0),
	}
	for _, a := range servers {
		p.addAddr(a)
	}
	return p
}

func (p *statusPoller) addAddr(addr string) {
	if addr == "" {
		return
	}
	if _, ok := p.links[addr]; ok {
		return
	}
	p.links[addr] = client.NewLink(addr, p.design, -1, 2*time.Second)
	p.addrs = append(p.addrs, addr)
}

func (p *statusPoller) close() {
	for _, l := range p.links {
		l.Close()
	}
}

// poll takes one cluster snapshot. Membership is re-discovered from
// the first replica that answers Members, so replicas that joined
// after the -servers list was written still show up.
func (p *statusPoller) poll() statusReport {
	for _, addr := range p.addrs {
		_, members, err := p.links[addr].Members()
		if err != nil {
			continue
		}
		for _, m := range members {
			p.addAddr(m.Addr)
		}
		break
	}

	rep := statusReport{
		When:   time.Now().Format(time.RFC3339),
		Design: p.design,
		Leader: -1,
	}
	sample := elastic.Sample{When: time.Now()}
	var polled []string
	for _, addr := range p.addrs {
		row := statusReplica{Addr: addr}
		st, err := p.links[addr].Stats()
		if err != nil {
			row.Error = err.Error()
			rep.Replicas = append(rep.Replicas, row)
			continue
		}
		row.ID = st.ReplicaID
		row.Shard = st.ShardID
		row.Leading = st.Leading
		row.Epoch = st.Epoch
		row.Applied = st.Applied
		row.QueueDepth = st.QueueDepth
		row.ActiveTxns = st.ActiveTxns
		row.Commits = st.ReadCommits + st.UpdateCommits
		row.Aborts = st.Aborts
		row.LagCount = st.LagCount
		if st.LagCount > 0 {
			row.LagMeanMs = float64(st.LagSumNs) / float64(st.LagCount) / 1e6
		}
		row.LagMaxMs = float64(st.LagMaxNs) / 1e6
		if st.Leading {
			rep.Leader = st.ReplicaID
		}
		if st.Epoch > rep.Epoch {
			rep.Epoch = st.Epoch
		}
		if st.Applied > rep.MaxApplied {
			rep.MaxApplied = st.Applied
		}
		rep.Up++
		rep.Replicas = append(rep.Replicas, row)

		polled = append(polled, addr)
		sample.ReadCommits += st.ReadCommits
		sample.UpdateCommits += st.UpdateCommits
		sample.Aborts += st.Aborts
		sample.ReadNs += st.ReadNs
		sample.UpdateNs += st.UpdateNs
		for i := range sample.StageCounts {
			sample.StageCounts[i] += st.StageCounts[i]
			sample.StageNs[i] += st.StageNs[i]
		}
		sample.Members++
	}
	rep.Polled = len(p.addrs)
	for i := range rep.Replicas {
		if rep.Replicas[i].Error == "" {
			rep.Replicas[i].Behind = rep.MaxApplied - rep.Replicas[i].Applied
		}
	}
	// Cumulative per-stage means across the cluster (lifetime, not
	// windowed — status is a snapshot tool).
	stages := make(map[string]float64, pipeline.NumStages)
	for i := range sample.StageCounts {
		if sample.StageCounts[i] > 0 {
			stages[pipeline.StageNames[i]] =
				float64(sample.StageNs[i]) / float64(sample.StageCounts[i]) / 1e3
		}
	}
	if len(stages) > 0 {
		rep.StageMeanUs = stages
	}
	// Model residual over the window since the previous poll (mm only;
	// the first poll just seeds the baseline).
	sort.Strings(polled)
	sample.Cohort = strings.Join(polled, ",")
	if load, ok := p.prof.Observe(sample); ok && p.design == "mm" {
		if me, ok := elastic.EvalModel(p.prof, load, load.Members); ok {
			rep.Model = &me
		}
	}
	return rep
}

// render prints one report as an operator-facing table.
func (r statusReport) render(w *os.File) {
	fmt.Fprintf(w, "replicadb status @ %s — %s, %d/%d replicas up\n",
		r.When, r.Design, r.Up, r.Polled)
	switch {
	case r.Leader >= 0:
		fmt.Fprintf(w, "leader: node %d (epoch %d), max applied version %d\n",
			r.Leader, r.Epoch, r.MaxApplied)
	default:
		fmt.Fprintf(w, "leader: unknown (epoch %d), max applied version %d\n",
			r.Epoch, r.MaxApplied)
	}
	fmt.Fprintf(w, "%-22s %4s %5s %-6s %9s %7s %6s %9s %7s %16s\n",
		"addr", "id", "shard", "role", "applied", "behind", "queue", "commits", "aborts", "repl-lag avg/max")
	for _, rep := range r.Replicas {
		if rep.Error != "" {
			fmt.Fprintf(w, "%-22s DOWN: %s\n", rep.Addr, rep.Error)
			continue
		}
		role := "repl"
		if rep.Leading {
			role = "lead"
		}
		lag := "-"
		if rep.LagCount > 0 {
			lag = fmt.Sprintf("%.2f/%.2fms", rep.LagMeanMs, rep.LagMaxMs)
		}
		fmt.Fprintf(w, "%-22s %4d %5d %-6s %9d %7d %6d %9d %7d %16s\n",
			rep.Addr, rep.ID, rep.Shard, role, rep.Applied, rep.Behind, rep.QueueDepth,
			rep.Commits, rep.Aborts, lag)
	}
	if len(r.StageMeanUs) > 0 {
		keys := make([]string, 0, len(r.StageMeanUs))
		for k := range r.StageMeanUs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, 0, len(keys))
		for _, k := range keys {
			parts = append(parts, fmt.Sprintf("%s %.0fµs", k, r.StageMeanUs[k]))
		}
		fmt.Fprintf(w, "stage means: %s\n", strings.Join(parts, " | "))
	}
	if r.Model != nil {
		fmt.Fprintf(w, "model: predicted %.1f tps vs observed %.1f tps (residual %+.1f%%)\n",
			r.Model.PredictedTPS, r.Model.ObservedTPS, r.Model.TPSError*100)
	}
}

// statusMain polls a live cluster's Stats counters and renders the
// operator dashboard: leadership, per-replica apply and replication
// lag, commit-path stage means, and the live MVA residual.
func statusMain(args []string) {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	var (
		design   = fs.String("design", "mm", "replication design of the target cluster: mm or sm")
		servers  = fs.String("servers", "", "comma-separated replica server addresses (required; membership is re-discovered from live members)")
		profMix  = fs.String("profile-mix", "tpcw-shopping", "standalone profile supplying the model's service demands for the residual")
		jsonOut  = fs.Bool("json", false, "emit one JSON document per poll instead of the table")
		watch    = fs.Bool("watch", false, "poll repeatedly until interrupted")
		interval = fs.Duration("interval", time.Second, "poll interval with -watch")
		window   = fs.Duration("window", 0, "one-shot: wait this long between two polls so the report carries a model residual (0 skips it)")
	)
	fs.Parse(args)

	if *design != "mm" && *design != "sm" {
		usageExit(fs, "unknown design %q (mm|sm)", *design)
	}
	if *servers == "" {
		usageExit(fs, "status requires -servers")
	}
	if *interval <= 0 {
		usageExit(fs, "-interval must be positive (got %s)", *interval)
	}
	mix := mustMix(fs, *profMix)

	p := newStatusPoller(splitAddrs(*servers), *design, mix)
	defer p.close()

	emit := func(r statusReport) {
		if *jsonOut {
			buf, err := json.MarshalIndent(r, "", "  ")
			if err != nil {
				fatal("json: %v", err)
			}
			os.Stdout.Write(append(buf, '\n'))
			return
		}
		r.render(os.Stdout)
	}

	if *watch {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		ticker := time.NewTicker(*interval)
		defer ticker.Stop()
		emit(p.poll())
		for {
			select {
			case <-sig:
				return
			case <-ticker.C:
				if !*jsonOut {
					fmt.Println()
				}
				emit(p.poll())
			}
		}
	}

	rep := p.poll()
	if *window > 0 {
		time.Sleep(*window)
		rep = p.poll()
	}
	emit(rep)
	if rep.Up == 0 {
		fatal("status: no replica answered")
	}
}

// ms renders a duration in (fractional) milliseconds for JSON.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// splitAddrs splits a comma-separated address list, trimming blanks.
func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

func tableNames(cat workload.Catalog) []string {
	names := make([]string, 0, len(cat.Tables))
	for name := range cat.Tables {
		names = append(names, name)
	}
	return names
}
