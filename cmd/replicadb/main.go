// Command replicadb is the repository's one command. It runs the
// paper's loop end to end: profile a standalone database, predict the
// replicated system, regenerate the evaluation, and run the live
// replicated-database middleware (the functional prototypes of §5, not
// the performance simulation). Its modes:
//
//   - the default "run" mode boots a multi-master or single-master
//     cluster of replica servers on loopback inside this process,
//     drives concurrent closed-loop clients through the pooled client
//     and verifies convergence;
//   - "serve" runs ONE replica as a TCP server process, so an
//     N-replica cluster is N processes connected by the wire protocol
//     (replica 0, or the elected leader with -paxos, hosts the
//     certifier; under sm that node is the master, the one update site);
//   - "bench" drives a TPC-W / RUBiS mix against a running networked
//     cluster through the pooled client and verifies convergence over
//     the wire (repeatable throughput measurements come from bench/);
//   - "status" polls a running cluster and renders the operator
//     dashboard: leadership, per-replica apply and replication lag,
//     commit-path stage means, and the live MVA model residual;
//   - "profile" runs the §4 standalone-profiling pipeline on the
//     simulated standalone database and can write the measured
//     parameters for "predict";
//   - "predict" evaluates the analytical models across replica counts
//     and plans capacity for a target throughput;
//   - "experiments" regenerates the paper's tables and figures.
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
//	replicadb profile -mix tpcw-ordering -out params.json
//	replicadb predict -params params.json -design sm
//	replicadb predict -mix rubis-bidding -design both -replicas 8 -target 100
//	replicadb experiments -exp fig6,fig7 -quick
//
// Flag combinations are validated up front, before any work; invalid
// ones exit 2 with a usage message. Runtime failures exit 1.
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
	case "profile":
		profileMain(args)
	case "predict":
		predictMain(args)
	case "experiments":
		experimentsMain(args)
	default:
		fmt.Fprintf(os.Stderr, "replicadb: unknown mode %q (run|serve|bench|status|profile|predict|experiments)\n", mode)
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
		paxos    = fs.Bool("paxos", false, "replicate the certifier over the replicas with leader election")
		batch    = fs.Bool("groupcommit", false, "batch commit certification on the certifier host")
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
		EagerCert:   true,
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

	printCertifier(c)
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
		join    = fs.String("join", "", "elastic join: primary address to join at startup (the primary assigns the id and transfers a snapshot)")
		metrics = fs.String("metrics", "", "optional HTTP /metrics listen address")
		batch   = fs.Bool("groupcommit", false, "batch commit certification on the certifier host (id 0, or any node with -paxos)")
		eager   = fs.Bool("eager", false, "eager certification on writes (remote probe per write on non-primary nodes)")
		walDir  = fs.String("wal-dir", "", "durable commits: write-ahead log directory (replayed on start; a restarted replica resumes via FetchSince)")
		fsync   = fs.Bool("fsync", false, "fsync WAL commits (group commit) before acknowledging; requires -wal-dir")
		paxos   = fs.Bool("paxos", false, "replicate the certifier over the -peers group with leader election and automatic failover (composes with -wal-dir/-fsync)")
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
		think      = fs.Float64("think", 0, "live client think time in seconds the model runs at (-autoscale and -modelcheck; 0: clients that do not think, as replicadb bench's)")
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

	// One live-model loop: one window samples the cluster each second
	// and hands the tick to the residual gauges and the autoscaler, so
	// the residual grades the model the autoscaler steers with.
	var loopStop, loopDone chan struct{}
	var scaler *elastic.LocalScaler
	if *autoscale || *modelcheck {
		src := elastic.NewWireSource([]string{srv.Addr()}, 2*time.Second)
		defer src.Close()
		var consumers []func(elastic.Tick)
		if *modelcheck {
			consumers = append(consumers, elastic.NewMonitor(srv.Registry()).Observe)
			fmt.Printf("replicadb: exporting MVA model residuals against the %s profile\n", baseMix.ID())
		}
		if *autoscale {
			// The baseline is the statically configured cluster (never
			// scaled away); only replicas spawned here are elastic.
			scaler = elastic.NewLocalScaler(len(peerList), func() (elastic.Replica, error) {
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
			ctl, err := elastic.NewController(elastic.Config{Min: *minRep, Max: *maxRep}, scaler)
			if err != nil {
				fatal("autoscaler: %v", err)
			}
			// Every attempted scaling step lands in the node's event
			// journal with the MVA inputs that motivated it.
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
			consumers = append(consumers, ctl.Observe)
			fmt.Printf("replicadb: autoscaling %d..%d replicas against the %s profile\n", *minRep, *maxRep, baseMix.ID())
		}
		win := elastic.NewWindow(src, baseMix, *think, *recal)
		loopStop, loopDone = make(chan struct{}), make(chan struct{})
		go func() {
			defer close(loopDone)
			win.Run(time.Second, loopStop, consumers...)
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("replicadb: shutting down")
	if loopStop != nil {
		close(loopStop)
		<-loopDone
	}
	if scaler != nil {
		scaler.Close()
	}
	if err := srv.Close(); err != nil {
		fatal("shutdown: %v", err)
	}
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
		watch    = fs.Bool("watch", false, "watch cluster membership and spread load onto replicas that join mid-run")
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
	mix := mustMix(fs, *mixID)
	cat, err := workload.CatalogFor(mix)
	if err != nil {
		fatal("%v", err)
	}

	cl, err := client.New(client.Options{
		Servers: splitAddrs(*servers),
		Design:  *design,
		Watch:   *watch,
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
	start := time.Now()
	res := repl.Drive(cl, cat, mix, *clients, *txns, *factor, *seed)
	printDriveResult(res, time.Since(start))
	if res.Errors > 0 {
		fatal("unexpected errors during the run")
	}

	if *converge {
		fmt.Print("checking replica convergence... ")
		if err := repl.CheckConvergence(cl, tableNames(cat)); err != nil {
			fmt.Println("FAILED")
			fatal("%v", err)
		}
		fmt.Printf("ok: all %d replicas identical\n", cl.Replicas())
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
	QueueDepth int64   `json:"queue_depth"` // the apply backlog, StatsOK.ApplyLag
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

// statusPoller renders the ticks of one live-model window as status
// reports, so watch mode reports the model residual of each
// inter-poll window.
type statusPoller struct {
	design string
	win    *elastic.Window
}

// newStatusPoller builds a poller over src; the model runs at think
// 0, the think time of the bench clients whose load status reads.
func newStatusPoller(src elastic.Source, design string, mix workload.Mix) *statusPoller {
	return &statusPoller{design: design, win: elastic.NewWindow(src, mix, 0, false)}
}

// poll takes one cluster snapshot.
func (p *statusPoller) poll() statusReport {
	t, _ := p.win.Step()
	rep := statusReport{
		When:   time.Now().Format(time.RFC3339),
		Design: p.design,
		Leader: -1,
		Polled: len(t.Rows),
	}
	for _, r := range t.Rows {
		row := statusReplica{Addr: r.Addr}
		st := r.Stats
		if r.Err != nil {
			row.Error = r.Err.Error()
			rep.Replicas = append(rep.Replicas, row)
			continue
		}
		row.ID = st.ReplicaID
		row.Shard = st.ShardID
		row.Leading = st.Leading
		row.Epoch = st.Epoch
		row.Applied = st.Applied
		row.QueueDepth = st.ApplyLag
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
	}
	for i := range rep.Replicas {
		if rep.Replicas[i].Error == "" {
			rep.Replicas[i].Behind = rep.MaxApplied - rep.Replicas[i].Applied
		}
	}
	// Cumulative per-stage means across the cluster (lifetime, not
	// windowed — status is a snapshot tool).
	stages := make(map[string]float64, pipeline.NumStages)
	sample := t.Sample
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
	if t.ModelOK && p.design == "mm" {
		rep.Model = &t.Model
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

	src := elastic.NewWireSource(splitAddrs(*servers), 2*time.Second)
	defer src.Close()
	p := newStatusPoller(src, *design, mix)

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
