// Command bench is the repository's benchmark. It boots the live
// networked stack — internal/server replicas, internal/client pools and,
// for the sharded workload, internal/router — on loopback inside one
// process, drives one of the paper's mixes from closed-loop clients,
// checks the outcome, and prints its metrics as JSON.
//
// Usage, from the repository root:
//
//	bash bench/run.sh --workload tpcw-browsing-mm3 --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh --seed 1                 # every workload, in rotated rounds
//	bash bench/run.sh --seed 1 --trace 1       # per-layer metrics and spans
//	bash bench/run.sh compare -old 'parent/*.json' -new 'change/*.json'
//
// Each trial runs in a fresh child process of this binary. The last
// line of standard output is the result object; the lines before it are
// the environment and one object per workload.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the end-to-end metrics BENCHMARK.json bounds; an
// untraced run's last line reports them for each workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"alloc_kb_per_txn", "KiB"},
}

// informational are end-to-end metrics reported on each workload's line
// but not bounded: on the reference machine their medians moved between
// calibration sets by more than the 10% a bound may allow
// (bench/CALIBRATION.md).
var informational = []metricDef{
	{"tps", "txn/s"},
	{"read_p50_us", "us"},
	{"read_p95_us", "us"},
	{"update_p50_us", "us"},
	{"update_p95_us", "us"},
	{"cpu_us_per_txn", "us"},
}

// perLayer are the metrics a traced run reports for every workload.
var perLayer = []metricDef{
	{"client.begin_us", "us"},
	{"client.read_us", "us"},
	{"client.write_us", "us"},
	{"client.commit_us", "us"},
	{"client.commit_ro_us", "us"},
	{"client.rtt_per_txn", "count"},
	{"wire.req_bytes_per_txn", "bytes"},
	{"wire.encode_ns_per_txn", "ns"},
	{"wire.decode_ns_per_txn", "ns"},
	{"wire.records_bytes_per_update", "bytes"},
	{"server.read_txn_us", "us"},
	{"server.update_txn_us", "us"},
	{"certifier.certify_ns_per_update", "ns"},
	{"stage.apply_us", "us"},
	{"repl.lag_us", "us"},
	{"wal.append_ns_per_update", "ns"},
	{"wal.bytes_per_update", "bytes"},
	{"sidb.read_ns_per_read_txn", "ns"},
	{"sidb.apply_ns_per_update", "ns"},
	{"router.cross_frac", "ratio"},
	{"router.locate_ns", "ns"},
	{"proc.heap_mb", "MiB"},
	{"commit_residual_us", "us"},
	{"trace_overhead_frac", "ratio"},
}

// layerExtras are per-layer metrics that only some workloads measure:
// stages and router paths the others never take, abort and backlog
// counts that are 0 in most windows with 2 clients, and GC costs, which
// are 0 in a window no GC cycle ends in. Traced runs report them on the
// workload's line and in the trace file where measured.
var layerExtras = []metricDef{
	{"stage.certify_us", "us"},
	{"stage.journal_us", "us"},
	{"stage.fsync_us", "us"},
	{"stage.ack_us", "us"},
	{"certifier.abort_ratio", "ratio"},
	{"apply.lag_versions", "count"},
	{"router.commit_single_us", "us"},
	{"router.commit_cross_us", "us"},
	{"proc.gc_cpu_frac", "ratio"},
	{"proc.gc_cycles_per_ktxn", "count"},
}

// Trial plan: every workload runs rounds trials (traced runs: pairs of
// an untraced and a traced trial), each on a fresh deployment in its own
// process, after warmup of load outside the measured window.
const (
	rounds       = 5
	tracedRounds = 2
	warmup       = 500 * time.Millisecond
	childTimeout = 150 * time.Second
)

func main() { os.Exit(runMain(os.Args[1:])) }

func runMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", 1, "workload seed; a workload's trial k runs seed+k")
	seconds := fs.Float64("seconds", 10, "measured seconds per workload, split evenly across its trials")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from traced trials instead of end-to-end ones")
	workdir := fs.String("workdir", ".bench_build", "directory for WAL files and trace files")
	traceOut := fs.String("trace-out", "", "traced runs: file for spans and per-layer metrics (default <workdir>/trace-<workload>-seed<seed>.json)")
	child := fs.String("child", "", "run the one trial given as JSON and print its result")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		if fs.Arg(0) == "compare" {
			return compareMain(fs.Args()[1:])
		}
		fmt.Fprintf(os.Stderr, "bench: unknown command %q (compare)\n", fs.Arg(0))
		return 2
	}
	if *child != "" {
		return childMain(*child, *workdir)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	ws := workloads
	if *name != "all" {
		w, err := specByName(*name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 2
		}
		ws = []spec{w}
	}
	traced := *trace == 1
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}

	// An interrupt or termination stops the running trial's process.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	plan := schedule(ws, *seed, *seconds, traced, *workdir)
	env := newEnvironment(plan, *seed, *seconds, *workdir)
	byWorkload := make(map[string][]*trialResult)
	for _, cfg := range plan {
		res, err := runChild(ctx, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		env.Goroutines = append(env.Goroutines, res.Goroutines)
		byWorkload[cfg.Workload] = append(byWorkload[cfg.Workload], res)
	}

	var results []workloadResult
	for _, w := range ws {
		wr, err := aggregate(w.name, byWorkload[w.name], traced)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		results = append(results, wr)
	}
	if traced {
		path := *traceOut
		if path == "" {
			path = filepath.Join(*workdir, fmt.Sprintf("trace-%s-seed%d.json", *name, *seed))
		}
		if err := writeTrace(path, env, results, byWorkload); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "bench: spans and per-layer metrics written to %s\n", path)
	}

	final := workloadResult{Correct: true, Metrics: map[string]metricValue{}}
	finalDefs := endToEnd
	if traced {
		finalDefs = perLayer
	}
	printJSON(map[string]any{"env": env})
	for _, wr := range results {
		printJSON(wr)
		final.Correct = final.Correct && wr.Correct
		final.Attempted += wr.Attempted
		final.Failed += wr.Failed
		for _, d := range finalDefs {
			k := d.name
			if len(results) > 1 {
				k = wr.Workload + "/" + k
			}
			final.Metrics[k] = wr.Metrics[d.name]
		}
	}
	printJSON(final)
	if !final.Correct {
		return 1
	}
	return 0
}

// schedule plans the trials: rounds in which every workload runs once,
// in an order rotated each round, so drift on a shared machine spreads
// across workloads. A traced run pairs each traced trial with an
// untraced one, back to back, to measure the tracing overhead.
func schedule(ws []spec, seed uint64, seconds float64, traced bool, workdir string) []trialConfig {
	n, kinds := rounds, []bool{false}
	if traced {
		n, kinds = tracedRounds, []bool{false, true}
	}
	window := time.Duration(seconds / float64(n*len(kinds)) * float64(time.Second))
	var plan []trialConfig
	for r := 0; r < n; r++ {
		for i := range ws {
			w := ws[(i+r)%len(ws)]
			for _, t := range kinds {
				plan = append(plan, trialConfig{Workload: w.name, Seed: seed + uint64(r), Traced: t,
					Factor: 1, Warmup: warmup, Window: window, Workdir: workdir})
			}
		}
	}
	return plan
}

// runChild runs one trial in a fresh process of this binary. The child
// is killed when ctx ends, when it overruns childTimeout, or when this
// process dies.
func runChild(ctx context.Context, cfg trialConfig) (*trialResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	arg, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, "-workdir", cfg.Workdir, "-child", string(arg))
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("trial %s seed %d: %w", cfg.Workload, cfg.Seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res trialResult
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("trial %s seed %d: result: %w", cfg.Workload, cfg.Seed, err)
	}
	return &res, nil
}

func childMain(arg, workdir string) int {
	var cfg trialConfig
	if err := json.Unmarshal([]byte(arg), &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "bench: trial config: %v\n", err)
		return 2
	}
	cfg.Workdir = workdir
	res, err := runTrial(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: trial %s seed %d: %v\n", cfg.Workload, cfg.Seed, err)
		return 1
	}
	printJSON(res)
	return 0
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloadResult is one workload's line of output; the last line has
// the same shape without the workload and trials.
type workloadResult struct {
	Workload  string                 `json:"workload,omitempty"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Trials    []*trialResult         `json:"trials,omitempty"`
}

// aggregate folds a workload's trials into medians: the end-to-end and
// informational metrics of its untraced trials, or the per-layer
// metrics of its traced ones (with those of layers the workload
// crosses that not every workload does).
func aggregate(name string, trials []*trialResult, traced bool) (workloadResult, error) {
	wr := workloadResult{Workload: name, Correct: len(trials) > 0, Metrics: map[string]metricValue{}}
	byKind := map[bool]map[string][]float64{false: {}, true: {}}
	for _, t := range trials {
		wr.Correct = wr.Correct && t.Correct
		wr.Attempted += t.attempted()
		wr.Failed += t.Failed
		for k, v := range t.Metrics {
			byKind[t.Config.Traced][k] = append(byKind[t.Config.Traced][k], v)
		}
		summary := *t
		summary.Spans = nil
		wr.Trials = append(wr.Trials, &summary)
	}
	required, optional, values := append(append([]metricDef(nil), endToEnd...), informational...), []metricDef(nil), byKind[false]
	if traced {
		required, optional, values = perLayer, layerExtras, byKind[true]
		values["trace_overhead_frac"] = []float64{
			1 - median(byKind[true]["tps"])/median(byKind[false]["tps"])}
	}
	for _, d := range required {
		if len(values[d.name]) == 0 {
			return wr, fmt.Errorf("workload %s did not measure %s", name, d.name)
		}
		wr.Metrics[d.name] = metricValue{median(values[d.name]), d.unit}
	}
	for _, d := range optional {
		if len(values[d.name]) > 0 {
			wr.Metrics[d.name] = metricValue{median(values[d.name]), d.unit}
		}
	}
	return wr, nil
}

// writeTrace writes a traced run's file: the environment, and for each
// workload its per-layer metrics and its trials with their spans.
func writeTrace(path string, env *environment, results []workloadResult, trials map[string][]*trialResult) error {
	type workloadTrace struct {
		Workload string                 `json:"workload"`
		Layers   map[string]metricValue `json:"layers"`
		Trials   []*trialResult         `json:"trials"`
	}
	out := struct {
		Env       *environment    `json:"env"`
		Workloads []workloadTrace `json:"workloads"`
	}{Env: env}
	for _, wr := range results {
		out.Workloads = append(out.Workloads, workloadTrace{wr.Workload, wr.Metrics, trials[wr.Workload]})
	}
	buf, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

func printJSON(v any) {
	buf, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs, maps and numbers are printed
	}
	os.Stdout.Write(append(buf, '\n'))
}

// environment records where and how a run measured.
type environment struct {
	NumCPU     int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	GoVersion  string   `json:"go_version"`
	Commit     string   `json:"commit"`
	Layout     string   `json:"process_layout"`
	WALFS      string   `json:"wal_fs"`
	LoadModel  string   `json:"load_model"`
	Seed       uint64   `json:"seed"`
	Seconds    float64  `json:"seconds"`
	Schedule   []string `json:"trial_schedule"`
	// Goroutines left after each trial's teardown, in schedule order.
	Goroutines []int `json:"goroutines_after_teardown"`
}

func newEnvironment(plan []trialConfig, seed uint64, seconds float64, workdir string) *environment {
	env := &environment{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Layout:     "in-process: every replica server and the load generator in one process per trial, over loopback TCP",
		WALFS:      fsType(workdir),
		LoadModel: fmt.Sprintf("closed loop, %d clients, zero think time, client pool size %d",
			benchClients, benchPoolSize),
		Seed:    seed,
		Seconds: seconds,
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		modified := ""
		for _, s := range info.Settings {
			switch {
			case s.Key == "vcs.revision":
				env.Commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				modified = "+modified"
			}
		}
		env.Commit += modified
	}
	for _, c := range plan {
		env.Schedule = append(env.Schedule, fmt.Sprintf("%s seed=%d traced=%v warmup=%s window=%s",
			c.Workload, c.Seed, c.Traced, c.Warmup, c.Window))
	}
	return env
}

// fsType names the filesystem holding dir, where WAL files go.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown: " + err.Error()
	}
	names := map[int64]string{0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs"}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
