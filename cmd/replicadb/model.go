package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/profiler"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// profileMain runs the §4 standalone-profiling pipeline: it plays the
// calibration workloads against the simulated standalone database,
// derives every model parameter via the Utilization Law, and prints
// them next to the ground-truth table values, plus an optional excerpt
// of the captured statement log the methodology consumes.
func profileMain(args []string) {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	var (
		mixID    = fs.String("mix", "tpcw-shopping", "workload mix id")
		seed     = fs.Uint64("seed", 1, "profiling seed")
		logLines = fs.Int("log", 0, "also print the first N lines of the captured statement log")
		outFile  = fs.String("out", "", "write the measured parameters as JSON for predict -params")
	)
	fs.Parse(args)
	mix := mustMix(fs, *mixID)

	fmt.Printf("profiling %s on the standalone system...\n\n", mix)
	params, rep, err := profiler.Profile(mix, profiler.Options{Seed: *seed})
	if err != nil {
		fatal("%v", err)
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "parameter\tmeasured\tground truth\terror")
	row := func(name string, got, want float64, scale float64, unit string) {
		fmt.Fprintf(w, "%s\t%.2f %s\t%.2f %s\t%.1f%%\n",
			name, got*scale, unit, want*scale, unit,
			stats.RelativeError(got, want)*100)
	}
	row("rc CPU", params.Mix.RC[workload.CPU], mix.RC[workload.CPU], 1000, "ms")
	row("rc disk", params.Mix.RC[workload.Disk], mix.RC[workload.Disk], 1000, "ms")
	if mix.Pw > 0 {
		row("wc CPU", params.Mix.WC[workload.CPU], mix.WC[workload.CPU], 1000, "ms")
		row("wc disk", params.Mix.WC[workload.Disk], mix.WC[workload.Disk], 1000, "ms")
		row("ws CPU", params.Mix.WS[workload.CPU], mix.WS[workload.CPU], 1000, "ms")
		row("ws disk", params.Mix.WS[workload.Disk], mix.WS[workload.Disk], 1000, "ms")
	}
	row("Pr", params.Mix.Pr, mix.Pr, 100, "%")
	row("Pw", params.Mix.Pw, mix.Pw, 100, "%")
	w.Flush()

	fmt.Printf("\nL(1) measured: %.1f ms (update response time on standalone)\n", params.L1*1000)
	fmt.Printf("A1 measured:   %.4f%% (aborted update attempts)\n", params.Mix.A1*100)
	fmt.Printf("log counts:    %d read-only, %d update transactions over %d statements\n",
		rep.TraceCounts.ReadOnlyTxns, rep.TraceCounts.UpdateTxns, rep.TraceCounts.Statements)

	if *outFile != "" {
		f, err := os.Create(*outFile)
		if err != nil {
			fatal("%v", err)
		}
		err = core.WriteParams(f, params)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal("%v", err)
		}
		fmt.Printf("\nwrote measured parameters to %s\n", *outFile)
	}

	if *logLines > 0 {
		cat, err := workload.CatalogFor(mix)
		if err != nil {
			fatal("%v", err)
		}
		fmt.Printf("\ncaptured statement log (first %d lines):\n", *logLines)
		tr := trace.Generate(cat, mix, mix.Clients, 50, *seed)
		if len(tr.Entries) > *logLines {
			tr.Entries = tr.Entries[:*logLines]
		}
		if err := trace.Encode(os.Stdout, tr); err != nil {
			fatal("%v", err)
		}
	}
}

// predictMain evaluates the analytical models for a mix and prints
// throughput, response time and abort-rate predictions across replica
// counts: the capacity-planning front end of the paper.
func predictMain(args []string) {
	fs := flag.NewFlagSet("predict", flag.ExitOnError)
	var (
		mixID    = fs.String("mix", "tpcw-shopping", "workload mix id")
		design   = fs.String("design", "both", "replication design: mm, sm or both")
		replicas = fs.Int("replicas", 16, "maximum replica count")
		target   = fs.Float64("target", 0, "optional target throughput (tps) for capacity planning")
		profile  = fs.Bool("profile", false, "derive parameters by profiling the simulated standalone system instead of table inputs")
		paramsIn = fs.String("params", "", "read parameters from a JSON file written by profile -out")
		seed     = fs.Uint64("seed", 1, "profiling seed")
	)
	fs.Parse(args)

	designs := map[string][]repro.Design{
		"mm":   {repro.MultiMaster},
		"sm":   {repro.SingleMaster},
		"both": {repro.MultiMaster, repro.SingleMaster},
	}[*design]
	if designs == nil {
		usageExit(fs, "unknown design %q (mm|sm|both)", *design)
	}
	if *replicas < 1 {
		usageExit(fs, "-replicas must be >= 1 (got %d)", *replicas)
	}
	var params repro.Params
	var mix repro.Mix
	if *paramsIn != "" {
		f, err := os.Open(*paramsIn)
		if err != nil {
			fatal("%v", err)
		}
		params, err = core.ReadParams(f)
		f.Close()
		if err != nil {
			fatal("%v", err)
		}
		mix = params.Mix
	} else {
		mix = mustMix(fs, *mixID)
		params = repro.NewParams(mix)
		if *profile {
			fmt.Println("profiling standalone system (4 calibration runs)...")
			var err error
			if params, err = repro.Profile(mix, *seed); err != nil {
				fatal("%v", err)
			}
		}
	}

	fmt.Printf("workload: %s\n", mix)
	fmt.Printf("L(1) = %.1f ms, A1 = %.4f%%\n", params.L1*1000, params.Mix.A1*100)
	if rep := repro.CheckAssumptions(params, *replicas); !rep.OK() {
		fmt.Println(rep)
	}
	fmt.Println()

	for _, d := range designs {
		fmt.Printf("== %s ==\n", d)
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "N\tthroughput (tps)\tspeedup\tresponse (ms)\tabort\tutil cpu\tutil disk")
		var x1 float64
		for n := 1; n <= *replicas; n++ {
			pred, err := repro.Predict(d, params, n)
			if err != nil {
				fatal("%v", err)
			}
			if n == 1 {
				x1 = pred.Throughput
			}
			role := pred.Replica
			if d == repro.SingleMaster {
				role = pred.Master
			}
			fmt.Fprintf(w, "%d\t%.1f\t%.1fx\t%.0f\t%.3f%%\t%.0f%%\t%.0f%%\n",
				n, pred.Throughput, pred.Speedup(x1), pred.ResponseTime*1000,
				pred.AbortRate*100, role.UtilCPU*100, role.UtilDisk*100)
		}
		w.Flush()
		if *target > 0 {
			n, pred, ok := repro.CapacityPlan(params, d, *target, *replicas)
			if ok {
				fmt.Printf("capacity plan: %d replicas reach %.1f tps (target %.1f)\n",
					n, pred.Throughput, *target)
			} else {
				fmt.Printf("capacity plan: target %.1f tps NOT reachable within %d replicas (max %.1f)\n",
					*target, *replicas, pred.Throughput)
			}
		}
		fmt.Println()
	}
}

// experimentsMain regenerates the paper's evaluation: every table
// (2-5) and figure (6-14) of §6 plus the certifier sensitivity
// analysis and the ablation studies, with measured (simulated
// prototype) and predicted (analytical model) columns and the
// prediction error.
func experimentsMain(args []string) {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	var (
		expIDs   = fs.String("exp", "all", "comma-separated experiment ids, or 'all'")
		list     = fs.Bool("list", false, "list available experiments and exit")
		replicas = fs.String("replicas", "", "comma-separated replica counts (default 1,2,4,6,8,10,12,14,16)")
		seed     = fs.Uint64("seed", 0, "measurement seed (0 = default)")
		warmup   = fs.Float64("warmup", 0, "warm-up window in virtual seconds (0 = default)")
		measure  = fs.Float64("measure", 0, "measurement window in virtual seconds (0 = default)")
		profile  = fs.Bool("use-profiler", false, "derive model parameters by profiling instead of table inputs")
		quick    = fs.Bool("quick", false, "fast mode: fewer replica points and short windows")
		format   = fs.String("format", "text", "output format: text or csv")
	)
	fs.Parse(args)

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-20s %s\n", e.ID, e.Description)
		}
		return
	}

	// Every id, the format and the replica counts are checked before
	// the first experiment runs.
	if *format != "text" && *format != "csv" {
		usageExit(fs, "unknown format %q (text|csv)", *format)
	}
	var exps []experiments.Experiment
	if *expIDs == "all" {
		exps = experiments.All()
	} else {
		for _, id := range strings.Split(*expIDs, ",") {
			e, ok := experiments.ByID(strings.TrimSpace(id))
			if !ok {
				usageExit(fs, "unknown experiment %q (use -list)", id)
			}
			exps = append(exps, e)
		}
	}
	opts := experiments.Options{
		Seed:        *seed,
		Warmup:      *warmup,
		Measure:     *measure,
		UseProfiler: *profile,
	}
	if *replicas != "" {
		for _, part := range strings.Split(*replicas, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n < 1 {
				usageExit(fs, "bad replica count %q", part)
			}
			opts.Replicas = append(opts.Replicas, n)
		}
	}
	if *quick {
		if len(opts.Replicas) == 0 {
			opts.Replicas = []int{1, 4, 16}
		}
		if opts.Warmup == 0 {
			opts.Warmup = 10
		}
		if opts.Measure == 0 {
			opts.Measure = 60
		}
	}

	for i, e := range exps {
		if i > 0 {
			fmt.Println()
		}
		start := time.Now()
		r, err := e.Run(opts)
		if err != nil {
			fatal("%s: %v", e.ID, err)
		}
		if *format == "text" {
			if err := r.Render(os.Stdout); err != nil {
				fatal("render %s: %v", e.ID, err)
			}
			fmt.Printf("(%s in %.1fs)\n", e.ID, time.Since(start).Seconds())
			continue
		}
		c, ok := r.(experiments.CSVRenderable)
		if !ok {
			fatal("%s has no CSV form", e.ID)
		}
		if err := c.RenderCSV(os.Stdout); err != nil {
			fatal("render %s: %v", e.ID, err)
		}
	}
}
