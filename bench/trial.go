package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"repro/internal/repl"
	"repro/internal/stats"
	"repro/internal/workload"
)

// trialConfig is one trial: a fresh deployment of one workload, set up,
// loaded for warmup+window, checked and torn down.
type trialConfig struct {
	Workload string        `json:"workload"`
	Seed     uint64        `json:"seed"`
	Traced   bool          `json:"traced"`
	Factor   int           `json:"factor"` // catalog scale-down; 1 is full size
	Warmup   time.Duration `json:"warmup_ns"`
	Window   time.Duration `json:"window_ns"`
	Workdir  string        `json:"-"`
}

// trialResult is what one trial measured.
type trialResult struct {
	Config        trialConfig `json:"config"`
	SetupS        float64     `json:"setup_s"`
	WindowS       float64     `json:"window_s"`
	CheckS        float64     `json:"check_s"`
	ReadCommits   int64       `json:"read_commits"`
	UpdateCommits int64       `json:"update_commits"`
	Aborts        int64       `json:"aborts"`
	Failed        int64       `json:"failed"`
	FirstError    string      `json:"first_error,omitempty"`
	Correct       bool        `json:"correct"`
	CheckError    string      `json:"check_error,omitempty"`
	// Goroutines is the count left after teardown; a leak shows here.
	Goroutines int `json:"goroutines_after_teardown"`
	// Metrics are the trial's end-to-end and informational metrics; a
	// traced trial adds its per-layer ones.
	Metrics map[string]float64 `json:"metrics"`
	Spans   []span             `json:"spans,omitempty"`
}

func (r *trialResult) committed() int64 { return r.ReadCommits + r.UpdateCommits }

// attempted counts the logical transactions the window finished:
// committed plus failed (aborts are retried inside one transaction).
func (r *trialResult) attempted() int64 { return r.committed() + r.Failed }

// procSample is the process's cumulative resource counters at one
// instant.
type procSample struct {
	at       time.Time
	cpu      time.Duration // user+system, from getrusage
	alloc    uint64        // heap bytes ever allocated
	gcCycles uint64
	gcCPU    float64 // runtime estimate of GC CPU seconds
	heapLive uint64
}

var procMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/heap/live:bytes",
}

func sampleProc() procSample {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	ms := make([]metrics.Sample, len(procMetrics))
	for i, name := range procMetrics {
		ms[i].Name = name
	}
	metrics.Read(ms)
	return procSample{
		at:       time.Now(),
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:    ms[0].Value.Uint64(),
		gcCycles: ms[1].Value.Uint64(),
		gcCPU:    ms[2].Value.Float64(),
		heapLive: ms[3].Value.Uint64(),
	}
}

// runTrial boots the workload's deployment, loads it, drives the closed
// loop, checks the outcome and tears everything down.
func runTrial(cfg trialConfig) (*trialResult, error) {
	w, err := specByName(cfg.Workload)
	if err != nil {
		return nil, err
	}
	mix, ok := workload.ByID(w.mixID)
	if !ok {
		return nil, fmt.Errorf("unknown mix %q", w.mixID)
	}
	cat, err := workload.CatalogFor(mix)
	if err != nil {
		return nil, err
	}
	res := &trialResult{Config: cfg}

	// Set-up: boot, load, and every replica caught up.
	start := time.Now()
	walDir := filepath.Join(cfg.Workdir, "wal", fmt.Sprintf("%d-%d", os.Getpid(), start.UnixNano()))
	c, err := boot(w, cfg.Traced, walDir)
	if err != nil {
		return nil, err
	}
	if err := repl.LoadCatalog(c.loader, cat, cfg.Factor); err != nil {
		c.close()
		return nil, fmt.Errorf("load: %w", err)
	}
	c.sys.Sync()
	res.SetupS = time.Since(start).Seconds()

	d := &driver{sys: c.sys, cat: cat, mix: mix, factor: cfg.Factor, smap: c.smap, traced: cfg.Traced}
	root := stats.NewRand(cfg.Seed)
	crs := make([]*clientRun, benchClients)
	for i := range crs {
		crs[i] = newClientRun(i, root.Split())
	}
	var probe *layerProbe
	if cfg.Traced {
		probe = newLayerProbe(c.addrs, w.design)
	}
	var before, after procSample
	d.load(crs, cfg.Warmup, cfg.Window, func(phase int32) {
		if phase == phaseMeasure {
			// Every window starts from a fresh collection, so whether a
			// GC cycle lands inside it depends on the allocation rate
			// and heap size, not on when the previous cycle happened.
			runtime.GC()
			probe.start()
			before = sampleProc()
		} else {
			after = sampleProc()
			probe.stop()
		}
	})

	res.WindowS = after.at.Sub(before.at).Seconds()
	var readLat, updateLat []float64
	for _, cr := range crs {
		res.ReadCommits += cr.reads
		res.UpdateCommits += cr.updates
		res.Aborts += cr.aborts
		res.Failed += cr.failed
		if res.FirstError == "" {
			res.FirstError = cr.firstErr
		}
		for _, ns := range cr.readLat {
			readLat = append(readLat, float64(ns)/1e3)
		}
		for _, ns := range cr.updateLat {
			updateLat = append(updateLat, float64(ns)/1e3)
		}
	}
	checkStart := time.Now()
	if err := d.check(c.sys, crs); err != nil {
		res.CheckError = err.Error()
	}
	res.CheckS = time.Since(checkStart).Seconds()
	res.Correct = res.CheckError == ""

	n := float64(res.committed())
	if n == 0 {
		n = 1 // metrics of an empty window stay finite; attempted=0 reports it
	}
	res.Metrics = map[string]float64{
		"setup_s":          res.SetupS,
		"tps":              n / res.WindowS,
		"read_p50_us":      quantile(readLat, 0.50),
		"read_p95_us":      quantile(readLat, 0.95),
		"update_p50_us":    quantile(updateLat, 0.50),
		"update_p95_us":    quantile(updateLat, 0.95),
		"cpu_us_per_txn":   float64((after.cpu - before.cpu).Microseconds()) / n,
		"alloc_kb_per_txn": float64(after.alloc-before.alloc) / 1024 / n,
	}
	if cfg.Traced {
		err := probe.layers(res, crs, before, after, cat, cfg)
		probe.close()
		if err != nil {
			c.close()
			return nil, err
		}
	}
	if err := c.close(); err != nil {
		return nil, fmt.Errorf("teardown: %w", err)
	}
	res.Goroutines = runtime.NumGoroutine()
	return res, nil
}

// quantile returns the q-quantile of xs, interpolating linearly between
// order statistics (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
