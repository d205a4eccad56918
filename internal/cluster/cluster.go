// Package cluster simulates the paper's prototype systems: a
// standalone database, the Tashkent-style multi-master system and the
// Ganymed-style single-master system (§5), running the TPC-W and
// RUBiS workload mixes on a cluster of replicas.
//
// This is the "measured system" side of the paper's validation: the
// authors ran PostgreSQL on a 16-machine cluster; this package runs a
// discrete-event simulation in which each replica is a CPU and a disk
// FIFO station with exponentially distributed demands calibrated by
// the measured service demands of Tables 3 and 5. Closed-loop clients
// submit transactions with exponential think times; the load balancer
// and the certifier contribute the delays measured in §6.3. Update
// transactions sample the rows they modify from an updatable-row pool,
// and write-write conflicts are detected against a global last-writer
// table exactly as first-committer-wins snapshot isolation would —
// aborted transactions are retried by their client, as the paper's
// servlets do.
//
// Because conflicts are driven by actual row overlap and snapshot
// staleness (replicas learn of remote commits only when the writeset
// is applied), the simulation reproduces the abort dynamics the model
// predicts analytically, including the Figure 14 heap-table
// experiments.
package cluster

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Config describes one simulated experiment run.
type Config struct {
	Mix      workload.Mix
	Design   core.Design
	Replicas int
	Seed     uint64

	// Warmup and Measure are the virtual-time windows (seconds). The
	// paper uses 10 min + 15 min on real hardware; the simulation
	// defaults to 30 s + 150 s, which give tight confidence intervals
	// at these throughputs.
	Warmup  float64
	Measure float64

	// LBDelay and CertDelay default to the paper's 1 ms and 12 ms.
	LBDelay   float64
	CertDelay float64

	// CertBatch models group commit at the certifier: the certifier
	// logs writesets in batches (§6.3), so with a batch factor of B
	// the per-request share of the certification delay shrinks to
	// CertDelay/B. Zero or one keeps the paper's per-request delay;
	// the knob exists for what-if studies of a batching certifier and
	// matches the functional repl/mm GroupCommit option.
	CertBatch int

	// HeapTableSize overrides the mix's DBUpdateSize row pool, used by
	// the Figure 14 experiments to force high abort rates. Zero keeps
	// the mix value.
	HeapTableSize int

	// HotspotTheta skews the rows update transactions touch with a
	// Zipf(theta) distribution over the row pool. Zero keeps the
	// paper's uniform-access assumption (§3.4 assumption 4); positive
	// values create the hotspot that assumption rules out, for the
	// sensitivity study.
	HotspotTheta float64

	// OpenLoopRate switches the workload from the paper's closed-loop
	// clients (§3.1) to an open Poisson arrival stream of the given
	// transactions/second. Used only by the open-vs-closed ablation
	// (Schroeder et al., NSDI 2006, cited in §3.1); zero means closed
	// loop.
	OpenLoopRate float64

	// MasterSpeedup scales the single-master master's machine speed:
	// its service demands are divided by this factor (zero or one =
	// homogeneous cluster). Models the paper's §6.2.1 suggestion of a
	// more powerful master.
	MasterSpeedup float64

	// FIFO switches the replica stations from processor sharing (the
	// default, matching the time-shared database server and the MVA
	// product-form assumptions) to FIFO queues. Kept as an ablation:
	// FIFO distorts per-class response times because cheap update
	// transactions wait behind expensive reads.
	FIFO bool
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Replicas == 0 {
		c.Replicas = 1
	}
	if c.Warmup == 0 {
		c.Warmup = 30
	}
	if c.Measure == 0 {
		c.Measure = 150
	}
	if c.LBDelay == 0 && c.Design != core.Standalone {
		c.LBDelay = core.DefaultLBDelay
	}
	if c.CertDelay == 0 && c.Design == core.MultiMaster {
		c.CertDelay = core.DefaultCertDelay
	}
	if c.CertBatch < 1 {
		c.CertBatch = 1
	}
	if c.HeapTableSize == 0 {
		c.HeapTableSize = c.Mix.DBUpdateSize
	}
	return c
}

// validate rejects impossible configurations.
func (c Config) validate() error {
	if err := c.Mix.Validate(); err != nil {
		return err
	}
	if c.Replicas < 1 {
		return fmt.Errorf("cluster: %d replicas", c.Replicas)
	}
	if c.Design == core.Standalone && c.Replicas != 1 {
		return fmt.Errorf("cluster: standalone design with %d replicas", c.Replicas)
	}
	if c.Warmup < 0 || c.Measure <= 0 {
		return fmt.Errorf("cluster: bad measurement window %v+%v", c.Warmup, c.Measure)
	}
	if c.Mix.Pw > 0 && c.HeapTableSize <= 0 && c.Mix.DBUpdateSize <= 0 {
		return fmt.Errorf("cluster: update workload without a row pool")
	}
	return nil
}

// NodeStats reports one node's measured steady-state behaviour.
type NodeStats struct {
	Name       string
	UtilCPU    float64
	UtilDisk   float64
	QueueCPU   float64
	QueueDisk  float64
	Commits    int64 // transactions committed at this node
	Writesets  int64 // remote writesets applied at this node
	Throughput float64
}

// Result is the measured outcome of a run.
type Result struct {
	Design   core.Design
	Replicas int

	Throughput      float64 // committed transactions/second
	ReadThroughput  float64
	WriteThroughput float64
	ResponseTime    float64 // mean over committed transactions, seconds
	ReadResponse    float64
	WriteResponse   float64
	ResponseCI95    float64 // 95% CI half-width of the mean response time

	// Response-time percentiles over committed transactions (seconds).
	ResponseP50 float64
	ResponseP95 float64
	ResponseP99 float64

	AbortRate      float64 // aborted update attempts / all update attempts
	Commits        int64
	UpdateCommits  int64
	UpdateAborts   int64
	Retries        int64
	AvgSnapshotLag float64 // mean versions a snapshot lagged the globally latest

	Nodes []NodeStats
}

// node is one simulated database replica.
type node struct {
	name    string
	cpu     des.Queue
	disk    des.Queue
	applied int64 // highest committed version visible at this node

	outstanding int // transactions currently routed here
	commits     int64
	writesets   int64
}

// system is the run-time state of one simulation.
type system struct {
	cfg   Config
	sim   *des.Sim
	rng   *stats.Rand
	nodes []*node

	// Global commit state (the certifier's view for MM, the master's
	// for SM/standalone).
	version    int64
	lastWriter map[int32]int64
	hotspot    *stats.Zipf // non-nil when HotspotTheta > 0

	measuring bool
	start     float64 // measurement window start

	commits       int64
	readCommits   int64
	updateCommits int64
	updateAborts  int64
	attempts      int64
	retries       int64

	respAll   stats.Welford
	respRead  stats.Welford
	respWrite stats.Welford
	respHist  *stats.Latency
	snapLag   stats.Welford
}

// Run executes the configured experiment and returns its measurements.
func Run(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	sys := &system{
		cfg:        cfg,
		sim:        des.New(),
		rng:        stats.NewRand(cfg.Seed ^ 0xDB15CA1E),
		lastWriter: make(map[int32]int64),
		respHist:   stats.NewLatency(),
	}
	if cfg.HotspotTheta > 0 && cfg.HeapTableSize > 0 {
		sys.hotspot = stats.NewZipf(cfg.HeapTableSize, cfg.HotspotTheta)
	}
	for i := 0; i < cfg.Replicas; i++ {
		name := fmt.Sprintf("replica%d", i)
		if cfg.Design == core.SingleMaster {
			if i == 0 {
				name = "master"
			} else {
				name = fmt.Sprintf("slave%d", i)
			}
		}
		newStation := func(suffix string) des.Queue {
			if cfg.FIFO {
				return des.NewStation(sys.sim, name+suffix)
			}
			return des.NewPSStation(sys.sim, name+suffix)
		}
		sys.nodes = append(sys.nodes, &node{
			name: name,
			cpu:  newStation("/cpu"),
			disk: newStation("/disk"),
		})
	}

	if cfg.OpenLoopRate > 0 {
		sys.startOpenLoop(sys.rng.Split())
	} else {
		clients := cfg.Mix.Clients * cfg.Replicas
		for i := 0; i < clients; i++ {
			sys.startClient(sys.rng.Split())
		}
	}

	sys.sim.Run(cfg.Warmup)
	sys.beginMeasurement()
	sys.sim.Run(cfg.Warmup + cfg.Measure)
	return sys.result(), nil
}

// beginMeasurement discards warm-up statistics.
func (s *system) beginMeasurement() {
	s.measuring = true
	s.start = s.sim.Now()
	for _, n := range s.nodes {
		n.cpu.ResetStats()
		n.disk.ResetStats()
		n.commits = 0
		n.writesets = 0
	}
}

// result gathers the measurement window into a Result.
func (s *system) result() Result {
	elapsed := s.sim.Now() - s.start
	res := Result{
		Design:          s.cfg.Design,
		Replicas:        s.cfg.Replicas,
		Throughput:      float64(s.commits) / elapsed,
		ReadThroughput:  float64(s.readCommits) / elapsed,
		WriteThroughput: float64(s.updateCommits) / elapsed,
		ResponseTime:    s.respAll.Mean(),
		ReadResponse:    s.respRead.Mean(),
		WriteResponse:   s.respWrite.Mean(),
		ResponseCI95:    s.respAll.CI95(),
		ResponseP50:     s.respHist.Quantile(0.50).Seconds(),
		ResponseP95:     s.respHist.Quantile(0.95).Seconds(),
		ResponseP99:     s.respHist.Quantile(0.99).Seconds(),
		Commits:         s.commits,
		UpdateCommits:   s.updateCommits,
		UpdateAborts:    s.updateAborts,
		Retries:         s.retries,
		AvgSnapshotLag:  s.snapLag.Mean(),
	}
	if s.attempts > 0 {
		res.AbortRate = float64(s.updateAborts) / float64(s.attempts)
	}
	for _, n := range s.nodes {
		res.Nodes = append(res.Nodes, NodeStats{
			Name:       n.name,
			UtilCPU:    n.cpu.Utilization(),
			UtilDisk:   n.disk.Utilization(),
			QueueCPU:   n.cpu.QueueLength(),
			QueueDisk:  n.disk.QueueLength(),
			Commits:    n.commits,
			Writesets:  n.writesets,
			Throughput: float64(n.commits) / elapsed,
		})
	}
	return res
}
