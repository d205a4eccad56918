package elastic

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// Scaler changes the cluster size one replica at a time: LocalScaler
// spawns a joiner server (join + snapshot + catch-up) or drains and
// deregisters the newest one.
type Scaler interface {
	// Replicas is the current cluster size.
	Replicas() int
	// ScaleUp adds one replica.
	ScaleUp() error
	// ScaleDown drains and removes one replica (never the primary).
	ScaleDown() error
}

// Source supplies cumulative serving counters for the whole cluster.
type Source interface {
	Sample() (Sample, error)
}

// FuncSource adapts a function to Source.
type FuncSource func() (Sample, error)

// Sample implements Source.
func (f FuncSource) Sample() (Sample, error) { return f() }

// Config tunes the autoscaling controller.
type Config struct {
	// Min and Max bound the replica count (Min >= 1).
	Min, Max int
	// HighUtil and LowUtil delimit the target utilization band for
	// the busiest replica resource. The controller sizes the cluster
	// so predicted utilization stays at or below HighUtil, and only
	// shrinks when the smaller cluster would still sit at or below
	// LowUtil — the gap is the hysteresis that stops flapping when
	// load hovers near a threshold. Defaults: 0.75 / 0.45.
	HighUtil, LowUtil float64
	// Interval is the control period (default 1s): one sample, one
	// prediction, at most one scaling step.
	Interval time.Duration
	// Cooldown is the minimum time between scaling operations
	// (default 2·Interval), so a join's warm-up transient cannot
	// immediately trigger another decision.
	Cooldown time.Duration
	// Base is the standalone-calibrated workload profile supplying
	// the service demands (§4); the live profiler refreshes the rest.
	Base workload.Mix
	// Think is the live clients' think time; zero uses Base.Think.
	Think float64
	// Recalibrate folds each usable window's live stage-derived
	// service demands into the calibrated profile (EWMA), so the
	// predictor steers with demands the real servers exhibit.
	Recalibrate bool
}

func (c *Config) fill() error {
	if c.Min < 1 {
		c.Min = 1
	}
	if c.Max < c.Min {
		return fmt.Errorf("elastic: max %d below min %d", c.Max, c.Min)
	}
	if c.HighUtil <= 0 {
		c.HighUtil = 0.75
	}
	if c.LowUtil <= 0 {
		c.LowUtil = 0.45
	}
	if c.LowUtil >= c.HighUtil {
		return fmt.Errorf("elastic: low-util %v must be below high-util %v", c.LowUtil, c.HighUtil)
	}
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 2 * c.Interval
	}
	if err := c.Base.Validate(); err != nil {
		return fmt.Errorf("elastic: base mix: %w", err)
	}
	return nil
}

// Decision describes one attempted scaling action together with the
// MVA model inputs that motivated it, for the event journal and logs.
type Decision struct {
	Direction string  // "up" or "down"
	Target    int     // computed target replica count
	Current   int     // cluster size when the decision fired
	Clients   float64 // live closed-loop client estimate (Little's law)
	Util      float64 // predicted busiest-resource utilization at Current
	Err       error   // nil when the scaler accepted the step
}

// Status is a snapshot of the controller's latest decision state.
type Status struct {
	Ups, Downs int // scaling operations issued
	Errors     int // scaling operations that failed
	Target     int // latest computed target
	Replicas   int // cluster size at the latest tick
	Clients    float64
	Util       float64 // predicted busiest-resource utilization at current size
}

// Controller periodically samples the live cluster, runs the MVA
// model over the live profile, and steers the replica count into the
// target utilization band. Create with NewController, drive with Run.
type Controller struct {
	cfg    Config
	scaler Scaler
	src    Source
	prof   *Profiler

	mu        sync.Mutex
	lastScale time.Time
	status    Status
	onDecide  func(Decision)
}

// OnDecision registers a hook fired after every attempted scaling
// step (successful or not), outside the controller's lock. At most
// one hook; call before Run.
func (c *Controller) OnDecision(fn func(Decision)) { c.onDecide = fn }

// Recalibrate replaces the profiler's service demands with
// live-measured per-operation demands (seconds per transaction at the
// given resource), folding them in through the profiler's EWMA so one
// noisy measurement window cannot whipsaw the model. Zero-valued
// fields leave the corresponding demand untouched.
func (c *Controller) Recalibrate(d Demands) { c.prof.Recalibrate(d) }

// NewController validates the configuration and builds a controller.
func NewController(cfg Config, scaler Scaler, src Source) (*Controller, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if scaler == nil || src == nil {
		return nil, fmt.Errorf("elastic: controller needs a scaler and a source")
	}
	return &Controller{
		cfg:    cfg,
		scaler: scaler,
		src:    src,
		prof:   NewProfiler(cfg.Base, cfg.Think),
	}, nil
}

// Status returns the latest decision snapshot.
func (c *Controller) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.status
}

// Run executes control ticks until stop closes.
func (c *Controller) Run(stop <-chan struct{}) {
	ticker := time.NewTicker(c.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			c.Step(time.Now())
		}
	}
}

// Step runs one control tick: sample, profile, predict, and move at
// most one replica toward the target. Exposed so tests and the DES
// harness can drive the controller without real time.
func (c *Controller) Step(now time.Time) {
	s, err := c.src.Sample()
	if err != nil {
		return
	}
	load, ok := c.prof.Observe(s)
	if !ok {
		return
	}
	if c.cfg.Recalibrate {
		if d, ok := LiveDemands(load); ok {
			c.prof.Recalibrate(d)
		}
	}
	params := c.prof.Params(load)
	cur := c.scaler.Replicas()
	target := Decide(c.cfg, params, load.Clients, cur)

	c.mu.Lock()
	c.status.Target = target
	c.status.Replicas = cur
	c.status.Clients = load.Clients
	c.status.Util = utilAt(c.cfg, params, load.Clients, cur)
	cooling := now.Sub(c.lastScale) < c.cfg.Cooldown
	if target == cur || cooling {
		c.mu.Unlock()
		return
	}
	c.lastScale = now
	c.mu.Unlock()

	dir := "up"
	if target > cur {
		err = c.scaler.ScaleUp()
	} else {
		dir = "down"
		err = c.scaler.ScaleDown()
	}
	c.mu.Lock()
	if err != nil {
		c.status.Errors++
	} else if target > cur {
		c.status.Ups++
	} else {
		c.status.Downs++
	}
	util := c.status.Util
	c.mu.Unlock()
	if c.onDecide != nil {
		c.onDecide(Decision{
			Direction: dir,
			Target:    target,
			Current:   cur,
			Clients:   load.Clients,
			Util:      util,
			Err:       err,
		})
	}
}

// maxModelClients bounds the per-replica client population fed to the
// exact MVA recursion (cost is linear in it); a wild Little's-law
// estimate during a latency spike must not stall the control loop.
const maxModelClients = 4096

// utilAt predicts the busiest-resource utilization of an n-replica
// cluster serving `clients` closed-loop clients, by splitting the
// population evenly across replicas (the load balancer's behavior)
// and solving the per-replica MVA model of §3.3.2.
func utilAt(cfg Config, params core.Params, clients float64, n int) float64 {
	if n < 1 || clients <= 0 {
		return 0
	}
	per := int(math.Ceil(clients / float64(n)))
	if per < 1 {
		per = 1
	}
	if per > maxModelClients {
		per = maxModelClients
	}
	params.Mix.Clients = per
	pred := core.PredictMM(params, n)
	u := pred.Replica.UtilCPU
	if pred.Replica.UtilDisk > u {
		u = pred.Replica.UtilDisk
	}
	return u
}

// Decide computes the target replica count for a live profile: the
// smallest n in [Min, Max] whose predicted busiest-resource
// utilization is at or below HighUtil (Max if none qualifies), with
// downscale hysteresis — a smaller cluster is adopted only if it
// would sit at or below LowUtil, so load hovering around HighUtil
// does not flap the membership. An idle window (no observed clients)
// drifts one step toward Min. Decide is pure: same inputs, same
// answer.
func Decide(cfg Config, params core.Params, clients float64, current int) int {
	if current < cfg.Min {
		return cfg.Min
	}
	if clients <= 0 {
		if current > cfg.Min {
			return current - 1
		}
		return current
	}
	target := cfg.Max
	for n := cfg.Min; n <= cfg.Max; n++ {
		if utilAt(cfg, params, clients, n) <= cfg.HighUtil {
			target = n
			break
		}
	}
	if target < current {
		for target < current && utilAt(cfg, params, clients, target) > cfg.LowUtil {
			target++
		}
	}
	if target > cfg.Max {
		target = cfg.Max
	}
	return target
}
