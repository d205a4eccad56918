package elastic

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
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
	// Cooldown is the minimum time between scaling operations
	// (default 2s), so a join's warm-up transient cannot immediately
	// trigger another decision.
	Cooldown time.Duration
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
	if c.Cooldown <= 0 {
		c.Cooldown = 2 * time.Second
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

// Controller steers the replica count into the target utilization
// band by the MVA model over a Window's live profile. Create with
// NewController and hand it the window's ticks (Window.Run).
type Controller struct {
	cfg    Config
	scaler Scaler

	mu        sync.Mutex
	lastScale time.Time
	status    Status
	onDecide  func(Decision)
}

// OnDecision registers a hook fired after every attempted scaling
// step (successful or not), outside the controller's lock. At most
// one hook; call before the window runs.
func (c *Controller) OnDecision(fn func(Decision)) { c.onDecide = fn }

// NewController validates the configuration and builds a controller.
func NewController(cfg Config, scaler Scaler) (*Controller, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if scaler == nil {
		return nil, fmt.Errorf("elastic: controller needs a scaler")
	}
	return &Controller{cfg: cfg, scaler: scaler}, nil
}

// Status returns the latest decision snapshot.
func (c *Controller) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.status
}

// Observe runs one control decision on a tick's window: predict, and
// move at most one replica toward the target. The cooldown is measured
// on the tick's sample time, so tests can drive it without real time.
func (c *Controller) Observe(t Tick) {
	if !t.OK {
		return
	}
	now, load, params := t.Sample.When, t.Load, t.Params
	cur := c.scaler.Replicas()
	target := Decide(c.cfg, params, load.Clients, cur)

	c.mu.Lock()
	c.status.Target = target
	c.status.Replicas = cur
	c.status.Clients = load.Clients
	c.status.Util = utilAt(params, load.Clients, cur)
	cooling := now.Sub(c.lastScale) < c.cfg.Cooldown
	if target == cur || cooling {
		c.mu.Unlock()
		return
	}
	c.lastScale = now
	c.mu.Unlock()

	var err error
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

// utilAt predicts the busiest-resource utilization of an n-replica
// cluster serving `clients` closed-loop clients.
func utilAt(params core.Params, clients float64, n int) float64 {
	if n < 1 || clients <= 0 {
		return 0
	}
	pred := predictAt(params, clients, n)
	return max(pred.Replica.UtilCPU, pred.Replica.UtilDisk)
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
		if utilAt(params, clients, n) <= cfg.HighUtil {
			target = n
			break
		}
	}
	if target < current {
		for target < current && utilAt(params, clients, target) > cfg.LowUtil {
			target++
		}
	}
	if target > cfg.Max {
		target = cfg.Max
	}
	return target
}
