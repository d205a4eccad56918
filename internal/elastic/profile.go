package elastic

import (
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// Stage indexes into Sample.StageCounts and Load.StageMeans. They
// mirror pipeline.Stage* and are kept literal so the model layer does
// not depend on the replication pipeline.
const (
	stageCertify = 0
	stagePaxos   = 1
	stageJournal = 2
	stageFsync   = 3
	stageApply   = 4
	stageAck     = 5
)

// Sample is a cumulative snapshot of cluster-wide serving counters,
// summed over every current member: per-class commit counts, summed
// client-visible latencies, and certification aborts. Counters only
// grow on a fixed membership; the profiler differences successive
// samples into a windowed live profile and discards windows broken by
// membership churn (a departed replica's counters vanish from the
// sum).
type Sample struct {
	When          time.Time
	ReadCommits   int64
	UpdateCommits int64
	Aborts        int64
	ReadNs        int64
	UpdateNs      int64
	// Members is the number of replicas the counters were summed over
	// — the N the model residual exporter evaluates PredictMM at.
	Members int
	// StageCounts / StageNs are the cluster-summed commit-path stage
	// breakdown (pipeline.Stage* order: certify, paxos, journal,
	// fsync, apply, ack). Zero everywhere when tracing is disabled.
	StageCounts [6]int64
	StageNs     [6]int64
	// Cohort identifies the member set the counters were summed over
	// (e.g. the sorted polled addresses). Two samples are only
	// comparable within one cohort: a member missing from the sum —
	// departed, or just a dropped Stats poll — would otherwise first
	// look like a regression and then, once it answers again, credit
	// its whole cumulative history to a single window.
	Cohort string
}

// Load is the windowed live workload profile the controller feeds to
// the MVA model: measured rates, per-class mean latencies, the live
// abort fraction, and a Little's-law estimate of the offered
// closed-loop client population.
type Load struct {
	Interval   time.Duration
	Throughput float64 // total commits/second
	ReadRate   float64
	UpdateRate float64
	MeanRead   float64 // seconds
	MeanUpdate float64 // seconds
	AbortRate  float64 // aborts / (aborts + update commits)
	// Clients estimates the concurrent closed-loop population N from
	// Little's law, N = X·(R+Z): the live analogue of the per-replica
	// client count C the paper's model takes as given (§3.2).
	Clients float64
	// Members is the replica count the window's counters covered.
	Members int
	// StageMeans holds the windowed mean per-writeset latency of each
	// commit-path stage in seconds (pipeline.Stage* order); zero for
	// stages with no observations this window (or tracing disabled).
	StageMeans [6]float64
}

// Profiler turns cumulative samples into Load windows and MVA model
// parameters. The service demands rc, wc, ws come from a standalone
// calibration profile (§4.1.1, e.g. internal/profiler output or the
// workload tables) — the paper's premise is that demands are
// workload properties measurable without the replicated system —
// while everything the live system can observe about itself (mix
// fractions, abort rate, conflict window L1, offered population) is
// refreshed from the samples.
type Profiler struct {
	mu    sync.Mutex
	base  workload.Mix
	think float64
	have  bool
	prev  Sample
}

// NewProfiler creates a profiler over a standalone-calibrated base
// mix. think is the live clients' think time in seconds; 0 means they
// do not think (as `replicadb bench` clients do). The mix's own think
// time describes the benchmark's emulated browsers, not the live
// clients, and is not used.
func NewProfiler(base workload.Mix, think float64) *Profiler {
	return &Profiler{base: base, think: think}
}

// Observe folds in one cumulative sample. It returns the Load over
// the window since the previous sample, or ok=false when there is no
// usable window yet: the first sample, a zero-length interval, a
// cohort change (membership churn or a dropped per-member poll), or
// a counter that moved backwards. Unusable windows are discarded and
// the baseline reset.
func (p *Profiler) Observe(s Sample) (Load, bool) {
	p.mu.Lock()
	prev, had := p.prev, p.have
	p.prev, p.have = s, true
	p.mu.Unlock()
	if !had || s.Cohort != prev.Cohort {
		return Load{}, false
	}
	dt := s.When.Sub(prev.When)
	dRead := s.ReadCommits - prev.ReadCommits
	dUpdate := s.UpdateCommits - prev.UpdateCommits
	dAborts := s.Aborts - prev.Aborts
	dReadNs := s.ReadNs - prev.ReadNs
	dUpdateNs := s.UpdateNs - prev.UpdateNs
	if dt <= 0 || dRead < 0 || dUpdate < 0 || dAborts < 0 || dReadNs < 0 || dUpdateNs < 0 {
		return Load{}, false
	}
	l := Load{
		Interval:   dt,
		ReadRate:   float64(dRead) / dt.Seconds(),
		UpdateRate: float64(dUpdate) / dt.Seconds(),
	}
	l.Throughput = l.ReadRate + l.UpdateRate
	if dRead > 0 {
		l.MeanRead = float64(dReadNs) / float64(dRead) / 1e9
	}
	if dUpdate > 0 {
		l.MeanUpdate = float64(dUpdateNs) / float64(dUpdate) / 1e9
	}
	if dAborts+dUpdate > 0 {
		l.AbortRate = float64(dAborts) / float64(dAborts+dUpdate)
	}
	// Little's law over the closed loop: each client cycles through
	// one transaction (mean response R, weighted by class) plus think.
	if l.Throughput > 0 {
		r := (l.MeanRead*l.ReadRate + l.MeanUpdate*l.UpdateRate) / l.Throughput
		l.Clients = l.Throughput * (r + p.think)
	}
	l.Members = s.Members
	// Stage means are advisory: a stage counter moving backwards (a
	// restarted replica inside an otherwise stable cohort) zeroes that
	// stage rather than discarding the whole window.
	for i := range l.StageMeans {
		dc := s.StageCounts[i] - prev.StageCounts[i]
		dns := s.StageNs[i] - prev.StageNs[i]
		if dc > 0 && dns >= 0 {
			l.StageMeans[i] = float64(dns) / float64(dc) / 1e9
		}
	}
	return l, true
}

// maxAbort caps the live abort estimate fed to the model: the MVA
// retry inflation 1/(1-A) diverges as A approaches 1, and a transient
// measurement artifact must not be able to demand infinite capacity.
const maxAbort = 0.5

// Params builds the multi-master model inputs (§3.3.2) for a Load:
// base demands with the live mix fractions, live abort probability
// and live conflict window. Mix.Clients is left at the base value —
// the controller overrides it per candidate replica count.
func (p *Profiler) Params(l Load) core.Params {
	p.mu.Lock()
	mix := p.base
	p.mu.Unlock()
	mix.Think = p.think
	if l.Throughput > 0 {
		mix.Pr = l.ReadRate / l.Throughput
		mix.Pw = 1 - mix.Pr
	}
	if mix.Pw > 0 && l.AbortRate > 0 {
		a := l.AbortRate
		if a > maxAbort {
			a = maxAbort
		}
		mix.A1 = a
	}
	params := core.Params{
		Mix:       mix,
		L1:        l.MeanUpdate,
		LBDelay:   core.DefaultLBDelay,
		CertDelay: core.DefaultCertDelay,
	}
	if params.L1 == 0 && mix.Pw > 0 {
		params.L1 = core.EstimateL1(params)
	}
	return params
}

// Demands carries per-class service demand measurements for
// recalibration. Zero-valued resource entries mean "no measurement":
// Recalibrate leaves the corresponding calibrated demand untouched.
type Demands struct {
	RC workload.Demand // read-only transaction demand
	WC workload.Demand // update transaction demand
	WS workload.Demand // propagated writeset demand
}

// demandEWMA is the weight of the newest live measurement when folding
// into the calibrated base demands. Live windows are noisy (they
// include queueing, and short windows carry few transactions), so the
// calibrated profile dominates and live data corrects it gradually.
const demandEWMA = 0.3

// LiveDemands derives approximate per-class service demands from one
// observed window, using the commit-path stage breakdown exported by
// the servers' tracers. The derivation follows the paper's resource
// mapping (§4.1.1): certification, apply, and ack burn replica CPU,
// while the journal append and fsync are the disk visit. Read-only
// transactions never enter the commit path, so their whole measured
// latency is charged to CPU — an upper bound that includes queueing
// and therefore tightens as the system idles. ok=false when the
// window carries no usable stage data (tracing disabled, or an idle
// window).
func LiveDemands(l Load) (Demands, bool) {
	var d Demands
	ok := false
	if l.MeanRead > 0 {
		d.RC[workload.CPU] = l.MeanRead
		ok = true
	}
	wsCPU := l.StageMeans[stageApply]
	wsDisk := l.StageMeans[stageJournal] + l.StageMeans[stageFsync]
	if wsCPU > 0 || wsDisk > 0 {
		d.WS[workload.CPU] = wsCPU
		d.WS[workload.Disk] = wsDisk
		ok = true
	}
	wcCPU := l.StageMeans[stageCertify] + l.StageMeans[stagePaxos] +
		l.StageMeans[stageApply] + l.StageMeans[stageAck]
	if wcCPU > 0 || wsDisk > 0 {
		d.WC[workload.CPU] = wcCPU
		d.WC[workload.Disk] = wsDisk
		ok = true
	}
	return d, ok
}

// Recalibrate folds live-measured service demands into the calibrated
// base profile through an EWMA, so the MVA model a Window grades and
// steers with runs against demands the real server exhibited rather
// than the standalone calibration alone. Zero-valued entries leave the
// calibrated value untouched.
func (p *Profiler) Recalibrate(d Demands) {
	p.mu.Lock()
	defer p.mu.Unlock()
	fold := func(base *workload.Demand, live workload.Demand) {
		for r := range live {
			if live[r] > 0 {
				base[r] = (1-demandEWMA)*base[r] + demandEWMA*live[r]
			}
		}
	}
	fold(&p.base.RC, d.RC)
	fold(&p.base.WC, d.WC)
	fold(&p.base.WS, d.WS)
}
