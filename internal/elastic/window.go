package elastic

import (
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// Source supplies cumulative serving counters for the whole cluster:
// their sum and the per-replica rows it was summed from (nil when the
// source has none).
type Source interface {
	Sample() (Sample, []Row, error)
}

// FuncSource adapts a function to Source; it reports no rows.
type FuncSource func() (Sample, error)

// Sample implements Source.
func (f FuncSource) Sample() (Sample, []Row, error) {
	s, err := f()
	return s, nil, err
}

// Window is the live-model loop over one cluster: each Step takes one
// sample from its Source, folds it into the window since the previous
// sample with its one Profiler, and grades the MVA model on that
// window. `replicadb status` renders its ticks, a Monitor exports them
// as gauges and a Controller steers by them, so the residual an
// operator reads grades the very parameters the autoscaler steers
// with. A Window is not safe for concurrent Steps.
type Window struct {
	src   Source
	prof  *Profiler
	recal bool
}

// NewWindow builds a window over src whose model takes its service
// demands from the standalone-calibrated base mix. think is the live
// clients' think time in seconds (0: they do not think). recalibrate
// folds each usable window's stage-derived demands into the profile
// (EWMA) before the model is evaluated, so the model is graded and
// steers with demands the real servers exhibit.
func NewWindow(src Source, base workload.Mix, think float64, recalibrate bool) *Window {
	return &Window{src: src, prof: NewProfiler(base, think), recal: recalibrate}
}

// Tick is what one Step saw.
type Tick struct {
	// Rows are the per-replica answers the sample was summed from
	// (nil from a source that has none, such as a FuncSource).
	Rows   []Row
	Sample Sample
	// OK reports that the sample closed a usable window; Load and
	// Params describe it.
	OK     bool
	Load   Load
	Params core.Params
	// Model grades the model on the window at its member count, when
	// ModelOK (the window carried throughput to compare).
	Model   ModelError
	ModelOK bool
}

// Step samples the cluster once and evaluates the window the sample
// closes. On a source error the tick carries the source's rows only.
func (w *Window) Step() (Tick, error) {
	s, rows, err := w.src.Sample()
	t := Tick{Rows: rows}
	if err != nil {
		return t, err
	}
	t.Sample = s
	load, ok := w.prof.Observe(s)
	if !ok {
		return t, nil
	}
	if w.recal {
		if d, ok := LiveDemands(load); ok {
			w.prof.Recalibrate(d)
		}
	}
	t.OK, t.Load, t.Params = true, load, w.prof.Params(load)
	t.Model, t.ModelOK = EvalModel(t.Params, load, load.Members)
	return t, nil
}

// Run steps the window every interval until stop closes and hands each
// sampled tick to every consumer in order.
func (w *Window) Run(interval time.Duration, stop <-chan struct{}, consumers ...func(Tick)) {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			t, err := w.Step()
			if err != nil {
				continue
			}
			for _, consume := range consumers {
				consume(t)
			}
		}
	}
}
