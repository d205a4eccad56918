package elastic

import (
	"math"

	"repro/internal/core"
	"repro/internal/obs"
)

// ModelError compares one live Load window against the MVA model's
// prediction for the same offered population and replica count — the
// live analogue of the paper's validation experiments (§5): how far
// off would the model have been if asked to predict the window we
// just measured?
type ModelError struct {
	Replicas int     `json:"replicas"`
	Clients  float64 `json:"clients"`

	PredictedTPS float64 `json:"predicted_tps"`
	ObservedTPS  float64 `json:"observed_tps"`
	// TPSError is the signed relative throughput residual
	// (predicted-observed)/observed; positive means the model is
	// optimistic.
	TPSError float64 `json:"tps_error"`

	PredictedLatency float64 `json:"predicted_latency_seconds"`
	ObservedLatency  float64 `json:"observed_latency_seconds"`
	LatencyError     float64 `json:"latency_error"`

	PredictedAbort float64 `json:"predicted_abort_rate"`
	ObservedAbort  float64 `json:"observed_abort_rate"`
}

// EvalModel grades the MVA model against one observed Load window on
// a cluster of `replicas` nodes, with the model inputs params — a
// Window passes the same Params its Controller decides from, so the
// residual reported here is the error of the model actually steering
// the cluster. ok=false when the window carries nothing to compare
// (no throughput, or no replica count).
func EvalModel(params core.Params, l Load, replicas int) (ModelError, bool) {
	if replicas < 1 || l.Throughput <= 0 || l.Clients <= 0 {
		return ModelError{}, false
	}
	pred := predictAt(params, l.Clients, replicas)
	me := ModelError{
		Replicas:         replicas,
		Clients:          l.Clients,
		PredictedTPS:     pred.Throughput,
		ObservedTPS:      l.Throughput,
		PredictedLatency: pred.ResponseTime,
		PredictedAbort:   pred.AbortRate,
		ObservedAbort:    l.AbortRate,
	}
	me.ObservedLatency = (l.MeanRead*l.ReadRate + l.MeanUpdate*l.UpdateRate) / l.Throughput
	me.TPSError = (me.PredictedTPS - me.ObservedTPS) / me.ObservedTPS
	if me.ObservedLatency > 0 {
		me.LatencyError = (me.PredictedLatency - me.ObservedLatency) / me.ObservedLatency
	}
	return me, true
}

// maxModelClients bounds the per-replica client population fed to the
// exact MVA recursion (cost is linear in it); a wild Little's-law
// estimate during a latency spike must not stall the control loop.
const maxModelClients = 4096

// predictAt solves the per-replica MVA model of §3.3.2 for an
// n-replica cluster serving `clients` closed-loop clients, split
// evenly across the replicas as the load balancer splits them.
func predictAt(params core.Params, clients float64, n int) core.Prediction {
	params.Mix.Clients = min(max(int(math.Ceil(clients/float64(n))), 1), maxModelClients)
	return core.PredictMM(params, n)
}

// Monitor exports a Window's model grade as gauges —
// `replicadb_model_*` on /metrics — so a cluster's residual can be
// watched whether or not the autoscaler is engaged.
type Monitor struct {
	predTPS, obsTPS, errTPS       *obs.Gauge
	predLat, obsLat, errLat       *obs.Gauge
	predAbort, obsAbort, replicas *obs.Gauge
}

// NewMonitor registers the model gauges on reg.
func NewMonitor(reg *obs.Registry) *Monitor {
	return &Monitor{
		predTPS: reg.Gauge("replicadb_model_predicted_tps",
			"MVA-predicted system throughput for the last observed window."),
		obsTPS: reg.Gauge("replicadb_model_observed_tps",
			"Observed system throughput over the last window."),
		errTPS: reg.Gauge("replicadb_model_tps_error",
			"Signed relative throughput residual (predicted-observed)/observed."),
		predLat: reg.Gauge("replicadb_model_predicted_latency_seconds",
			"MVA-predicted mean transaction response time."),
		obsLat: reg.Gauge("replicadb_model_observed_latency_seconds",
			"Observed mean transaction response time over the last window."),
		errLat: reg.Gauge("replicadb_model_latency_error",
			"Signed relative latency residual (predicted-observed)/observed."),
		predAbort: reg.Gauge("replicadb_model_predicted_abort_rate",
			"MVA-predicted abort probability."),
		obsAbort: reg.Gauge("replicadb_model_observed_abort_rate",
			"Observed abort fraction over the last window."),
		replicas: reg.Gauge("replicadb_model_replicas",
			"Replica count the model was evaluated at."),
	}
}

// Observe exports a tick's model grade; a tick without one leaves the
// gauges at the last grade.
func (m *Monitor) Observe(t Tick) {
	if !t.ModelOK {
		return
	}
	me := t.Model
	m.predTPS.Set(me.PredictedTPS)
	m.obsTPS.Set(me.ObservedTPS)
	m.errTPS.Set(me.TPSError)
	m.predLat.Set(me.PredictedLatency)
	m.obsLat.Set(me.ObservedLatency)
	m.errLat.Set(me.LatencyError)
	m.predAbort.Set(me.PredictedAbort)
	m.obsAbort.Set(me.ObservedAbort)
	m.replicas.Set(float64(me.Replicas))
}
