// Package obs is the repo's metrics registry: the one place every
// package registers counters, gauges and histograms, and the one
// place that knows how to render them in the Prometheus text
// exposition format (text/plain; version=0.0.4).
//
// The registry is deliberately small: it imports the standard library
// and internal/stats, itself a leaf, and nothing else. Instruments
// are lock-free on the hot path (atomics), registration takes a lock,
// and exposition walks the registered families in sorted name order so
// scrapes are stable. Every histogram is a stats.Latency, rendered at
// scrape time under one fixed set of bucket bounds, so per-node
// families fold into a cluster-wide view by summing their exposition
// (RegistrySnapshot.Merge).
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/stats"
)

// Label is one constant key=value pair attached to an instrument.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for a single label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// renderLabels turns labels into the `{k="v",...}` exposition suffix,
// or "" with no labels. Order is preserved as given.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// mergeLabels appends extra labels inside an already-rendered label
// set: mergeLabels(`{stage="ack"}`, `le="0.1"`) → `{stage="ack",le="0.1"}`.
func mergeLabels(rendered, extra string) string {
	if rendered == "" {
		return "{" + extra + "}"
	}
	return rendered[:len(rendered)-1] + "," + extra + "}"
}

// Sample is one exposition line: a fully suffixed series name (e.g.
// "x_bucket"), a rendered label set, and a value.
type Sample struct {
	Suffix string // appended to the family name ("" for the plain series)
	Labels string // rendered label set, "" or `{k="v",...}`
	Value  float64
}

// collector produces the current samples for one instrument.
type collector interface {
	collect() []Sample
}

// family groups every instrument registered under one metric name; the
// exposition emits one HELP/TYPE header per family.
type family struct {
	name string
	help string
	typ  string
	mu   sync.Mutex
	cols []collector
	seen map[string]bool // rendered label sets, to reject duplicates
}

// Registry holds registered instruments and renders them.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register attaches a collector to the named family, creating it on
// first use. Conflicting types or duplicate label sets panic: both are
// programming errors and would corrupt the exposition.
func (r *Registry) register(name, help, typ, labels string, c collector) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, seen: make(map[string]bool)}
		r.families[name] = f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as both %s and %s", name, f.typ, typ))
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.seen[labels] {
		panic(fmt.Sprintf("obs: duplicate registration of %s%s", name, labels))
	}
	f.seen[labels] = true
	f.cols = append(f.cols, c)
}

// Counter is a monotonically increasing integer counter.
type Counter struct {
	labels string
	v      atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for the exposition to stay monotone).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) collect() []Sample {
	return []Sample{{Labels: c.labels, Value: float64(c.v.Load())}}
}

// Counter registers and returns a counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	c := &Counter{labels: renderLabels(labels)}
	r.register(name, help, "counter", c.labels, c)
	return c
}

// Gauge is a settable float value.
type Gauge struct {
	labels string
	bits   atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) collect() []Sample {
	return []Sample{{Labels: g.labels, Value: g.Value()}}
}

// Gauge registers and returns a gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	g := &Gauge{labels: renderLabels(labels)}
	r.register(name, help, "gauge", g.labels, g)
	return g
}

// gaugeFunc samples a callback at scrape time.
type gaugeFunc struct {
	labels string
	f      func() float64
}

func (g *gaugeFunc) collect() []Sample {
	return []Sample{{Labels: g.labels, Value: g.f()}}
}

// GaugeFunc registers a gauge whose value is read from f at scrape
// time — the natural fit for values some other structure already
// tracks (applied version, queue depth, membership size).
func (r *Registry) GaugeFunc(name, help string, f func() float64, labels ...Label) {
	g := &gaugeFunc{labels: renderLabels(labels), f: f}
	r.register(name, help, "gauge", g.labels, g)
}

// funcCollector adapts a sample-producing callback into a family —
// the escape hatch for series computed at scrape time from external
// state (e.g. a membership view that may be unavailable).
type funcCollector struct{ f func() []Sample }

func (c funcCollector) collect() []Sample { return c.f() }

// CollectFunc registers a callback that produces fully formed samples
// for the named family at scrape time. typ is the exposition TYPE
// ("counter", "gauge", "histogram", "summary", "untyped"). The labels
// argument only guards against duplicate registration; the callback is
// responsible for rendering label sets on its samples.
func (r *Registry) CollectFunc(name, help, typ string, f func() []Sample, labels ...Label) {
	r.register(name, help, typ, renderLabels(labels), funcCollector{f})
}

// The registry's histogram bucket bounds: 20 upper edges doubling from
// 25µs to ~13s, a range that spans a cached in-memory certify (~µs)
// through a multi-second fsync stall. bucketLE holds their exposition
// values with "+Inf" last; bucketNs holds the same edges in
// nanoseconds with math.MaxInt64 last, so the final cumulative count
// is every observation.
var bucketLE, bucketNs = defBuckets()

func defBuckets() (le []string, ns []int64) {
	v := 25e-6
	for range 20 {
		le = append(le, formatFloat(v))
		ns = append(ns, int64(math.Round(v*1e9)))
		v *= 2
	}
	return append(le, "+Inf"), append(ns, math.MaxInt64)
}

// latencyHistogram renders a stats.Latency as one histogram series.
type latencyHistogram struct {
	l      *stats.Latency
	labels string
	les    []string // the series' label set with each bucket's le added
}

// LatencyHistogram registers l as a histogram series under the
// registry's bucket bounds, in seconds. l keeps its own precision:
// an observation within 1/64 of a bound may count in the bucket on
// the other side of it.
func (r *Registry) LatencyHistogram(name, help string, l *stats.Latency, labels ...Label) {
	h := &latencyHistogram{l: l, labels: renderLabels(labels)}
	for _, le := range bucketLE {
		h.les = append(h.les, mergeLabels(h.labels, `le="`+le+`"`))
	}
	r.register(name, help, "histogram", h.labels, h)
}

func (h *latencyHistogram) collect() []Sample {
	cum := h.l.Cumulative(bucketNs)
	out := make([]Sample, 0, len(cum)+2)
	for i, c := range cum {
		out = append(out, Sample{Suffix: "_bucket", Labels: h.les[i], Value: float64(c)})
	}
	return append(out,
		Sample{Suffix: "_sum", Labels: h.labels, Value: float64(h.l.Sum()) / 1e9},
		Sample{Suffix: "_count", Labels: h.labels, Value: float64(cum[len(cum)-1])},
	)
}

// summaryQuantiles are the quantiles a latency summary reports.
var summaryQuantiles = [...]float64{0.5, 0.95, 0.99}

// latencySummary renders a stats.Latency as one summary series.
type latencySummary struct {
	l      *stats.Latency
	labels string
	qs     [len(summaryQuantiles)]string // the label set with each quantile added
}

// LatencySummary registers l as a summary series (p50, p95 and p99 in
// seconds, with _sum and _count).
func (r *Registry) LatencySummary(name, help string, l *stats.Latency, labels ...Label) {
	s := &latencySummary{l: l, labels: renderLabels(labels)}
	for i, q := range summaryQuantiles {
		s.qs[i] = mergeLabels(s.labels, `quantile="`+formatFloat(q)+`"`)
	}
	r.register(name, help, "summary", s.labels, s)
}

func (s *latencySummary) collect() []Sample {
	out := make([]Sample, 0, len(summaryQuantiles)+2)
	for i, q := range summaryQuantiles {
		out = append(out, Sample{Labels: s.qs[i], Value: s.l.Quantile(q).Seconds()})
	}
	return append(out,
		Sample{Suffix: "_sum", Labels: s.labels, Value: float64(s.l.Sum()) / 1e9},
		Sample{Suffix: "_count", Labels: s.labels, Value: float64(s.l.Count())},
	)
}

// formatFloat renders a float the way the exposition format expects:
// shortest representation that round-trips.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteText renders every registered family in the Prometheus text
// exposition format, families sorted by name.
func (r *Registry) WriteText(w io.Writer) {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	r.mu.Unlock()
	for _, f := range fams {
		f.mu.Lock()
		cols := make([]collector, len(f.cols))
		copy(cols, f.cols)
		f.mu.Unlock()
		if f.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
		for _, c := range cols {
			for _, s := range c.collect() {
				fmt.Fprintf(w, "%s%s%s %s\n", f.name, s.Suffix, s.Labels, formatFloat(s.Value))
			}
		}
	}
}

// Handler serves the exposition over HTTP.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		r.WriteText(w)
	})
}
