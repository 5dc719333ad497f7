// Package metrics is a dependency-free instrumentation layer for the
// scoring service: atomic counters, gauges and fixed-bucket histograms,
// fanned out over label values (a gauge may also stand alone), collected
// in a Registry that renders the Prometheus text exposition format. The
// hot path is lock-cheap — incrementing an existing series is one atomic
// add (plus one RWMutex read-lock when the series is addressed through a
// labeled vector), so request handlers can record freely without
// serializing on the metrics layer.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing count. The zero value is ready to
// use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous value that can move both ways (in-flight
// requests, loaded models). The zero value is ready to use.
type Gauge struct {
	v atomic.Int64
}

// Inc adds one and returns the new value, so admission control can test
// the post-increment level and the gauge in one atomic step.
func (g *Gauge) Inc() int64 { return g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// FloatGauge is an instantaneous float64 value (windowed error means,
// drift baselines). The zero value is ready to use and reads as 0.
type FloatGauge struct {
	bits atomic.Uint64 // math.Float64bits of the value
}

// Set replaces the value.
func (g *FloatGauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *FloatGauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets. Buckets are upper
// bounds in ascending order; an implicit +Inf bucket catches the rest.
// Observe is lock-free: a binary search, two atomic adds and a CAS loop
// folding the value into a float64 sum stored as raw bits. Non-finite
// observations (NaN, ±Inf) are dropped entirely — one NaN would
// otherwise poison the exported sum forever.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Uint64 // len(bounds)+1, non-cumulative; last is +Inf
	count   atomic.Uint64
	sumBits atomic.Uint64 // math.Float64bits of the running sum
}

// DefBuckets spans 100µs to 10s — the useful range for request latency in
// seconds.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// NewHistogram builds a histogram over the given ascending upper bounds
// (nil selects DefBuckets).
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram bounds not ascending at %d: %v", i, bounds))
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value. Non-finite values are ignored: NaN has no
// meaningful bucket (SearchFloat64s would route it to +Inf) and
// converting it to an integer is implementation-defined, so recording it
// would corrupt both the overflow bucket and the sum.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	addFloat(&h.sumBits, v)
}

// addFloat folds v into a float64 accumulator stored as raw bits,
// retrying the CAS until no concurrent writer interleaves.
func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// metric is one family: a name, help text and the series under it.
type metric struct {
	name string
	help string
	typ  string // counter, gauge, histogram

	// Exactly one of the following is populated.
	gauge *Gauge

	labels []string // label keys of the vecs below
	cvec   *CounterVec
	gvec   *GaugeVec
	fgvec  *FloatGaugeVec
	hvec   *HistogramVec
}

// Registry holds metric families and renders them as Prometheus text.
// Registration is not safe for concurrent use (register at startup);
// recording and rendering are.
type Registry struct {
	families []*metric
	byName   map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]bool)}
}

func (r *Registry) add(m *metric) {
	if r.byName[m.name] {
		panic(fmt.Sprintf("metrics: duplicate metric %q", m.name))
	}
	r.byName[m.name] = true
	r.families = append(r.families, m)
}

// Gauge registers and returns an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.add(&metric{name: name, help: help, typ: "gauge", gauge: g})
	return g
}

// CounterVec registers a counter family fanned out over the given label
// keys.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	v := &CounterVec{newLabeled(len(labels), func() *Counter { return &Counter{} })}
	r.add(&metric{name: name, help: help, typ: "counter", labels: labels, cvec: v})
	return v
}

// GaugeVec registers a gauge family fanned out over the given label keys
// (per-replica readiness, breaker states).
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	v := &GaugeVec{newLabeled(len(labels), func() *Gauge { return &Gauge{} })}
	r.add(&metric{name: name, help: help, typ: "gauge", labels: labels, gvec: v})
	return v
}

// FloatGaugeVec registers a float-gauge family fanned out over the given
// label keys (per-model windowed error means, drift baselines).
func (r *Registry) FloatGaugeVec(name, help string, labels ...string) *FloatGaugeVec {
	v := &FloatGaugeVec{newLabeled(len(labels), func() *FloatGauge { return &FloatGauge{} })}
	r.add(&metric{name: name, help: help, typ: "gauge", labels: labels, fgvec: v})
	return v
}

// HistogramVec registers a histogram family fanned out over the given
// label keys (nil bounds selects DefBuckets).
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	v := &HistogramVec{newLabeled(len(labels), func() *Histogram { return NewHistogram(bounds) })}
	r.add(&metric{name: name, help: help, typ: "histogram", labels: labels, hvec: v})
	return v
}

// labeled is the series table behind every labeled vector: one series
// per distinct tuple of label values, keyed by the values joined with
// NUL.
type labeled[T any] struct {
	mu     sync.RWMutex
	width  int
	series map[string]*T
	create func() *T
}

func newLabeled[T any](width int, create func() *T) labeled[T] {
	return labeled[T]{width: width, series: make(map[string]*T), create: create}
}

// with returns the series for the given label values, creating it on
// first use. Finding an existing series takes a read lock and allocates
// nothing: the key is built in a stack buffer and looked up as
// series[string(key)], which Go does not copy. The key string is
// allocated only to create a series.
func (l *labeled[T]) with(values []string) *T {
	if len(values) != l.width {
		panic(fmt.Sprintf("metrics: %d label values for %d labels", len(values), l.width))
	}
	var buf [128]byte
	key := appendLabelKey(buf[:0], values)
	l.mu.RLock()
	t, ok := l.series[string(key)]
	l.mu.RUnlock()
	if ok {
		return t
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if t, ok = l.series[string(key)]; !ok {
		t = l.create()
		l.series[string(key)] = t
	}
	return t
}

// appendLabelKey appends the series key of values to buf: the values
// joined by NUL. NUL bytes inside a value are replaced with U+FFFD first,
// so a hostile value cannot forge another series' key or desynchronize
// the label rendering; the sanitized form is also what renderLabels
// emits.
func appendLabelKey(buf []byte, values []string) []byte {
	for i, v := range values {
		if i > 0 {
			buf = append(buf, 0)
		}
		for {
			before, after, nul := strings.Cut(v, "\x00")
			buf = append(buf, before...)
			if !nul {
				break
			}
			buf = append(buf, "\uFFFD"...)
			v = after
		}
	}
	return buf
}

// CounterVec is a counter family keyed by label values.
type CounterVec struct{ labeled[Counter] }

// With returns the counter for the given label values, creating it on
// first use.
func (v *CounterVec) With(values ...string) *Counter { return v.with(values) }

// GaugeVec is a gauge family keyed by label values.
type GaugeVec struct{ labeled[Gauge] }

// With returns the gauge for the given label values, creating it on first
// use.
func (v *GaugeVec) With(values ...string) *Gauge { return v.with(values) }

// FloatGaugeVec is a float-gauge family keyed by label values.
type FloatGaugeVec struct{ labeled[FloatGauge] }

// With returns the float gauge for the given label values, creating it on
// first use.
func (v *FloatGaugeVec) With(values ...string) *FloatGauge { return v.with(values) }

// HistogramVec is a histogram family keyed by label values.
type HistogramVec struct{ labeled[Histogram] }

// With returns the histogram for the given label values, creating it on
// first use.
func (v *HistogramVec) With(values ...string) *Histogram { return v.with(values) }

// WritePrometheus renders every family in the Prometheus text exposition
// format (version 0.0.4), series sorted by label values so output is
// deterministic for a given state.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	for _, m := range r.families {
		fmt.Fprintf(&b, "# HELP %s %s\n", m.name, m.help)
		fmt.Fprintf(&b, "# TYPE %s %s\n", m.name, m.typ)
		switch {
		case m.gauge != nil:
			fmt.Fprintf(&b, "%s %d\n", m.name, m.gauge.Value())
		case m.cvec != nil:
			m.cvec.mu.RLock()
			for _, k := range sortedKeys(m.cvec.series) {
				fmt.Fprintf(&b, "%s{%s} %d\n", m.name, renderLabels(m.labels, k), m.cvec.series[k].Value())
			}
			m.cvec.mu.RUnlock()
		case m.gvec != nil:
			m.gvec.mu.RLock()
			for _, k := range sortedKeys(m.gvec.series) {
				fmt.Fprintf(&b, "%s{%s} %d\n", m.name, renderLabels(m.labels, k), m.gvec.series[k].Value())
			}
			m.gvec.mu.RUnlock()
		case m.fgvec != nil:
			m.fgvec.mu.RLock()
			for _, k := range sortedKeys(m.fgvec.series) {
				fmt.Fprintf(&b, "%s{%s} %g\n", m.name, renderLabels(m.labels, k), m.fgvec.series[k].Value())
			}
			m.fgvec.mu.RUnlock()
		case m.hvec != nil:
			m.hvec.mu.RLock()
			for _, k := range sortedKeys(m.hvec.series) {
				writeHistogram(&b, m.name, renderLabels(m.labels, k), m.hvec.series[k])
			}
			m.hvec.mu.RUnlock()
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// renderLabels turns a series key back into `k1="v1",k2="v2"`.
func renderLabels(labels []string, key string) string {
	values := strings.Split(key, "\x00")
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = l + `="` + escapeLabel(values[i]) + `"`
	}
	return strings.Join(parts, ",")
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// writeHistogram renders one histogram series: cumulative buckets, sum and
// count. extraLabels is either empty or a rendered `k="v"` list.
func writeHistogram(b *strings.Builder, name, extraLabels string, h *Histogram) {
	cum := uint64(0)
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		writeBucket(b, name, extraLabels, strconv.FormatFloat(bound, 'g', -1, 64), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	writeBucket(b, name, extraLabels, "+Inf", cum)
	suffix := ""
	if extraLabels != "" {
		suffix = "{" + extraLabels + "}"
	}
	fmt.Fprintf(b, "%s_sum%s %g\n", name, suffix, h.Sum())
	fmt.Fprintf(b, "%s_count%s %d\n", name, suffix, h.Count())
}

func writeBucket(b *strings.Builder, name, extraLabels, le string, cum uint64) {
	if extraLabels != "" {
		fmt.Fprintf(b, "%s_bucket{%s,le=\"%s\"} %d\n", name, extraLabels, le, cum)
	} else {
		fmt.Fprintf(b, "%s_bucket{le=\"%s\"} %d\n", name, le, cum)
	}
}
