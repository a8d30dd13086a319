// Package obs is the dependency-free observability layer: a metrics
// registry (counters, gauges, fixed-bucket histograms) exported in
// Prometheus text exposition format, a structured JSON query log with a
// slow-query threshold, and the per-plan-node probe EXPLAIN ANALYZE
// collects actuals into. Every serving layer registers here —
// internal/server, internal/coord, internal/catalog and internal/store —
// and the tqserver/tqcoord -metrics-addr listeners scrape one shared
// Registry. The package imports only the standard library, so any layer
// may depend on it without widening the module's dependency surface.
package obs

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

// Label is one constant metric label (a {name="value"} pair in the
// exposition format). Labels are fixed at registration: the registry keys
// series by (metric name, label set), so two registrations with the same
// name and different labels are two series of one family.
type Label struct {
	Name  string
	Value string
}

// L is shorthand for building a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// metric is one registered series.
type metric struct {
	name   string // family name
	help   string
	typ    string // "counter", "gauge", "histogram"
	labels []Label

	counter *Counter
	gauge   *Gauge
	fn      func() float64 // CounterFunc/GaugeFunc callback
	hist    *Histogram
}

// seriesKey identifies a series within the registry.
func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = l.Name + "=" + l.Value
	}
	sort.Strings(parts)
	return name + "{" + strings.Join(parts, ",") + "}"
}

// Registry holds metric series and renders them for scraping. All methods
// are safe for concurrent use; registration is idempotent — registering a
// name+label set that already exists returns the existing collector, so
// layers sharing one registry (a server and the catalog it serves) never
// fight over family ownership.
type Registry struct {
	mu     sync.Mutex
	series map[string]*metric
	order  []string // registration order, for stable family grouping
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{series: make(map[string]*metric)}
}

// register adds m under its series key, returning the existing metric when
// the key is already taken (idempotent registration). A name reused with a
// different metric type is a programming error and panics: the exposition
// format forbids mixed-type families.
func (r *Registry) register(m *metric) *metric {
	key := seriesKey(m.name, m.labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.series[key]; ok {
		if old.typ != m.typ {
			panic(fmt.Sprintf("obs: metric %s re-registered as %s (was %s)", key, m.typ, old.typ))
		}
		return old
	}
	r.series[key] = m
	r.order = append(r.order, key)
	return m
}

// Counter is a monotonically increasing value.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative deltas are ignored (counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Counter registers (or returns the existing) counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	m := r.register(&metric{name: name, help: help, typ: "counter", labels: labels, counter: &Counter{}})
	return m.counter
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — the bridge for layers that already keep their own atomic
// counters (the disk store, the coordinator) and should not take a
// dependency on registry handles in their hot paths.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(&metric{name: name, help: help, typ: "counter", labels: labels, fn: fn})
}

// Gauge is a value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds n (which may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Gauge registers (or returns the existing) gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	m := r.register(&metric{name: name, help: help, typ: "gauge", labels: labels, gauge: &Gauge{}})
	return m.gauge
}

// GaugeFunc registers a gauge read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(&metric{name: name, help: help, typ: "gauge", labels: labels, fn: fn})
}

// Histogram is a fixed-bucket histogram: observation counts per upper
// bound plus a running sum and total count, rendered in the cumulative
// le-bucket form Prometheus expects. Buckets are fixed at registration;
// Observe is lock-free (atomic adds only), so request paths may observe
// from any number of goroutines while a scrape renders.
type Histogram struct {
	bounds []float64 // ascending upper bounds, +Inf implicit
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Find the first bucket whose upper bound contains v. Bucket counts
	// are stored per-bucket (not cumulative); rendering accumulates.
	i := sort.SearchFloat64s(h.bounds, v)
	if i < len(h.bounds) {
		h.counts[i].Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Quantile approximates the q-quantile (0 ≤ q ≤ 1) by linear
// interpolation within the bucket that holds it — the usual
// histogram_quantile estimate. It returns 0 with no observations; a
// quantile landing past the last finite bound reports that bound (the
// +Inf bucket has no width to interpolate in).
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var seen int64
	for i, b := range h.bounds {
		c := h.counts[i].Load()
		if float64(seen)+float64(c) >= rank {
			lower := 0.0
			if i > 0 {
				lower = h.bounds[i-1]
			}
			if c == 0 {
				return b
			}
			frac := (rank - float64(seen)) / float64(c)
			if frac < 0 {
				frac = 0
			} else if frac > 1 {
				frac = 1
			}
			return lower + (b-lower)*frac
		}
		seen += c
	}
	if len(h.bounds) == 0 {
		return 0
	}
	return h.bounds[len(h.bounds)-1]
}

// Snapshot is a point-in-time histogram summary, the shape the server's
// stats reply carries (scrape-free consumers like tqshell \stats).
type Snapshot struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// Snapshot summarizes the histogram.
func (h *Histogram) Snapshot() Snapshot {
	return Snapshot{
		Count: h.Count(),
		Sum:   h.Sum(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
}

// LatencyBuckets is the default bound set for latency histograms, in
// seconds: 100µs to ~80s doubling, a range that covers a warm cached plan
// through a cold 1M-row spill run.
func LatencyBuckets() []float64 {
	out := make([]float64, 0, 20)
	for b := 0.0001; b < 100; b *= 2 {
		out = append(out, b)
	}
	return out
}

// SizeBuckets is the default bound set for row counts and byte sizes:
// powers of four from 1 to ~10^9.
func SizeBuckets() []float64 {
	out := make([]float64, 0, 16)
	for b := 1.0; b < 2e9; b *= 4 {
		out = append(out, b)
	}
	return out
}

// Histogram registers (or returns the existing) histogram series with the
// given ascending bucket upper bounds (+Inf is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %s bounds not ascending at %d", name, i))
		}
	}
	h := &Histogram{bounds: append([]float64(nil), bounds...)}
	h.counts = make([]atomic.Int64, len(h.bounds))
	m := r.register(&metric{name: name, help: help, typ: "histogram", labels: labels, hist: h})
	return m.hist
}

// WritePrometheus renders every registered series in the Prometheus text
// exposition format (version 0.0.4): one # HELP and # TYPE line per
// family, then each series' samples. Families render in first-registration
// order with their series grouped, so scrapes are stable and diffable.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	keys := append([]string(nil), r.order...)
	series := make([]*metric, len(keys))
	for i, k := range keys {
		series[i] = r.series[k]
	}
	r.mu.Unlock()

	// Group series by family, preserving registration order.
	byFamily := make(map[string][]*metric)
	var families []string
	for _, m := range series {
		if _, ok := byFamily[m.name]; !ok {
			families = append(families, m.name)
		}
		byFamily[m.name] = append(byFamily[m.name], m)
	}

	var b strings.Builder
	for _, fam := range families {
		ms := byFamily[fam]
		fmt.Fprintf(&b, "# HELP %s %s\n", fam, escapeHelp(ms[0].help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", fam, ms[0].typ)
		for _, m := range ms {
			switch {
			case m.hist != nil:
				writeHistogram(&b, m)
			case m.fn != nil:
				fmt.Fprintf(&b, "%s %s\n", sampleName(m.name, m.labels), formatFloat(m.fn()))
			case m.counter != nil:
				fmt.Fprintf(&b, "%s %d\n", sampleName(m.name, m.labels), m.counter.Value())
			case m.gauge != nil:
				fmt.Fprintf(&b, "%s %d\n", sampleName(m.name, m.labels), m.gauge.Value())
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeHistogram renders one histogram series: cumulative le buckets, the
// implicit +Inf bucket, then _sum and _count.
func writeHistogram(b *strings.Builder, m *metric) {
	h := m.hist
	var cum int64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s %d\n", sampleName(m.name+"_bucket", append(append([]Label(nil), m.labels...), L("le", formatFloat(bound)))), cum)
	}
	fmt.Fprintf(b, "%s %d\n", sampleName(m.name+"_bucket", append(append([]Label(nil), m.labels...), L("le", "+Inf"))), h.Count())
	fmt.Fprintf(b, "%s %s\n", sampleName(m.name+"_sum", m.labels), formatFloat(h.Sum()))
	fmt.Fprintf(b, "%s %d\n", sampleName(m.name+"_count", m.labels), h.Count())
}

// sampleName renders name{l1="v1",...} with label values escaped.
func sampleName(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = l.Name + `="` + escapeLabel(l.Value) + `"`
	}
	return name + "{" + strings.Join(parts, ",") + "}"
}

// formatFloat renders a float the way the exposition format expects.
func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
