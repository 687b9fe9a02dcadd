package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. Add is a single
// atomic op; hold the pointer returned by Registry.Counter rather
// than re-resolving the name per event.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous value that can move both ways.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// DefaultLatencyBuckets are the upper bounds, in nanoseconds, used
// when a histogram is created with nil buckets: 1µs up to 10s in
// roughly-log-spaced steps.
var DefaultLatencyBuckets = []float64{
	1e3, 1e4, 1e5, 2.5e5, 5e5, 1e6, 2.5e6, 5e6, 1e7, 2.5e7, 5e7,
	1e8, 2.5e8, 5e8, 1e9, 2.5e9, 5e9, 1e10,
}

// Histogram counts observations into fixed buckets (cumulative at
// render time, like Prometheus). Observe is a few atomic ops and a
// short linear scan over the bounds; no locks.
type Histogram struct {
	bounds []float64 // sorted upper bounds; +Inf bucket is implicit
	counts []atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-added
	total  atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.total.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.total.Load() }

// Sum returns the running total of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Collector is a named callback that publishes point-in-time values
// from an existing stats struct into a snapshot. The emit function is
// only valid for the duration of the call.
type Collector func(emit func(name string, v float64))

// Registry is the process-wide metric namespace. Get-or-create
// lookups take a lock; the returned handles do not.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	hists      map[string]*Histogram
	collectors map[string]Collector
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		hists:      make(map[string]*Histogram),
		collectors: make(map[string]Collector),
	}
}

// Counter returns the counter registered under name, creating it on
// first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on
// first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it
// with the given bucket upper bounds (DefaultLatencyBuckets when nil)
// on first use. Bounds are fixed at creation; later callers get the
// existing histogram regardless of the bounds they pass.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		if bounds == nil {
			bounds = DefaultLatencyBuckets
		}
		b := make([]float64, len(bounds))
		copy(b, bounds)
		sort.Float64s(b)
		h = &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
		r.hists[name] = h
	}
	return h
}

// SetCollector registers (or replaces — restarts reuse names) the
// collector published under name.
func (r *Registry) SetCollector(name string, fn Collector) {
	r.mu.Lock()
	r.collectors[name] = fn
	r.mu.Unlock()
}

// DropCollector removes a collector; absent names are a no-op.
func (r *Registry) DropCollector(name string) {
	r.mu.Lock()
	delete(r.collectors, name)
	r.mu.Unlock()
}

// Collect runs the one collector registered under name and returns
// what it emits, keys unprefixed: the map a component multicasts as
// its status report, so the monitor's table and /metrics read one list.
func (r *Registry) Collect(name string) map[string]float64 {
	r.mu.RLock()
	fn := r.collectors[name]
	r.mu.RUnlock()
	out := make(map[string]float64)
	if fn != nil {
		fn(func(key string, v float64) { out[key] = v })
	}
	return out
}

// Snapshot folds every counter, gauge, collector emission, and
// histogram summary (<name>.count / <name>.sum) into one flat map.
func (r *Registry) Snapshot() map[string]float64 {
	r.mu.RLock()
	out := make(map[string]float64, len(r.counters)+len(r.gauges)+2*len(r.hists))
	for name, c := range r.counters {
		out[name] = float64(c.Value())
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	for name, h := range r.hists {
		out[name+".count"] = float64(h.Count())
		out[name+".sum"] = h.Sum()
	}
	colls := make(map[string]Collector, len(r.collectors))
	for name, fn := range r.collectors {
		colls[name] = fn
	}
	r.mu.RUnlock()
	// Collectors run outside the registry lock: they read foreign
	// stats structs that may themselves grab locks.
	for prefix, fn := range colls {
		fn(func(name string, v float64) {
			out[prefix+"."+name] = v
		})
	}
	return out
}

// promName converts a dotted metric name to a Prometheus-legal one:
// sns_fe_fe0_requests.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 4)
	b.WriteString("sns_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4). Histograms emit cumulative
// _bucket/_sum/_count series; collector values render as gauges.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.RLock()
	type hsnap struct {
		name   string
		bounds []float64
		counts []uint64
		sum    float64
		total  uint64
	}
	counters := make(map[string]uint64, len(r.counters))
	for name, c := range r.counters {
		counters[name] = c.Value()
	}
	gauges := make(map[string]float64, len(r.gauges))
	for name, g := range r.gauges {
		gauges[name] = g.Value()
	}
	hists := make([]hsnap, 0, len(r.hists))
	for name, h := range r.hists {
		hs := hsnap{name: name, bounds: h.bounds, counts: make([]uint64, len(h.counts)), sum: h.Sum(), total: h.Count()}
		for i := range h.counts {
			hs.counts[i] = h.counts[i].Load()
		}
		hists = append(hists, hs)
	}
	colls := make(map[string]Collector, len(r.collectors))
	for name, fn := range r.collectors {
		colls[name] = fn
	}
	r.mu.RUnlock()

	for prefix, fn := range colls {
		fn(func(name string, v float64) {
			gauges[prefix+"."+name] = v
		})
	}

	names := make([]string, 0, len(counters))
	for name := range counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pn := promName(name)
		fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", pn, pn, counters[name])
	}

	names = names[:0]
	for name := range gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pn := promName(name)
		fmt.Fprintf(w, "# TYPE %s gauge\n%s %g\n", pn, pn, gauges[name])
	}

	sort.Slice(hists, func(i, j int) bool { return hists[i].name < hists[j].name })
	for _, h := range hists {
		pn := promName(h.name)
		fmt.Fprintf(w, "# TYPE %s histogram\n", pn)
		cum := uint64(0)
		for i, bound := range h.bounds {
			cum += h.counts[i]
			fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", pn, bound, cum)
		}
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", pn, h.total)
		fmt.Fprintf(w, "%s_sum %g\n", pn, h.sum)
		fmt.Fprintf(w, "%s_count %d\n", pn, h.total)
	}
}
