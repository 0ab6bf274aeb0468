// Package telemetry is the repository's zero-dependency observability
// layer: a concurrency-safe metrics registry (counters, gauges,
// fixed-bucket histograms), lightweight span tracing with a Chrome
// trace_event export, and a Hooks seam that long-running components
// (the GA search, the capacity simulator, the workload manager, the
// planner) accept without forcing their callers to care.
//
// Design rules:
//
//   - stdlib only; go.mod stays dependency-free.
//   - The hot path is atomic: Counter.Inc, Gauge.Set and
//     Histogram.Observe never take a lock.
//   - Every handle type is nil-safe: methods on a nil *Counter, *Gauge,
//     *Histogram or *Span are no-ops, so the Nop hooks cost nothing but
//     an inlined nil check (<1 ns/op, see BenchmarkTelemetryOverhead).
//   - Handles are meant to be hoisted: fetch them once outside a loop
//     (h.Counter involves a registry map lookup), then Inc/Observe per
//     iteration.
package telemetry

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value of a
// non-nil Counter is ready to use; a nil Counter discards everything.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down, stored as float64 bits.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add accumulates d with a compare-and-swap loop.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets. Bucket i counts
// observations <= bounds[i]; the final implicit bucket counts the rest
// (+Inf). Observe is lock-free.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1
	sumBits atomic.Uint64
	count   atomic.Int64
	// sink, when set, receives every raw observation — the seam that
	// feeds SLO ring-buffer windows without a second emission site. The
	// pointer is atomic so it can be wired after handles were hoisted.
	sink atomic.Pointer[func(float64)]
}

// DurationBuckets are the default bounds for timing histograms, in
// seconds: 1µs to ~100s, roughly 4 per decade.
var DurationBuckets = []float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10, 25, 50, 100,
}

// RatioBuckets are the default bounds for metrics in [0,1], such as the
// resource access probability θ.
var RatioBuckets = []float64{
	0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9,
	0.95, 0.99, 0.999, 1,
}

// ExponentialBuckets returns count bounds starting at start, each factor
// times the previous.
func ExponentialBuckets(start, factor float64, count int) []float64 {
	out := make([]float64, count)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

func newHistogram(bounds []float64) *Histogram {
	bs := make([]float64, len(bounds))
	copy(bs, bounds)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Int64, len(bs)+1)}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	// Linear scan: bucket counts are small and the scan is branch-
	// predictable, which beats binary search at these sizes.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			break
		}
	}
	if fn := h.sink.Load(); fn != nil {
		(*fn)(v)
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Registry is a concurrency-safe collection of named metrics. Lookups
// take a mutex; the handles they return are lock-free, so callers hoist
// handles out of hot loops. Counters, gauges and histograms live in
// separate namespaces.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil (no-op) handle.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// OnObserve registers fn to receive every raw observation recorded into
// the named histogram (created with DurationBuckets if it does not
// exist yet). A nil fn detaches the sink. Components keep observing
// into the histogram as before; the sink is how a host (the planning
// service) mirrors e.g. per-scenario sim timings into its SLO windows.
func (r *Registry) OnObserve(name string, fn func(float64)) {
	if r == nil {
		return
	}
	h := r.Histogram(name, nil)
	if fn == nil {
		h.sink.Store(nil)
		return
	}
	h.sink.Store(&fn)
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use (nil bounds mean DurationBuckets). Later
// calls return the existing histogram regardless of bounds: the first
// registration wins.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		if bounds == nil {
			bounds = DurationBuckets
		}
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}
