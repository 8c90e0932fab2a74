// Package telemetry is the zero-dependency observability layer of the
// study pipeline: an atomic metrics registry (counters, gauges,
// fixed-bucket histograms), a span tree for stage timing, and an
// expvar / pprof HTTP surface. internal/runlog turns a run's spans and
// metrics into its run record.
//
// # Determinism contract
//
// Telemetry observes the pipeline; it never participates in it. Nothing
// in this package draws randomness, alters shard boundaries, or feeds
// values back into the computation, so a run produces bit-identical
// output with telemetry on, off, or partially attached
// (internal/core.TestGoldenParallelDeterminism pins this). Every handle
// is nil-safe: a nil *Registry, *Recorder, *Span, *Counter, *Gauge,
// *Histogram, or *LatencyHist accepts the full method set as a no-op,
// which is what lets instrumentation points stay unconditional in the
// hot paths without an "enabled" flag.
//
// # Metric naming
//
// Names are dot-separated, lower-case, subsystem-first:
//
//	pipeline.respondents     counter  generation progress (see Instrumentation)
//	parallel.foreach_calls   counter  fan-out invocations
//	parallel.items           counter  indices executed by ForEach
//	parallel.busy_ns         counter  summed worker busy time
//	parallel.shards          counter  fixed-width shards dispatched
//	parallel.pool_tasks      counter  Pool tasks executed
//	parallel.pool_busy_ns    counter  summed Pool task time
//	fp.ops                   counter  observed softfloat operations
//	fp.exceptions.<cond>     counter  per-condition FP exception events
//	latency.<stage>          latency  per-operation durations (LatencyHist)
//
// The whole registry is exported as one expvar variable (conventionally
// "fpstudy") whose JSON value is the Snapshot.
package telemetry

import (
	"expvar"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic int64 metric. The nil
// Counter accepts Add/Inc/Value as a no-op, so call sites never branch.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (no-op on nil).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one (no-op on nil).
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic float64 metric holding a last-written value.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v (no-op on nil).
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the last stored value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram: values are counted into the
// first bucket whose upper bound is >= the observation, with an
// implicit +Inf overflow bucket. Bucket bounds are fixed at creation,
// so concurrent Observe calls are single atomic increments.
type Histogram struct {
	bounds  []float64 // sorted upper bounds; len(counts) == len(bounds)+1
	counts  []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
}

// newHistogram builds a histogram with the given sorted upper bounds.
func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value (no-op on nil).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// BucketCount is one histogram bucket in a snapshot: the count of
// observations <= UpperBound (not cumulative). The overflow bucket has
// UpperBound +Inf, rendered as null in JSON by encoding/json — the
// snapshot stores it as the string "+Inf" instead for portability.
type BucketCount struct {
	UpperBound string `json:"le"`
	Count      int64  `json:"count"`
}

// HistogramSnapshot is the JSON-ready view of a histogram.
type HistogramSnapshot struct {
	Count   int64         `json:"count"`
	Sum     float64       `json:"sum"`
	Buckets []BucketCount `json:"buckets"`
}

// Snapshot reads a consistent-enough view of the histogram: each
// bucket is read atomically and Count is the sum of those same reads,
// so a snapshot's buckets always sum to its count even with concurrent
// writers. Sum is read separately and may trail the buckets by a few
// in-flight observations, which is acceptable for monitoring.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{Sum: h.Sum()}
	for i := range h.counts {
		ub := "+Inf"
		if i < len(h.bounds) {
			ub = formatBound(h.bounds[i])
		}
		c := h.counts[i].Load()
		s.Count += c
		s.Buckets = append(s.Buckets, BucketCount{UpperBound: ub, Count: c})
	}
	return s
}

// Registry is a named collection of metrics. Metric constructors are
// idempotent (the same name returns the same metric), so any package
// can look up a shared counter by name without coordination. All
// methods are safe for concurrent use, and safe on the nil Registry
// (constructors return nil metrics, which are themselves no-ops).
type Registry struct {
	mu     sync.Mutex
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
	lats   map[string]*LatencyHist
}

// NewRegistry creates an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: map[string]*Counter{},
		gauges: map[string]*Gauge{},
		hists:  map[string]*Histogram{},
		lats:   map[string]*LatencyHist{},
	}
}

// Counter returns the counter with the given name, creating it on first
// use. Returns nil (a no-op counter) on the nil Registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counts[name]
	if !ok {
		c = &Counter{}
		r.counts[name] = c
	}
	return c
}

// Gauge returns the gauge with the given name, creating it on first
// use. Returns nil on the nil Registry.
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

// Histogram returns the fixed-bucket histogram with the given name,
// creating it with the supplied upper bounds on first use (bounds are
// ignored on later lookups). Returns nil on the nil Registry.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Latency returns the log-linear latency histogram with the given
// name, creating it on first use. Returns nil (a no-op histogram) on
// the nil Registry.
func (r *Registry) Latency(name string) *LatencyHist {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	l, ok := r.lats[name]
	if !ok {
		l = newLatencyHist()
		r.lats[name] = l
	}
	return l
}

// Snapshot is the JSON-marshalable state of a registry at one moment.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Latencies  map[string]LatencySnapshot   `json:"latencies,omitempty"`
}

// Snapshot captures every metric's current value. The snapshot is
// internally consistent per metric (atomic reads); it does not freeze
// the registry as a whole, which monitoring does not need.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counts))
	for k, v := range r.counts {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	lats := make(map[string]*LatencyHist, len(r.lats))
	for k, v := range r.lats {
		lats[k] = v
	}
	r.mu.Unlock()

	s := Snapshot{}
	if len(counters) > 0 {
		s.Counters = make(map[string]int64, len(counters))
		for k, v := range counters {
			s.Counters[k] = v.Value()
		}
	}
	if len(gauges) > 0 {
		s.Gauges = make(map[string]float64, len(gauges))
		for k, v := range gauges {
			s.Gauges[k] = v.Value()
		}
	}
	if len(hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(hists))
		for k, v := range hists {
			s.Histograms[k] = v.Snapshot()
		}
	}
	if len(lats) > 0 {
		s.Latencies = make(map[string]LatencySnapshot, len(lats))
		for k, v := range lats {
			s.Latencies[k] = v.Snapshot()
		}
	}
	return s
}

// publishMu serializes expvar publication (expvar.Publish panics on a
// duplicate name, and Get+Publish is not atomic on its own).
var publishMu sync.Mutex

// publish registers fn as the expvar variable name, once; later calls
// with the same name are ignored (last registration wins inside one
// process is deliberately NOT supported — the first owner keeps it).
func publish(name string, fn expvar.Func) {
	publishMu.Lock()
	defer publishMu.Unlock()
	if expvar.Get(name) == nil {
		expvar.Publish(name, fn)
	}
}

// PublishExpvar exposes the registry under the given expvar variable
// name (conventionally "fpstudy"); /debug/vars then serves the live
// Snapshot, and /metrics serves the same registry in Prometheus text
// format with the name as metric prefix. Publishing the same name
// twice is a no-op, so init order does not matter. No-op on the nil
// Registry.
func (r *Registry) PublishExpvar(name string) {
	if r == nil {
		return
	}
	publish(name, func() any { return r.Snapshot() })
	promPublish(name, r)
}
