// Package telemetry is BlockPilot's dependency-free observability core: an
// atomic metrics registry (counters, gauges, lock-free sharded latency
// histograms with exponential buckets), a value-type histogram timer, and
// the pieces the sibling observability packages share — the one Ring
// (ring.go), the one runtime reader (runtimeinfo.go) and the recorder Slot
// with the HTTP mux it mounts views on (expose.go).
// Block phases are timed by internal/trace, which feeds these histograms.
//
// Design constraints (ISSUE 1):
//
//   - Hot-path instrumentation is zero-allocation. Counters and gauges are
//     plain atomics; histograms shard their buckets to dodge false sharing;
//     spans are value types.
//   - When telemetry is disabled (the default — no sink attached), timers
//     and histograms reduce to a single atomic load and return: the no-op
//     path costs a few nanoseconds (see bench_test.go). Counters and gauges
//     always count — they are single atomic adds and the evaluation
//     harness reads them even without an exposition endpoint.
//   - No dependencies beyond the standard library and internal/stats
//     (for the human-readable report rendering).
//
// Exposition is threefold: Prometheus text + JSON snapshots over HTTP with
// net/http/pprof (expose.go), a human-readable Report table (report.go),
// and the `bpinspect telemetry` subcommand.
package telemetry

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// enabled gates the time-measuring instrumentation (timers, histograms).
// Counters and gauges are always live.
var enabled atomic.Bool

// Enable turns on phase timing and histogram recording.
func Enable() { enabled.Store(true) }

// Disable returns telemetry to the no-op fast path.
func Disable() { enabled.Store(false) }

// Enabled reports whether timing instrumentation is active.
func Enabled() bool { return enabled.Load() }

// metric is anything the registry can snapshot.
type metric interface {
	metricName() string
}

// Registry holds named metrics. Registration happens at package init (cold
// path, mutex-protected); reads via Snapshot copy everything atomically
// enough for monitoring purposes.
type Registry struct {
	mu      sync.Mutex
	ordered []metric
	byName  map[string]metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]metric)}
}

// defaultRegistry backs the package-level constructors.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// register installs m, or returns the previously registered metric with the
// same name (constructors are idempotent so instrumented packages can be
// re-initialized in tests).
func (r *Registry) register(m metric) metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.byName[m.metricName()]; ok {
		return prev
	}
	r.byName[m.metricName()] = m
	r.ordered = append(r.ordered, m)
	return m
}

// ---------------------------------------------------------------------------
// Counter

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v    atomic.Int64
	name string
	help string
}

// NewCounter registers a counter in the default registry.
func NewCounter(name, help string) *Counter { return defaultRegistry.NewCounter(name, help) }

// NewCounter registers a counter in r.
func (r *Registry) NewCounter(name, help string) *Counter {
	return r.register(&Counter{name: name, help: help}).(*Counter)
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be ≥ 0 for the value to stay monotonic).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) metricName() string { return c.name }

// ---------------------------------------------------------------------------
// Gauge

// Gauge is an atomic instantaneous integer value.
type Gauge struct {
	v    atomic.Int64
	name string
	help string
}

// NewGauge registers a gauge in the default registry.
func NewGauge(name, help string) *Gauge { return defaultRegistry.NewGauge(name, help) }

// NewGauge registers a gauge in r.
func (r *Registry) NewGauge(name, help string) *Gauge {
	return r.register(&Gauge{name: name, help: help}).(*Gauge)
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by delta (may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) metricName() string { return g.name }

// FloatGauge is an atomic instantaneous float value (stored as bits).
type FloatGauge struct {
	bits atomic.Uint64
	name string
	help string
}

// NewFloatGauge registers a float gauge in the default registry.
func NewFloatGauge(name, help string) *FloatGauge { return defaultRegistry.NewFloatGauge(name, help) }

// NewFloatGauge registers a float gauge in r.
func (r *Registry) NewFloatGauge(name, help string) *FloatGauge {
	return r.register(&FloatGauge{name: name, help: help}).(*FloatGauge)
}

// Set stores v.
func (g *FloatGauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *FloatGauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *FloatGauge) metricName() string { return g.name }

// ---------------------------------------------------------------------------
// Histogram

const (
	// histShards spreads bucket increments over independent cache lines so
	// concurrent observers (proposer workers, pipeline lanes) do not
	// serialize on one hot counter word.
	histShards = 8
	// histBuckets is one bucket per value bit-length: bucket i counts
	// values v with bits.Len64(v) == i, i.e. v ∈ [2^(i-1), 2^i), and
	// bucket 0 counts v == 0. Exponential (powers of two) and branch-free.
	histBuckets = 65
)

// histShard is one shard's bucket array, padded to its own cache lines.
type histShard struct {
	counts [histBuckets]atomic.Uint64
	sum    atomic.Uint64
	_      [48]byte // pad: keep neighbouring shards off this shard's tail line
}

// Histogram is a lock-free sharded histogram over uint64 values with
// exponential (power-of-two) buckets. Durations are recorded in
// nanoseconds via ObserveDuration. Observe is a no-op while telemetry is
// disabled.
type Histogram struct {
	name   string
	help   string
	unit   string // "ns" for durations, "" for plain values, "gas" …
	shards [histShards]histShard
}

// NewHistogram registers a value histogram in the default registry.
// unit annotates rendering ("ns" renders durations).
func NewHistogram(name, help, unit string) *Histogram {
	return defaultRegistry.NewHistogram(name, help, unit)
}

// NewHistogram registers a value histogram in r.
func (r *Registry) NewHistogram(name, help, unit string) *Histogram {
	return r.register(&Histogram{name: name, help: help, unit: unit}).(*Histogram)
}

// shardFor scatters observations across shards with a Fibonacci hash of the
// value — cheap, allocation-free, and good enough to split contention when
// many goroutines observe similar-but-not-identical values.
func shardFor(v uint64) uint64 {
	return (v * 0x9E3779B97F4A7C15) >> 61 % histShards
}

// Observe records one value. No-op while telemetry is disabled.
func (h *Histogram) Observe(v uint64) {
	if !enabled.Load() {
		return
	}
	b := bits.Len64(v) // 0..64
	s := &h.shards[shardFor(v)]
	s.counts[b].Add(1)
	s.sum.Add(v)
}

// ObserveDuration records a duration in nanoseconds (negative clamps to 0).
func (h *Histogram) ObserveDuration(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.Observe(uint64(d))
}

// Span times one interval into one histogram — for the intervals that are not
// a block lifecycle stage (those are timed by trace.Recorder.Begin). It is a
// value type: starting and ending one allocates nothing, and the zero Span
// (telemetry disabled) makes End a no-op.
type Span struct {
	start time.Time
	hist  *Histogram
}

// StartSpan begins timing into hist. Returns the zero Span while telemetry is
// disabled.
func StartSpan(hist *Histogram) Span {
	if !enabled.Load() {
		return Span{}
	}
	return Span{start: time.Now(), hist: hist}
}

// End observes the elapsed time and returns it. Safe on the zero Span.
func (s Span) End() time.Duration {
	if s.hist == nil {
		return 0
	}
	d := time.Since(s.start)
	s.hist.ObserveDuration(d)
	return d
}

func (h *Histogram) metricName() string { return h.name }

// snapshotInto sums the shards. Individual bucket counts are each read
// atomically; the aggregate is a monitoring-grade (not transactional) view.
func (h *Histogram) snapshotInto() HistogramSnapshot {
	hs := HistogramSnapshot{Name: h.name, Help: h.help, Unit: h.unit}
	var buckets [histBuckets]uint64
	for s := range h.shards {
		sh := &h.shards[s]
		for b := 0; b < histBuckets; b++ {
			buckets[b] += sh.counts[b].Load()
		}
		hs.Sum += sh.sum.Load()
	}
	for b, c := range buckets {
		if c == 0 {
			continue
		}
		hs.Count += c
		hs.Buckets = append(hs.Buckets, BucketCount{UpperBound: bucketUpperBound(b), Count: c})
	}
	hs.P50 = hs.Quantile(0.50)
	hs.P90 = hs.Quantile(0.90)
	hs.P99 = hs.Quantile(0.99)
	return hs
}

// bucketUpperBound is the exclusive upper edge of bucket b: 2^b (bucket 0
// holds only the value 0, upper bound 1).
func bucketUpperBound(b int) uint64 {
	if b >= 64 {
		return math.MaxUint64
	}
	return 1 << uint(b)
}

// ---------------------------------------------------------------------------
// Snapshot

// BucketCount is one non-empty histogram bucket: Count values in
// [UpperBound/2, UpperBound) — and [0,1) for the first bucket.
type BucketCount struct {
	UpperBound uint64 `json:"le"`
	Count      uint64 `json:"count"`
}

// HistogramSnapshot is one histogram's frozen state.
type HistogramSnapshot struct {
	Name    string        `json:"name"`
	Help    string        `json:"help,omitempty"`
	Unit    string        `json:"unit,omitempty"`
	Count   uint64        `json:"n"`
	Sum     uint64        `json:"sum"`
	P50     float64       `json:"p50"`
	P90     float64       `json:"p90"`
	P99     float64       `json:"p99"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Mean returns Sum/Count (0 when empty).
func (hs *HistogramSnapshot) Mean() float64 {
	if hs.Count == 0 {
		return 0
	}
	return float64(hs.Sum) / float64(hs.Count)
}

// Quantile estimates the q-th quantile (0..1) by geometric interpolation
// inside the covering exponential bucket.
func (hs *HistogramSnapshot) Quantile(q float64) float64 {
	if hs.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(hs.Count)
	var cum float64
	for _, b := range hs.Buckets {
		next := cum + float64(b.Count)
		if next >= target {
			hi := float64(b.UpperBound)
			lo := hi / 2
			if b.UpperBound <= 1 {
				return 0 // the zero bucket
			}
			frac := 0.5
			if b.Count > 0 {
				frac = (target - cum) / float64(b.Count)
			}
			// Geometric interpolation matches exponential bucket widths.
			return lo * math.Pow(hi/lo, frac)
		}
		cum = next
	}
	last := hs.Buckets[len(hs.Buckets)-1]
	return float64(last.UpperBound)
}

// NumberSnapshot is one counter or gauge's frozen value.
type NumberSnapshot struct {
	Name  string  `json:"name"`
	Help  string  `json:"help,omitempty"`
	Value float64 `json:"value"`
}

// Snapshot is the full registry state at one instant — the payload behind
// the JSON endpoint, the Prometheus text rendering, and the Report table.
type Snapshot struct {
	TakenAt    time.Time           `json:"taken_at"`
	Runtime    *RuntimeInfo        `json:"runtime,omitempty"`
	Counters   []NumberSnapshot    `json:"counters"`
	Gauges     []NumberSnapshot    `json:"gauges"`
	Histograms []HistogramSnapshot `json:"histograms"`
}

// Snapshot freezes every registered metric, stamped with the capturing
// process's runtime identity (so scraped snapshots describe the node).
func (r *Registry) Snapshot() *Snapshot {
	r.mu.Lock()
	ordered := append([]metric(nil), r.ordered...)
	r.mu.Unlock()
	info := ReadRuntimeInfo()
	s := &Snapshot{TakenAt: time.Now(), Runtime: &info}
	for _, m := range ordered {
		switch v := m.(type) {
		case *Counter:
			s.Counters = append(s.Counters, NumberSnapshot{Name: v.name, Help: v.help, Value: float64(v.Value())})
		case *Gauge:
			s.Gauges = append(s.Gauges, NumberSnapshot{Name: v.name, Help: v.help, Value: float64(v.Value())})
		case *FloatGauge:
			s.Gauges = append(s.Gauges, NumberSnapshot{Name: v.name, Help: v.help, Value: v.Value()})
		case *Histogram:
			s.Histograms = append(s.Histograms, v.snapshotInto())
		}
	}
	sort.SliceStable(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.SliceStable(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.SliceStable(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// Snapshot freezes the default registry.
func TakeSnapshot() *Snapshot { return defaultRegistry.Snapshot() }

// Counter returns the frozen value of a counter by name (0 if absent).
func (s *Snapshot) Counter(name string) float64 { return findNumber(s.Counters, name) }

// Gauge returns the frozen value of a gauge by name (0 if absent).
func (s *Snapshot) Gauge(name string) float64 { return findNumber(s.Gauges, name) }

// Histogram returns the frozen histogram by name (nil if absent).
func (s *Snapshot) Histogram(name string) *HistogramSnapshot {
	for i := range s.Histograms {
		if s.Histograms[i].Name == name {
			return &s.Histograms[i]
		}
	}
	return nil
}

func findNumber(list []NumberSnapshot, name string) float64 {
	for _, n := range list {
		if n.Name == name {
			return n.Value
		}
	}
	return 0
}

// formatValue renders a float without trailing noise.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
