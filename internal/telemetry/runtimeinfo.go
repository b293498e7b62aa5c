// The one Go-runtime reader: attached to every snapshot, the /healthz
// payload and the Report header — so a scraped snapshot carries the *node's*
// runtime state, not the inspector's — and sampled once per tick by the
// health recorder.
package telemetry

import (
	"math"
	"runtime"
	"runtime/metrics"
	"time"
)

// RuntimeInfo identifies the process runtime at capture time and reads its
// health signals.
type RuntimeInfo struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Goroutines int    `json:"goroutines"`
	HeapInUse  uint64 `json:"heap_inuse_bytes"`
	GCCycles   uint64 `json:"gc_cycles"`
	// GCPauseTotalNs approximates cumulative stop-the-world GC pause time by
	// summing bucket-midpoint weights of the runtime pause histogram.
	GCPauseTotalNs uint64 `json:"gc_pause_total_ns"`
	// SchedLatP99Ns approximates the p99 goroutine scheduling latency (time
	// runnable goroutines waited for a thread) from the runtime histogram.
	SchedLatP99Ns uint64  `json:"sched_lat_p99_ns"`
	UptimeS       float64 `json:"uptime_s"`
}

// processStart anchors UptimeS (package init ≈ process start).
var processStart = time.Now()

// ReadRuntimeInfo captures the current runtime identity and health. It uses
// runtime/metrics (no stop-the-world) and costs a few microseconds. Names
// absent in the running Go release report KindBad and leave their field
// zero, so the reader is robust across Go releases.
func ReadRuntimeInfo() RuntimeInfo {
	s := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/sched/pauses/total/gc:seconds"},
		{Name: "/sched/latencies:seconds"},
	}
	metrics.Read(s)
	info := RuntimeInfo{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Goroutines: runtime.NumGoroutine(),
		UptimeS:    time.Since(processStart).Seconds(),
	}
	if s[0].Value.Kind() == metrics.KindUint64 {
		info.HeapInUse = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		info.GCCycles = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		info.GCPauseTotalNs = uint64(histTotal(s[2].Value.Float64Histogram()) * 1e9)
	}
	if s[3].Value.Kind() == metrics.KindFloat64Histogram {
		info.SchedLatP99Ns = uint64(histQuantile(s[3].Value.Float64Histogram(), 0.99) * 1e9)
	}
	return info
}

// bucketEdges returns bucket i's finite [lo, hi) edges, clamping the ±Inf
// sentinel buckets the runtime histograms carry at both ends.
func bucketEdges(h *metrics.Float64Histogram, i int) (lo, hi float64) {
	lo, hi = h.Buckets[i], h.Buckets[i+1]
	if math.IsInf(lo, -1) {
		lo = 0
	}
	if math.IsInf(hi, 1) {
		hi = lo
	}
	return lo, hi
}

// histTotal approximates the histogram's value total as Σ count·midpoint.
func histTotal(h *metrics.Float64Histogram) float64 {
	var total float64
	for i, c := range h.Counts {
		if c > 0 {
			lo, hi := bucketEdges(h, i)
			total += float64(c) * (lo + hi) / 2
		}
	}
	return total
}

// histQuantile approximates quantile q (0..1) as the upper edge of the
// covering bucket.
func histQuantile(h *metrics.Float64Histogram, q float64) float64 {
	var n uint64
	for _, c := range h.Counts {
		n += c
	}
	if n == 0 {
		return 0
	}
	target, cum := q*float64(n), 0.0
	for i, c := range h.Counts {
		if cum += float64(c); cum >= target {
			_, hi := bucketEdges(h, i)
			return hi
		}
	}
	_, hi := bucketEdges(h, len(h.Counts)-1)
	return hi
}
