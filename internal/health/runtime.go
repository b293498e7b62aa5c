// Go runtime health readings for the sampler: heap in-use, GC cycle and
// pause totals, scheduler latency, goroutine count — read via
// runtime/metrics (no stop-the-world) plus runtime.NumGoroutine.
package health

import (
	"math"
	"runtime"
	"runtime/metrics"
)

// RuntimeStats is one reading of the Go runtime's health signals.
type RuntimeStats struct {
	Goroutines     int    `json:"goroutines"`
	HeapInUseBytes uint64 `json:"heap_inuse_bytes"`
	GCCycles       uint64 `json:"gc_cycles"`
	// GCPauseTotalNs approximates cumulative stop-the-world GC pause time by
	// summing bucket-midpoint weights of the runtime pause histogram.
	GCPauseTotalNs uint64 `json:"gc_pause_total_ns"`
	// SchedLatP99Ns approximates the p99 goroutine scheduling latency (time
	// runnable goroutines waited for a thread) from the runtime histogram.
	SchedLatP99Ns uint64 `json:"sched_lat_p99_ns"`
}

// runtime/metrics names sampled by ReadRuntimeStats. Names absent in the
// running Go release report KindBad and leave their field zero.
const (
	metricHeapObjects = "/memory/classes/heap/objects:bytes"
	metricGCCycles    = "/gc/cycles/total:gc-cycles"
	metricGCPauses    = "/sched/pauses/total/gc:seconds"
	metricSchedLat    = "/sched/latencies:seconds"
)

// ReadRuntimeStats captures the current runtime health. Costs a few
// microseconds; intended for the background sampler, not hot paths.
func ReadRuntimeStats() RuntimeStats {
	s := []metrics.Sample{
		{Name: metricHeapObjects},
		{Name: metricGCCycles},
		{Name: metricGCPauses},
		{Name: metricSchedLat},
	}
	metrics.Read(s)
	st := RuntimeStats{Goroutines: runtime.NumGoroutine()}
	if s[0].Value.Kind() == metrics.KindUint64 {
		st.HeapInUseBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		st.GCCycles = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		st.GCPauseTotalNs = uint64(histTotal(s[2].Value.Float64Histogram()) * 1e9)
	}
	if s[3].Value.Kind() == metrics.KindFloat64Histogram {
		st.SchedLatP99Ns = uint64(histQuantile(s[3].Value.Float64Histogram(), 0.99) * 1e9)
	}
	return st
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
		if c == 0 {
			continue
		}
		lo, hi := bucketEdges(h, i)
		total += float64(c) * (lo + hi) / 2
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
	target := q * float64(n)
	var cum float64
	for i, c := range h.Counts {
		cum += float64(c)
		if cum >= target {
			_, hi := bucketEdges(h, i)
			return hi
		}
	}
	_, hi := bucketEdges(h, len(h.Counts)-1)
	return hi
}
