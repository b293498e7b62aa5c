// Package stats provides the small statistics toolkit the experiment
// harness uses: summaries (mean/median/percentiles) and fixed-edge
// histograms rendered as text, mirroring how the paper reports speedup
// distributions.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary describes a sample set.
type Summary struct {
	N      int
	Mean   float64
	Median float64
	Min    float64
	Max    float64
	P10    float64
	P90    float64
	Stddev float64
}

// Summarize computes a Summary (zero value for empty input).
func Summarize(samples []float64) Summary {
	var s Summary
	s.N = len(samples)
	if s.N == 0 {
		return s
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	s.Min, s.Max = sorted[0], sorted[s.N-1]
	s.Median = Percentile(sorted, 50)
	s.P10 = Percentile(sorted, 10)
	s.P90 = Percentile(sorted, 90)
	var sum float64
	for _, v := range sorted {
		sum += v
	}
	s.Mean = sum / float64(s.N)
	var ss float64
	for _, v := range sorted {
		d := v - s.Mean
		ss += d * d
	}
	s.Stddev = math.Sqrt(ss / float64(s.N))
	return s
}

// Percentile interpolates the p-th percentile of an ascending-sorted slice.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Histogram counts samples into [edges[i], edges[i+1]) buckets, with an
// overflow bucket above the last edge and an explicit underflow bucket for
// samples below the first edge (previously those were silently folded into
// bucket 0, skewing the first bucket's count).
type Histogram struct {
	edges     []float64
	counts    []int
	underflow int
	total     int
}

// NewHistogram builds a histogram over ascending bucket edges.
func NewHistogram(edges ...float64) *Histogram {
	return &Histogram{edges: edges, counts: make([]int, len(edges))}
}

// Add places one sample.
func (h *Histogram) Add(v float64) { h.AddN(v, 1) }

// AddN places n identical samples (n ≤ 0 is a no-op). Pre-aggregated
// sources — the telemetry registry's bucketed histograms — feed rendered
// distributions through this without per-sample loops.
func (h *Histogram) AddN(v float64, n int) {
	if n <= 0 {
		return
	}
	h.total += n
	for i := len(h.edges) - 1; i >= 0; i-- {
		if v >= h.edges[i] {
			h.counts[i] += n
			return
		}
	}
	h.underflow += n
}

// Total returns the number of samples, underflow included.
func (h *Histogram) Total() int { return h.total }

// Fraction returns the share of samples in bucket i.
func (h *Histogram) Fraction(i int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.counts[i]) / float64(h.total)
}

// Render draws the histogram as aligned text rows with unit bars. The
// underflow bucket renders first, and only when it holds samples.
func (h *Histogram) Render(label string, format func(edge float64) string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (n=%d)\n", label, h.total)
	maxCount := 1
	for _, c := range h.counts {
		if c > maxCount {
			maxCount = c
		}
	}
	if h.underflow > maxCount {
		maxCount = h.underflow
	}
	if h.underflow > 0 && len(h.edges) > 0 {
		bar := strings.Repeat("█", h.underflow*40/maxCount)
		fmt.Fprintf(&b, "  [%6s, %6s) %5d (%5.1f%%) %s\n",
			"-inf", format(h.edges[0]), h.underflow,
			100*float64(h.underflow)/float64(h.total), bar)
	}
	for i, edge := range h.edges {
		bar := strings.Repeat("█", h.counts[i]*40/maxCount)
		var hi string
		if i+1 < len(h.edges) {
			hi = format(h.edges[i+1])
		} else {
			hi = "∞"
		}
		fmt.Fprintf(&b, "  [%6s, %6s) %5d (%5.1f%%) %s\n",
			format(edge), hi, h.counts[i], 100*h.Fraction(i), bar)
	}
	return b.String()
}

// SpeedupEdges are the bucket edges used for speedup distributions.
func SpeedupEdges() []float64 {
	return []float64{0, 1, 1.5, 2, 2.5, 3, 3.5, 4, 5, 6, 8}
}
