// Human-readable reporting: ReportSnapshot renders a registry snapshot as
// aligned text tables, reusing internal/stats histogram rendering for the
// latency and size distributions. cmd/bpbench prints one at the end of a
// run, /report serves one, and `bpinspect telemetry` renders the fetched
// /metrics.json through it.
package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"blockpilot/internal/stats"
)

// ReportSnapshot renders a frozen snapshot as text tables.
func ReportSnapshot(s *Snapshot) string {
	var b strings.Builder
	b.WriteString("telemetry report — " + s.TakenAt.Format(time.RFC3339) + "\n")
	if rt := s.Runtime; rt != nil {
		fmt.Fprintf(&b, "runtime: %s  GOMAXPROCS=%d  goroutines=%d  heap=%s  gc=%d\n",
			rt.GoVersion, rt.GOMAXPROCS, rt.Goroutines, FormatBytes(rt.HeapInUse), rt.GCCycles)
	}
	b.WriteString("\n")

	if len(s.Counters) > 0 {
		b.WriteString("counters:\n")
		for _, c := range s.Counters {
			fmt.Fprintf(&b, "  %-48s %12s\n", c.Name, formatValue(c.Value))
		}
		b.WriteString("\n")
	}
	if len(s.Gauges) > 0 {
		b.WriteString("gauges:\n")
		for _, g := range s.Gauges {
			fmt.Fprintf(&b, "  %-48s %12s\n", g.Name, formatValue(g.Value))
		}
		b.WriteString("\n")
	}
	if len(s.Histograms) > 0 {
		b.WriteString("histograms (mean / p50 / p90 / p99):\n")
		for _, h := range s.Histograms {
			fmt.Fprintf(&b, "  %-48s n=%-8d %10s %10s %10s %10s\n",
				h.Name, h.Count,
				formatUnit(h.Mean(), h.Unit), formatUnit(h.P50, h.Unit),
				formatUnit(h.P90, h.Unit), formatUnit(h.P99, h.Unit))
		}
		b.WriteString("\n")
		for _, h := range s.Histograms {
			if h.Count == 0 {
				continue
			}
			b.WriteString(renderDistribution(&h))
			b.WriteString("\n")
		}
	}
	if d := DerivedStats(s); len(d) > 0 {
		b.WriteString("derived:\n")
		keys := make([]string, 0, len(d))
		for k := range d {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "  %-48s %12.4f\n", k, d[k])
		}
	}
	return b.String()
}

// renderDistribution replays a telemetry histogram's exponential buckets
// into a stats.Histogram (via AddN at each bucket's lower bound) and reuses
// its bar rendering — one collection pipeline, one look.
func renderDistribution(h *HistogramSnapshot) string {
	if len(h.Buckets) == 0 {
		return ""
	}
	edges := make([]float64, 0, len(h.Buckets))
	for _, bk := range h.Buckets {
		edges = append(edges, lowerBound(bk.UpperBound))
	}
	sh := stats.NewHistogram(edges...)
	for _, bk := range h.Buckets {
		if bk.Count > maxIntSamples {
			sh.AddN(lowerBound(bk.UpperBound), maxIntSamples)
			continue
		}
		sh.AddN(lowerBound(bk.UpperBound), int(bk.Count))
	}
	format := func(edge float64) string { return formatUnit(edge, h.Unit) }
	return sh.Render(h.Name, format)
}

// maxIntSamples caps per-bucket replay so a pathological 2^63-observation
// bucket cannot overflow the int-based stats counters.
const maxIntSamples = 1 << 40

// lowerBound inverts bucketUpperBound: the inclusive lower edge.
func lowerBound(upper uint64) float64 {
	if upper <= 1 {
		return 0
	}
	return float64(upper) / 2
}

// FormatBytes renders a byte count with a binary-prefix unit (4.0KiB,
// 34.2MiB). Used by the report runtime header and the health renderings.
func FormatBytes(v uint64) string {
	const unit = 1024
	if v < unit {
		return fmt.Sprintf("%dB", v)
	}
	div, exp := uint64(unit), 0
	for n := v / unit; n >= unit; n /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f%ciB", float64(v)/float64(div), "KMGTPE"[exp])
}

// formatUnit renders a value with its unit ("ns" values render as
// durations; everything else as plain numbers).
func formatUnit(v float64, unit string) string {
	switch unit {
	case "ns":
		return time.Duration(v).Round(time.Microsecond).String()
	case "":
		return formatValue(v)
	default:
		return formatValue(v) + unit
	}
}
