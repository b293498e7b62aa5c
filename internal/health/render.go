// Terminal rendering for health series and incidents: unicode sparklines
// per signal plus an incident table — what `bpinspect health` prints.
package health

import (
	"fmt"
	"strings"
	"time"

	"blockpilot/internal/telemetry"
)

var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// Spark renders values as a unicode sparkline, scaled min→max. A flat
// series renders at the lowest level.
func Spark(values []float64) string {
	if len(values) == 0 {
		return ""
	}
	lo, hi := values[0], values[0]
	for _, v := range values[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var b strings.Builder
	for _, v := range values {
		idx := 0
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(sparkRunes)-1))
			if idx >= len(sparkRunes) {
				idx = len(sparkRunes) - 1
			}
		}
		b.WriteRune(sparkRunes[idx])
	}
	return b.String()
}

// sparkWidth caps rendered sparklines; longer series are resampled by
// taking the max within each resample bucket (spikes must stay visible).
const sparkWidth = 60

func resample(values []float64) []float64 {
	if len(values) <= sparkWidth {
		return values
	}
	out := make([]float64, sparkWidth)
	for i := 0; i < sparkWidth; i++ {
		start := i * len(values) / sparkWidth
		end := (i + 1) * len(values) / sparkWidth
		if end <= start {
			end = start + 1
		}
		m := values[start]
		for _, v := range values[start+1 : end] {
			if v > m {
				m = v
			}
		}
		out[i] = m
	}
	return out
}

// signal is one rendered row: a name, a value extractor, and a formatter.
type signal struct {
	name   string
	value  func(*Sample) float64
	format func(float64) string
}

func fmtCount(v float64) string { return fmt.Sprintf("%.0f", v) }
func fmtBytes(v float64) string { return telemetry.FormatBytes(uint64(v)) }

// renderedSignals is the fixed row set for RenderSeries: runtime health
// first, then the pipeline/proposer signals named in the issue.
func renderedSignals() []signal {
	gauge := func(name string) func(*Sample) float64 {
		return func(s *Sample) float64 { return s.Gauges[name] }
	}
	delta := func(name string) func(*Sample) float64 {
		return func(s *Sample) float64 { return s.Deltas[name] }
	}
	return []signal{
		{"goroutines", func(s *Sample) float64 { return float64(s.Runtime.Goroutines) }, fmtCount},
		{"heap_inuse", func(s *Sample) float64 { return float64(s.Runtime.HeapInUse) }, fmtBytes},
		{"gc_cycles", func(s *Sample) float64 { return float64(s.Runtime.GCCycles) }, fmtCount},
		{"sched_lat_p99", func(s *Sample) float64 { return float64(s.Runtime.SchedLatP99Ns) },
			func(v float64) string { return time.Duration(v).Round(time.Microsecond).String() }},
		{"pipeline_inflight", gauge("blockpilot_pipeline_blocks_inflight"), fmtCount},
		{"mempool_pending", gauge("blockpilot_mempool_pending"), fmtCount},
		{"commits/Δ", delta("blockpilot_proposer_commits_total"), fmtCount},
		{"aborts/Δ", delta("blockpilot_proposer_aborts_total"), fmtCount},
		{"mv_reexec/Δ", delta("blockpilot_mv_reexecutions_total"), fmtCount},
	}
}

// RenderSeries renders the sample window as one sparkline per signal with
// the min/last/max annotations.
func RenderSeries(samples []Sample, interval time.Duration) string {
	var b strings.Builder
	if len(samples) == 0 {
		return "health: no samples recorded\n"
	}
	span := samples[len(samples)-1].At.Sub(samples[0].At)
	fmt.Fprintf(&b, "health series — %d samples over %s (interval %s)\n\n",
		len(samples), span.Round(time.Millisecond), interval)
	for _, sig := range renderedSignals() {
		values := make([]float64, len(samples))
		any := false
		for i := range samples {
			values[i] = sig.value(&samples[i])
			if values[i] != 0 {
				any = true
			}
		}
		if !any {
			continue
		}
		lo, hi := values[0], values[0]
		for _, v := range values[1:] {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		last := values[len(values)-1]
		fmt.Fprintf(&b, "  %-18s %-*s min=%s last=%s max=%s\n",
			sig.name, sparkWidth, Spark(resample(values)),
			sig.format(lo), sig.format(last), sig.format(hi))
	}
	return b.String()
}

// RenderIncidents renders the incident list (or an all-clear line).
func RenderIncidents(incidents []Incident, dropped uint64) string {
	if len(incidents) == 0 {
		return "incidents: none\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "incidents: %d", len(incidents))
	if dropped > 0 {
		fmt.Fprintf(&b, " (+%d dropped beyond cap)", dropped)
	}
	b.WriteString("\n")
	for _, inc := range incidents {
		fmt.Fprintf(&b, "  #%d %-16s %s  %s\n", inc.Seq, inc.Rule,
			inc.At.Format(time.RFC3339), inc.Detail)
		if inc.BundleDir != "" {
			fmt.Fprintf(&b, "      bundle: %s\n", inc.BundleDir)
		}
		if inc.BundleErr != "" {
			fmt.Fprintf(&b, "      bundle error: %s\n", inc.BundleErr)
		}
	}
	return b.String()
}
