// Text rendering for block paths — the per-block waterfall + stall-bucket
// table behind `bpinspect crit` — and the JSON wire form of one span, whose
// duration is clamped, whose stage is named and whose start reads in UTC.
package trace

import (
	"fmt"
	"strings"
	"time"
)

// SpanView is the JSON wire form of one stage event (its span_id is the
// event's Seq).
type SpanView struct {
	TraceID uint64    `json:"trace_id"`
	SpanID  uint64    `json:"span_id"`
	Stage   string    `json:"stage"`
	Node    string    `json:"node"`
	From    string    `json:"from,omitempty"`
	Height  uint64    `json:"height"`
	Block   string    `json:"block"`
	Start   time.Time `json:"start"`
	DurNS   int64     `json:"dur_ns"`
}

// spanView converts a stage event to its wire form; nodes is the node table.
func (r *Recorder) spanView(ev *Event, nodes []string) SpanView {
	return SpanView{
		TraceID: TraceID(ev.Tx), SpanID: ev.Seq,
		Stage: ev.Stage.String(), Node: nodes[ev.Worker], From: nodes[ev.From],
		Height: ev.Height, Block: ev.Tx.String(),
		Start: r.at(ev.TS).UTC(), DurNS: max(ev.Dur(), 0),
	}
}

const waterfallWidth = 36

// RenderPathView draws one block's waterfall as aligned text.
func RenderPathView(p BlockPath) string {
	var b strings.Builder
	status := ""
	if !p.Complete {
		status = " INCOMPLETE missing=" + strings.Join(p.Missing, ",")
	}
	fmt.Fprintf(&b, "block %-3d %s node=%-10s total=%-10v critical=%s%s\n",
		p.Height, p.Block.String()[:10], p.Node, p.Total.Round(time.Microsecond), p.Critical, status)
	var cum time.Duration
	for _, seg := range p.Segments {
		lead, width := 0, 0
		if p.Total > 0 {
			lead = int(float64(cum) / float64(p.Total) * waterfallWidth)
			width = int(seg.Share*waterfallWidth + 0.5)
		}
		if width < 1 && seg.Dur > 0 {
			width = 1
		}
		if lead+width > waterfallWidth {
			width = waterfallWidth - lead
		}
		bar := strings.Repeat(" ", lead) + strings.Repeat("█", width)
		mark := ""
		if seg.Kind == KindStall {
			mark = " (stall)"
		}
		fmt.Fprintf(&b, "  %-14s %-*s %10v %5.1f%%%s\n",
			seg.Name, waterfallWidth, bar, seg.Dur.Round(time.Microsecond), seg.Share*100, mark)
		cum += seg.Dur
	}
	if p.CommitTail > 0 {
		fmt.Fprintf(&b, "  %-14s %-*s %10v  (inside commit)\n", "state_commit",
			waterfallWidth, "", p.CommitTail.Round(time.Microsecond))
	}
	return b.String()
}

// RenderWindowView draws the aggregated stall/work buckets of a window.
func RenderWindowView(w WindowSummary) string {
	var b strings.Builder
	fmt.Fprintf(&b, "window: %d block(s) (%d complete), total latency %v, critical stage: %s\n",
		w.Blocks, w.Complete, w.Total.Round(time.Microsecond), w.Critical)
	fmt.Fprintf(&b, "  work %.1f%% / stall %.1f%%\n", w.WorkShare*100, w.StallShare*100)
	for _, bk := range w.Buckets {
		mark := ""
		if bk.Kind == KindStall {
			mark = " (stall)"
		}
		fmt.Fprintf(&b, "  %-14s %10v %5.1f%%%s\n", bk.Name, bk.Total.Round(time.Microsecond), bk.Share*100, mark)
	}
	if w.CommitTail > 0 {
		fmt.Fprintf(&b, "  %-14s %10v  (state-commit tail inside commit)\n",
			"state_commit", w.CommitTail.Round(time.Microsecond))
	}
	return b.String()
}
