// Conflict attribution: which state keys and senders cause OCC-WSI aborts,
// counted from the buffered abort events, so the report's window is the
// rings'.
package trace

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// HotKey is one attributed abort source.
type HotKey struct {
	Key   string  `json:"key"`
	Count uint64  `json:"count"`
	Share float64 `json:"share"` // Count / TotalAborts
}

// AttributionReport is the conflict-attribution summary: the payload of
// /flight/hotkeys and `bpinspect hotkeys`.
type AttributionReport struct {
	TotalAborts uint64 `json:"total_aborts"`
	// TopKeyShare is the fraction of all aborts attributed to the top-10
	// hot keys (the ISSUE 3 acceptance quantity).
	TopKeyShare float64  `json:"top10_key_share"`
	Keys        []HotKey `json:"keys,omitempty"`
	Senders     []HotKey `json:"senders,omitempty"`
}

// Attribution counts the buffered abort events: the topN (default 10)
// hottest keys and senders, highest count first and ties in first-seen
// order. The counts are exact over what the rings hold.
func (r *Recorder) Attribution(topN int) *AttributionReport {
	if topN <= 0 {
		topN = 10
	}
	var keys, senders []string
	for _, ev := range r.Events() {
		if ev.Kind == EvAbort {
			keys, senders = append(keys, ev.Key.String()), append(senders, ev.Sender.String())
		}
	}
	rep := &AttributionReport{TotalAborts: uint64(len(keys))}
	rep.Keys, rep.Senders = hottest(keys, rep.TotalAborts), hottest(senders, rep.TotalAborts)
	var top10 uint64
	for _, k := range rep.Keys[:min(len(rep.Keys), 10)] {
		top10 += k.Count
	}
	rep.TopKeyShare = float64(top10) / float64(max(rep.TotalAborts, 1))
	rep.Keys, rep.Senders = rep.Keys[:min(len(rep.Keys), topN)], rep.Senders[:min(len(rep.Senders), topN)]
	return rep
}

// hottest counts each distinct name of names and returns one row per name,
// highest count first and ties in first-seen order.
func hottest(names []string, total uint64) []HotKey {
	row := map[string]int{}
	var rows []HotKey
	for _, name := range names {
		i, ok := row[name]
		if !ok {
			i, row[name] = len(rows), len(rows)
			rows = append(rows, HotKey{Key: name})
		}
		rows[i].Count++
	}
	slices.SortStableFunc(rows, func(a, b HotKey) int { return cmp.Compare(b.Count, a.Count) })
	for i := range rows {
		rows[i].Share = float64(rows[i].Count) / float64(total)
	}
	return rows
}

// Render draws the attribution report as aligned text tables.
func (rep *AttributionReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "conflict attribution: %d aborts; top-10 keys cover %.1f%%\n",
		rep.TotalAborts, rep.TopKeyShare*100)
	if len(rep.Keys) > 0 {
		fmt.Fprintf(&b, "  hot keys:\n")
		fmt.Fprintf(&b, "    %-72s %8s %7s\n", "key", "aborts", "share")
		for _, k := range rep.Keys {
			fmt.Fprintf(&b, "    %-72s %8d %6.1f%%\n", k.Key, k.Count, k.Share*100)
		}
	}
	if len(rep.Senders) > 0 {
		fmt.Fprintf(&b, "  hot senders:\n")
		fmt.Fprintf(&b, "    %-44s %8s %7s\n", "sender", "aborts", "share")
		for _, s := range rep.Senders {
			fmt.Fprintf(&b, "    %-44s %8d %6.1f%%\n", s.Key, s.Count, s.Share*100)
		}
	}
	return b.String()
}
