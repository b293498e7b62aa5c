// Conflict attribution: which state keys, senders and MVState stripes cause
// OCC-WSI aborts, and how skewed the per-stripe load is — counted from the
// buffered abort events, so the report's window is the rings'. The
// per-stripe commit-lock waits, which no event carries, are the one counter
// kept beside the rings.
package trace

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"sync/atomic"
	"time"
)

// stripeStat is one stripe's commit-lock counters, written by the commit
// path.
type stripeStat struct {
	attempts atomic.Uint64
	waitNs   atomic.Uint64
}

// noteStripeWait attributes one commit attempt's lock wait to every stripe
// in the touched bitmask.
func (r *Recorder) noteStripeWait(set uint64, d time.Duration) {
	ns := uint64(d.Nanoseconds())
	for s := set; s != 0; s &= s - 1 {
		i := bits.TrailingZeros64(s)
		r.stripes[i].attempts.Add(1)
		r.stripes[i].waitNs.Add(ns)
	}
}

// HotKey is one attributed abort source.
type HotKey struct {
	Key   string  `json:"key"`
	Count uint64  `json:"count"`
	Share float64 `json:"share"` // Count / TotalAborts
}

// StripeReport is one stripe's attribution row.
type StripeReport struct {
	Stripe   int     `json:"stripe"`
	Aborts   uint64  `json:"aborts"`
	Attempts uint64  `json:"attempts"`
	WaitNs   uint64  `json:"wait_ns"`
	MeanWait float64 `json:"mean_wait_ns"` // WaitNs / Attempts
}

// AttributionReport is the conflict-attribution summary: the payload of
// /flight/hotkeys and `bpinspect hotkeys`.
type AttributionReport struct {
	TotalAborts uint64 `json:"total_aborts"`
	// TopKeyShare is the fraction of all aborts attributed to the top-10
	// hot keys (the ISSUE 3 acceptance quantity).
	TopKeyShare float64        `json:"top10_key_share"`
	Keys        []HotKey       `json:"keys,omitempty"`
	Senders     []HotKey       `json:"senders,omitempty"`
	Stripes     []StripeReport `json:"stripes,omitempty"`
	// AbortSkew / WaitSkew: max per-stripe value over the mean across
	// stripes that saw any commit attempt (1.0 = perfectly even).
	AbortSkew float64 `json:"stripe_abort_skew"`
	WaitSkew  float64 `json:"stripe_wait_skew"`
}

// Attribution counts the buffered abort events: the topN (default 10)
// hottest keys and senders, highest count first and ties in first-seen
// order, and every stripe's aborts beside its commit-lock waits. The counts
// are exact over what the rings hold.
func (r *Recorder) Attribution(topN int) *AttributionReport {
	if topN <= 0 {
		topN = 10
	}
	var keys, senders []string
	var aborts [StripeSlots]uint64
	for _, ev := range r.Events() {
		if ev.Kind != EvAbort {
			continue
		}
		keys, senders = append(keys, ev.Key.String()), append(senders, ev.Sender.String())
		if ev.Stripe >= 0 && ev.Stripe < StripeSlots {
			aborts[ev.Stripe]++
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

	// Per-stripe rows + skew over stripes with any commit attempt.
	var abortMax, abortSum, waitMax, waitSum uint64
	var touched int
	for i := range r.stripes {
		st := &r.stripes[i]
		attempts, wait := st.attempts.Load(), st.waitNs.Load()
		if attempts == 0 && aborts[i] == 0 {
			continue
		}
		row := StripeReport{Stripe: i, Aborts: aborts[i], Attempts: attempts, WaitNs: wait}
		if attempts > 0 {
			row.MeanWait = float64(wait) / float64(attempts)
		}
		rep.Stripes = append(rep.Stripes, row)
		touched++
		abortSum += aborts[i]
		waitSum += wait
		abortMax, waitMax = max(abortMax, aborts[i]), max(waitMax, wait)
	}
	if touched > 0 {
		if mean := float64(abortSum) / float64(touched); mean > 0 {
			rep.AbortSkew = float64(abortMax) / mean
		}
		if mean := float64(waitSum) / float64(touched); mean > 0 {
			rep.WaitSkew = float64(waitMax) / mean
		}
	}
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
	fmt.Fprintf(&b, "conflict attribution: %d aborts; top-10 keys cover %.1f%%; stripe skew abort=%.2f wait=%.2f\n",
		rep.TotalAborts, rep.TopKeyShare*100, rep.AbortSkew, rep.WaitSkew)
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
	if len(rep.Stripes) > 0 {
		fmt.Fprintf(&b, "  stripes (aborts / commit attempts / mean lock wait):\n")
		for _, st := range rep.Stripes {
			fmt.Fprintf(&b, "    stripe %2d: %6d aborts  %8d attempts  %8.0f ns mean wait\n",
				st.Stripe, st.Aborts, st.Attempts, st.MeanWait)
		}
	}
	return b.String()
}
