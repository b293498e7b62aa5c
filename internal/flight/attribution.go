// Conflict attribution: which state keys, senders and MVState stripes cause
// OCC-WSI aborts, and how skewed the per-stripe load is. Fed from the abort
// and commit hot paths; summarized into an AttributionReport and into the
// telemetry registry's flight gauges.
package flight

import (
	"fmt"
	"math/bits"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"blockpilot/internal/telemetry"
	"blockpilot/internal/types"
)

// stripeStat is one stripe's attribution counters. Writers are the abort
// path (aborts) and the commit path (attempts, waitNs); all atomic.
type stripeStat struct {
	aborts   atomic.Uint64
	attempts atomic.Uint64
	waitNs   atomic.Uint64
}

// attribution guards the heavy-hitter sketches (abort path only).
var attributionMu sync.Mutex

// noteAbort feeds one abort into the sketches and stripe counters.
func (r *Recorder) noteAbort(sender types.Address, key types.StateKey, stripe int) {
	r.abortTotal.Add(1)
	if stripe >= 0 && stripe < StripeSlots {
		r.stripes[stripe].aborts.Add(1)
	}
	attributionMu.Lock()
	r.hotKeys.Observe(key)
	r.hotSenders.Observe(sender)
	attributionMu.Unlock()
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
	Err   uint64  `json:"err,omitempty"` // space-saving overestimation bound
	Share float64 `json:"share"`         // Count / TotalAborts
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

// Attribution freezes the recorder's conflict-attribution state, and pushes
// the skew gauges into the telemetry registry.
func (r *Recorder) Attribution(topN int) *AttributionReport {
	if topN <= 0 {
		topN = 10
	}
	rep := &AttributionReport{TotalAborts: r.abortTotal.Load()}

	attributionMu.Lock()
	keys := r.hotKeys.Top(topN)
	senders := r.hotSenders.Top(topN)
	attributionMu.Unlock()

	total := float64(rep.TotalAborts)
	var top10 uint64
	for i, c := range keys {
		hk := HotKey{Key: c.Key.String(), Count: c.Count, Err: c.Err}
		if total > 0 {
			hk.Share = float64(c.Count) / total
		}
		rep.Keys = append(rep.Keys, hk)
		if i < 10 {
			top10 += c.Count
		}
	}
	if total > 0 {
		rep.TopKeyShare = float64(top10) / total
		if rep.TopKeyShare > 1 {
			rep.TopKeyShare = 1 // sketch overestimation can nudge past 1
		}
	}
	for _, c := range senders {
		hk := HotKey{Key: c.Key.String(), Count: c.Count, Err: c.Err}
		if total > 0 {
			hk.Share = float64(c.Count) / total
		}
		rep.Senders = append(rep.Senders, hk)
	}

	// Per-stripe rows + skew over stripes with any commit attempt.
	var abortMax, abortSum, waitMax, waitSum uint64
	var touched int
	for i := range r.stripes {
		st := &r.stripes[i]
		attempts := st.attempts.Load()
		aborts := st.aborts.Load()
		wait := st.waitNs.Load()
		if attempts == 0 && aborts == 0 {
			continue
		}
		row := StripeReport{Stripe: i, Aborts: aborts, Attempts: attempts, WaitNs: wait}
		if attempts > 0 {
			row.MeanWait = float64(wait) / float64(attempts)
		}
		rep.Stripes = append(rep.Stripes, row)
		touched++
		abortSum += aborts
		waitSum += wait
		if aborts > abortMax {
			abortMax = aborts
		}
		if wait > waitMax {
			waitMax = wait
		}
	}
	if touched > 0 {
		if mean := float64(abortSum) / float64(touched); mean > 0 {
			rep.AbortSkew = float64(abortMax) / mean
		}
		if mean := float64(waitSum) / float64(touched); mean > 0 {
			rep.WaitSkew = float64(waitMax) / mean
		}
	}

	// Wire the gauges into the telemetry registry (ISSUE 3 tentpole (a)).
	telemetry.FlightStripeAbortSkew.Set(rep.AbortSkew)
	telemetry.FlightStripeWaitSkew.Set(rep.WaitSkew)
	telemetry.FlightHotKeyAbortShare.Set(rep.TopKeyShare)
	return rep
}

// Render draws the attribution report as aligned text tables.
func (rep *AttributionReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "conflict attribution: %d aborts; top-10 keys cover %.1f%%; stripe skew abort=%.2f wait=%.2f\n",
		rep.TotalAborts, rep.TopKeyShare*100, rep.AbortSkew, rep.WaitSkew)
	if len(rep.Keys) > 0 {
		fmt.Fprintf(&b, "  hot keys (space-saving sketch; count overestimates by ≤ err):\n")
		fmt.Fprintf(&b, "    %-72s %8s %6s %7s\n", "key", "aborts", "err", "share")
		for _, k := range rep.Keys {
			fmt.Fprintf(&b, "    %-72s %8d %6d %6.1f%%\n", k.Key, k.Count, k.Err, k.Share*100)
		}
	}
	if len(rep.Senders) > 0 {
		fmt.Fprintf(&b, "  hot senders:\n")
		fmt.Fprintf(&b, "    %-44s %8s %6s %7s\n", "sender", "aborts", "err", "share")
		for _, s := range rep.Senders {
			fmt.Fprintf(&b, "    %-44s %8d %6d %6.1f%%\n", s.Key, s.Count, s.Err, s.Share*100)
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
