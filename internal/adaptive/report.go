package adaptive

import (
	"fmt"
	"strings"
)

// StripeAbortRow is one stripe's windowed (decayed) abort mass.
type StripeAbortRow struct {
	Stripe int     `json:"stripe"`
	Aborts float64 `json:"aborts"`
}

// Snapshot is the controller's externally visible state: the payload of
// `bpinspect adaptive`.
type Snapshot struct {
	Blocks        uint64 `json:"blocks"`
	AbortsSeen    uint64 `json:"aborts_seen"`
	LaneTxs       uint64 `json:"serial_lane_txs"`
	MergedCredits uint64 `json:"merged_credits"`
	// WindowAborts is the decayed abort mass at the last publish.
	WindowAborts uint64 `json:"window_aborts"`
	HotAccounts  int    `json:"hot_accounts"`
	// KeyRows / SenderRows are the published hot set's windowed sketch rows.
	KeyRows    []HotRow         `json:"keys,omitempty"`
	SenderRows []HotRow         `json:"senders,omitempty"`
	Stripes    []StripeAbortRow `json:"stripes,omitempty"`
}

// HotRow is one hot-set entry in printable form.
type HotRow struct {
	Key   string `json:"key"`
	Count uint64 `json:"count"`
	Err   uint64 `json:"err,omitempty"`
}

// Snapshot freezes the controller's current state for reporting.
func (c *Controller) Snapshot() *Snapshot {
	s := &Snapshot{
		Blocks:        c.blocks.Load(),
		AbortsSeen:    c.abortsSeen.Load(),
		LaneTxs:       c.laneTxs.Load(),
		MergedCredits: c.mergedCredits.Load(),
	}
	if hs := c.hot.Load(); hs != nil {
		s.WindowAborts = hs.WindowAborts
		s.HotAccounts = len(hs.Accounts)
		for _, k := range hs.Keys {
			s.KeyRows = append(s.KeyRows, HotRow{Key: k.Key.String(), Count: k.Count, Err: k.Err})
		}
		for _, sd := range hs.Senders {
			s.SenderRows = append(s.SenderRows, HotRow{Key: sd.Key.String(), Count: sd.Count, Err: sd.Err})
		}
	}
	c.mu.Lock()
	for i, a := range c.stripeAborts {
		if a >= 1 {
			s.Stripes = append(s.Stripes, StripeAbortRow{Stripe: i, Aborts: a})
		}
	}
	c.mu.Unlock()
	return s
}

// Render draws the snapshot as aligned text tables.
func (s *Snapshot) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "adaptive controller: %d blocks, %d aborts observed (window mass %d)\n",
		s.Blocks, s.AbortsSeen, s.WindowAborts)
	fmt.Fprintf(&b, "  decisions: %d serial-lane txs, %d merged credits; hot set holds %d accounts\n",
		s.LaneTxs, s.MergedCredits, s.HotAccounts)
	if len(s.KeyRows) > 0 {
		fmt.Fprintf(&b, "  windowed hot keys:\n")
		fmt.Fprintf(&b, "    %-72s %8s %6s\n", "key", "aborts", "err")
		for _, k := range s.KeyRows {
			fmt.Fprintf(&b, "    %-72s %8d %6d\n", k.Key, k.Count, k.Err)
		}
	}
	if len(s.SenderRows) > 0 {
		fmt.Fprintf(&b, "  windowed hot senders:\n")
		fmt.Fprintf(&b, "    %-44s %8s %6s\n", "sender", "aborts", "err")
		for _, sd := range s.SenderRows {
			fmt.Fprintf(&b, "    %-44s %8d %6d\n", sd.Key, sd.Count, sd.Err)
		}
	}
	if len(s.Stripes) > 0 {
		fmt.Fprintf(&b, "  windowed stripe aborts:\n")
		for _, st := range s.Stripes {
			fmt.Fprintf(&b, "    stripe %2d: %8.1f\n", st.Stripe, st.Aborts)
		}
	}
	return b.String()
}
