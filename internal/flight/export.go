// Wire/JSON views of flight events: the per-tx timeline payload served by
// /flight/txtrace and rendered by `bpinspect txtrace`, and the prefix lookup
// that finds one transaction's events.
package flight

import (
	"fmt"
	"strings"
	"time"

	"blockpilot/internal/types"
)

// EventView is the JSON wire form of one Event — hex-encoded identities and
// stringified keys so remote consumers never need the binary layout.
type EventView struct {
	TSNs    int64  `json:"ts_ns"`
	Seq     uint64 `json:"seq"`
	Kind    string `json:"kind"`
	Worker  int    `json:"worker"`
	Lane    string `json:"lane"`
	Tx      string `json:"tx,omitempty"`
	Sender  string `json:"sender,omitempty"`
	Height  uint64 `json:"height,omitempty"`
	Version uint64 `json:"version,omitempty"`
	Key     string `json:"key,omitempty"`
	Stripe  int    `json:"stripe,omitempty"`
	Aux     uint64 `json:"aux,omitempty"`
	Aux2    uint64 `json:"aux2,omitempty"`
}

// LaneName renders a worker id as a human-readable lane label.
func LaneName(worker int) string {
	switch {
	case worker == WorkerSystem:
		return "system"
	case worker >= ValidatorLaneBase:
		return fmt.Sprintf("validator-%d", worker-ValidatorLaneBase)
	default:
		return fmt.Sprintf("proposer-%d", worker)
	}
}

// View converts an Event into its wire form.
func (ev Event) View() EventView {
	v := EventView{
		TSNs:    ev.TS,
		Seq:     ev.Seq,
		Kind:    ev.Kind.String(),
		Worker:  int(ev.Worker),
		Lane:    LaneName(int(ev.Worker)),
		Height:  ev.Height,
		Version: ev.Version,
		Aux:     ev.Aux,
		Aux2:    ev.Aux2,
	}
	if ev.Tx != (types.Hash{}) {
		v.Tx = ev.Tx.String()
	}
	if ev.Sender != (types.Address{}) {
		v.Sender = ev.Sender.String()
	}
	if ev.Kind == EvAbort || ev.Kind == EvExtend {
		v.Key = ev.Key.String()
		v.Stripe = int(ev.Stripe)
	}
	return v
}

// Views converts a batch of events.
func Views(evs []Event) []EventView {
	out := make([]EventView, len(evs))
	for i, ev := range evs {
		out[i] = ev.View()
	}
	return out
}

// detail renders the kind-specific payload of one view for the text table.
func (v EventView) detail() string {
	switch v.Kind {
	case "abort":
		return fmt.Sprintf("key=%s winner=v%d stripe=%d", v.Key, v.Version, v.Stripe)
	case "extend":
		return fmt.Sprintf("snapshot v%d -> v%d stale key=%s stripe=%d", v.Aux, v.Version, v.Key, v.Stripe)
	case "commit":
		return fmt.Sprintf("version=%d", v.Version)
	case "seal":
		return fmt.Sprintf("version=%d position=%d", v.Version, v.Aux)
	case "drop":
		if v.Aux == 1 {
			return "retry budget exhausted"
		}
		return "invalid"
	case "assign":
		return fmt.Sprintf("component=%d gas=%d", v.Aux, v.Aux2)
	case "reuse":
		return fmt.Sprintf("taken from leader tx %d", v.Aux)
	case "block_done":
		if v.Aux == 1 {
			return "committed"
		}
		return "rejected"
	}
	return ""
}

// RenderTimeline draws one transaction's lifecycle as an aligned table with
// relative timing (Δ from the first event).
func RenderTimeline(views []EventView) string {
	if len(views) == 0 {
		return "no buffered events for this transaction\n"
	}
	var b strings.Builder
	base := views[0].TSNs
	if views[0].Tx != "" {
		fmt.Fprintf(&b, "tx %s (sender %s): %d events\n", views[0].Tx, views[0].Sender, len(views))
	}
	for _, v := range views {
		d := time.Duration(v.TSNs - base)
		fmt.Fprintf(&b, "  +%-12s %-14s %-13s height=%-5d %s\n",
			d.Round(time.Microsecond), v.Lane, v.Kind, v.Height, v.detail())
	}
	return b.String()
}

// TimelineByPrefix resolves a hex tx-hash string (full or unique prefix,
// with or without 0x) against the buffered events and returns that
// transaction's timeline. Errors distinguish "no match" from "ambiguous".
func (r *Recorder) TimelineByPrefix(s string) ([]Event, error) {
	want := strings.ToLower(strings.TrimPrefix(s, "0x"))
	if want == "" {
		return nil, errEmptyPrefix
	}
	evs := r.Events()
	var match types.Hash
	found := false
	for _, ev := range evs {
		if ev.Tx == (types.Hash{}) {
			continue
		}
		h := strings.TrimPrefix(ev.Tx.String(), "0x")
		if strings.HasPrefix(h, want) {
			if found && ev.Tx != match {
				return nil, errAmbiguousPrefix
			}
			match, found = ev.Tx, true
		}
	}
	if !found {
		return nil, errNoSuchTx
	}
	out := evs[:0:0]
	for _, ev := range evs {
		if ev.Tx == match {
			out = append(out, ev)
		}
	}
	return out, nil
}

var (
	errEmptyPrefix     = errString("empty tx prefix")
	errAmbiguousPrefix = errString("tx prefix matches multiple transactions; give more digits")
	errNoSuchTx        = errString("no buffered events match that tx")
)

type errString string

func (e errString) Error() string { return string(e) }
