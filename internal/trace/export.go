// Wire/JSON views of transaction events: the per-tx timeline payload served
// by /flight/txtrace and rendered by `bpinspect txtrace`, and the prefix
// lookup that finds one transaction's events. Stage events have their own
// view, SpanView.
package trace

import (
	"errors"
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
	Node    string `json:"node,omitempty"` // the recording node, when named
	Tx      string `json:"tx,omitempty"`
	Sender  string `json:"sender,omitempty"`
	Height  uint64 `json:"height,omitempty"`
	Version uint64 `json:"version,omitempty"`
	Key     string `json:"key,omitempty"`
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

// View converts an Event into its wire form; Views names its node.
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
	}
	return v
}

// Views converts the transaction events of a batch, skipping stage events;
// nodes, the recorder's node table (Nodes), names each event's node.
func Views(evs []Event, nodes []string) []EventView {
	out := make([]EventView, 0, len(evs))
	for _, ev := range evs {
		if ev.Kind != EvStage {
			v := ev.View()
			v.Node = nodeName(nodes, ev.Node)
			out = append(out, v)
		}
	}
	return out
}

// nodeName returns nodes[i], or "" for an index the table does not hold (a
// transaction event whose node was interned in a recorder since replaced).
func nodeName(nodes []string, i int16) string {
	if int(i) < len(nodes) && i >= 0 {
		return nodes[i]
	}
	return ""
}

// field is one named value of an event's kind-specific payload.
type field struct {
	name  string
	value any
}

// payload names each kind's payload, once for both readers: the txtrace
// detail column and the Perfetto instant's args.
func (v EventView) payload() []field {
	switch v.Kind {
	case "abort":
		return []field{{"key", v.Key}, {"winner_version", v.Version}}
	case "extend":
		return []field{{"key", v.Key}, {"from_version", v.Aux}, {"to_version", v.Version}}
	case "commit":
		return []field{{"version", v.Version}}
	case "seal":
		return []field{{"version", v.Version}, {"position", v.Aux}}
	case "drop":
		return []field{{"retry_exhausted", v.Aux == 1}}
	case "assign":
		return []field{{"writer", int64(v.Aux) - 1}, {"reads", v.Aux2}} // writer −1: no read waits on one
	case "reuse":
		return []field{{"leader_index", v.Aux}}
	}
	return nil
}

// RenderTimeline draws one transaction's lifecycle as an aligned table with
// relative timing (Δ from the first event) and each payload as name=value
// pairs.
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
		var pairs []string
		for _, f := range v.payload() {
			pairs = append(pairs, fmt.Sprintf("%s=%v", f.name, f.value))
		}
		lane := v.Lane
		if v.Node != "" {
			lane = v.Node + "/" + lane
		}
		fmt.Fprintf(&b, "  +%-12s %-14s %-13s height=%-5d %s\n", time.Duration(v.TSNs-base).Round(time.Microsecond),
			lane, v.Kind, v.Height, strings.Join(pairs, " "))
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
	var out []Event // the events of the one transaction that matches
	for _, ev := range r.Events() {
		if ev.Tx == (types.Hash{}) || ev.Kind == EvStage || !strings.HasPrefix(strings.TrimPrefix(ev.Tx.String(), "0x"), want) {
			continue
		}
		if len(out) > 0 && ev.Tx != out[0].Tx {
			return nil, errAmbiguousPrefix
		}
		out = append(out, ev)
	}
	if len(out) == 0 {
		return nil, errNoSuchTx
	}
	return out, nil
}

var (
	errEmptyPrefix     = errors.New("empty tx prefix")
	errAmbiguousPrefix = errors.New("tx prefix matches multiple transactions; give more digits")
	errNoSuchTx        = errors.New("no buffered events match that tx")
)
