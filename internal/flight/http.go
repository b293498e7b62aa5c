// HTTP exposition for the flight recorder, mounted onto the telemetry mux
// via telemetry.RegisterHTTP (telemetry must not import flight, so the
// dependency points this way):
//
//	/flight/events         full buffered event stream as JSON views
//	/flight/txtrace?tx=    one transaction's lifecycle timeline
//	/flight/hotkeys        conflict-attribution report (?n= top-N)
//	/flight/trace.json     Chrome trace-event file for Perfetto
//
// All endpoints answer 503 while no recorder is enabled.
package flight

import (
	"net/http"
	"strings"

	"blockpilot/internal/telemetry"
	"blockpilot/internal/trace"
	"blockpilot/internal/types"
)

func init() {
	telemetry.RegisterHTTP("/flight/events", http.HandlerFunc(serveEvents))
	telemetry.RegisterHTTP("/flight/txtrace", http.HandlerFunc(serveTxTrace))
	telemetry.RegisterHTTP("/flight/hotkeys", http.HandlerFunc(serveHotKeys))
	telemetry.RegisterHTTP("/flight/trace.json", http.HandlerFunc(serveTraceJSON))
}

func serveEvents(w http.ResponseWriter, req *http.Request) {
	r := telemetry.Require(w, Active(), "flight recorder", "-flight")
	if r == nil {
		return
	}
	telemetry.WriteJSON(w, Views(r.Events()))
}

// serveTxTrace serves /flight/txtrace?tx=0x… — the per-tx timeline payload.
func serveTxTrace(w http.ResponseWriter, req *http.Request) {
	r := telemetry.Require(w, Active(), "flight recorder", "-flight")
	if r == nil {
		return
	}
	txParam := req.URL.Query().Get("tx")
	if txParam == "" {
		http.Error(w, "missing ?tx=<hash or unique prefix>", http.StatusBadRequest)
		return
	}
	evs, err := r.TimelineByPrefix(txParam)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	telemetry.WriteJSON(w, Views(evs))
}

func serveHotKeys(w http.ResponseWriter, req *http.Request) {
	r := telemetry.Require(w, Active(), "flight recorder", "-flight")
	if r == nil {
		return
	}
	telemetry.WriteJSON(w, r.Attribution(telemetry.QueryN(req))) // 0 = the default top-N
}

func serveTraceJSON(w http.ResponseWriter, req *http.Request) {
	r := telemetry.Require(w, Active(), "flight recorder", "-flight")
	if r == nil {
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Header().Set("Content-Disposition", `attachment; filename="trace.json"`)
	_ = r.WriteTrace(w, trace.Active().Spans())
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
