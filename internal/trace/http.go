// HTTP exposition for the block tracer, registered onto every
// telemetry.Handler mux at init time (the same pattern internal/flight
// uses — telemetry must not import trace):
//
//	/trace/blocks         per-(block, node) critical paths as JSON
//	                      (?node=v0 filters, ?n=16 keeps the newest 16,
//	                       ?spans=1 serves the raw span ring instead)
//	/trace/critical-path  the sliding-window summary as JSON
//	                      (?n=32 window size, ?node=v0 filters)
//
// Both return 503 while no collector is installed.
package trace

import (
	"net/http"

	"blockpilot/internal/telemetry"
)

func init() {
	telemetry.RegisterHTTP("/trace/blocks", http.HandlerFunc(serveBlocks))
	telemetry.RegisterHTTP("/trace/critical-path", http.HandlerFunc(serveCriticalPath))
}

func serveBlocks(w http.ResponseWriter, req *http.Request) {
	c := telemetry.Require(w, Active(), "block tracer", "-trace")
	if c == nil {
		return
	}
	node := req.URL.Query().Get("node")
	if req.URL.Query().Get("spans") == "1" {
		spans := c.Spans()
		views := make([]SpanView, 0, len(spans))
		for i := range spans {
			if node != "" && spans[i].Node != node {
				continue
			}
			views = append(views, spans[i].View())
		}
		telemetry.WriteJSON(w, views)
		return
	}
	paths := c.Paths(node)
	if n := telemetry.QueryN(req); n > 0 && len(paths) > n {
		paths = paths[len(paths)-n:]
	}
	views := make([]PathView, 0, len(paths))
	for i := range paths {
		views = append(views, paths[i].View())
	}
	telemetry.WriteJSON(w, views)
}

func serveCriticalPath(w http.ResponseWriter, req *http.Request) {
	c := telemetry.Require(w, Active(), "block tracer", "-trace")
	if c == nil {
		return
	}
	win := c.Window(telemetry.QueryN(req), req.URL.Query().Get("node"))
	telemetry.WriteJSON(w, win.View())
}
