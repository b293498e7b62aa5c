// HTTP exposition for the health recorder, mounted onto the telemetry mux
// via telemetry.RegisterHTTP (telemetry must not import health, so the
// dependency points this way):
//
//	/health/series [?n=]   sampled window as JSON (last n samples)
//	/health/incidents      watchdog incidents with bundle locations
//
// Both endpoints answer 503 while no recorder is enabled.
package health

import (
	"net/http"

	"blockpilot/internal/telemetry"
)

func init() {
	telemetry.RegisterHTTP("/health/series", http.HandlerFunc(serveSeries))
	telemetry.RegisterHTTP("/health/incidents", http.HandlerFunc(serveIncidents))
}

// SeriesPayload is the /health/series answer.
type SeriesPayload struct {
	IntervalS float64  `json:"interval_s"`
	Samples   []Sample `json:"samples"`
}

// IncidentsPayload is the /health/incidents answer.
type IncidentsPayload struct {
	Incidents []Incident `json:"incidents"`
	Dropped   uint64     `json:"dropped,omitempty"`
}

func serveSeries(w http.ResponseWriter, req *http.Request) {
	r := telemetry.Require(w, Active(), "health recorder", "-health")
	if r == nil {
		return
	}
	samples := r.Series()
	if n := telemetry.QueryN(req); n > 0 && n < len(samples) {
		samples = samples[len(samples)-n:]
	}
	telemetry.WriteJSON(w, SeriesPayload{IntervalS: r.Interval().Seconds(), Samples: samples})
}

func serveIncidents(w http.ResponseWriter, req *http.Request) {
	r := telemetry.Require(w, Active(), "health recorder", "-health")
	if r == nil {
		return
	}
	incidents, dropped := r.Incidents()
	telemetry.WriteJSON(w, IncidentsPayload{Incidents: incidents, Dropped: dropped})
}
