package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"blockpilot/internal/telemetry"
	"blockpilot/internal/trace"
)

func TestScrapeSnapshotOK(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/metrics.json" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{
			"taken_at": "2026-08-06T00:00:00Z",
			"counters": [{"name": "blockpilot_proposer_tx_committed_total", "value": 264}],
			"gauges": [{"name": "blockpilot_adaptive_lane_occupancy", "value": 0.93}]
		}`))
	}))
	defer srv.Close()

	// fetch accepts both a bare host:port and a full URL.
	for _, addr := range []string{srv.URL, strings.TrimPrefix(srv.URL, "http://")} {
		var snap telemetry.Snapshot
		if err := fetch(addr, "/metrics.json", &snap); err != nil {
			t.Fatalf("fetch(%q): %v", addr, err)
		}
		if len(snap.Counters) != 1 || snap.Counters[0].Name != "blockpilot_proposer_tx_committed_total" || snap.Counters[0].Value != 264 {
			t.Fatalf("counters = %+v", snap.Counters)
		}
		if len(snap.Gauges) != 1 || snap.Gauges[0].Value != 0.93 {
			t.Fatalf("gauges = %+v", snap.Gauges)
		}
	}
}

func TestScrapeSnapshotMalformedJSON(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte(`{"counters": {`)) // truncated
	}))
	defer srv.Close()

	var snap telemetry.Snapshot
	err := fetch(srv.URL, "/metrics.json", &snap)
	if err == nil {
		t.Fatal("want a decode error for malformed JSON")
	}
	if !strings.Contains(err.Error(), "decoding /metrics.json") {
		t.Fatalf("error %q does not identify the decode step", err)
	}
}

func TestScrapeSnapshotHTTPError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusInternalServerError)
	}))
	defer srv.Close()

	var snap telemetry.Snapshot
	err := fetch(srv.URL, "/metrics.json", &snap)
	if err == nil || !strings.Contains(err.Error(), "500") {
		t.Fatalf("want a status error mentioning 500, got %v", err)
	}
}

func TestScrapeSnapshotConnectionRefused(t *testing.T) {
	// Bind a listener, learn its address, close it: nothing is listening.
	srv := httptest.NewServer(http.NotFoundHandler())
	addr := strings.TrimPrefix(srv.URL, "http://")
	srv.Close()

	var snap telemetry.Snapshot
	if err := fetch(addr, "/metrics.json", &snap); err == nil {
		t.Fatal("want a connection error when nothing is listening")
	}
}

func TestScrapeFlightOK(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/flight/hotkeys" || r.URL.Query().Get("n") != "5" {
			http.NotFound(w, r)
			return
		}
		_, _ = w.Write([]byte(`{"total_aborts": 7, "top10_key_share": 1,
			"keys": [{"key": "acct:0xab", "count": 7, "share": 1}]}`))
	}))
	defer srv.Close()

	var rep trace.AttributionReport
	if err := fetch(strings.TrimPrefix(srv.URL, "http://"), "/flight/hotkeys?n=5", &rep); err != nil {
		t.Fatal(err)
	}
	if rep.TotalAborts != 7 || len(rep.Keys) != 1 || rep.Keys[0].Key != "acct:0xab" {
		t.Fatalf("decoded report = %+v", rep)
	}
}

func TestScrapeFlightErrors(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/flight/events":
			_, _ = w.Write([]byte(`[{]`)) // malformed
		default:
			http.Error(w, "flight recorder not enabled", http.StatusServiceUnavailable)
		}
	}))
	defer srv.Close()

	var views []trace.EventView
	if err := fetch(srv.URL, "/flight/events", &views); err == nil || !strings.Contains(err.Error(), "decoding /flight/events") {
		t.Fatalf("malformed payload: err = %v", err)
	}
	if err := fetch(srv.URL, "/flight/txtrace?tx=0x1", &views); err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("503 endpoint: err = %v", err)
	}
}
