// HTTP exposition: Prometheus text format, JSON snapshots and net/http/pprof —
// everything cmd/blockpilot mounts behind -telemetry-addr — plus the one
// mechanism the sibling recorders (flight, trace, health) install and serve
// through: Slot, whose Serve mounts each recorder's JSON views on every mux.
package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Slot holds the installed instance of one recorder; nil means the recorder
// is off. Loading it and checking for nil is the whole disabled path of the
// recorder's hot-path helpers.
type Slot[T any] struct{ atomic.Pointer[T] }

// View computes one endpoint's answer from the installed recorder: a value
// served as indented JSON, an http.Handler that writes its own answer, or an
// error answered 400.
type View[T any] func(rec *T, req *http.Request) (any, error)

// routes holds the recorder endpoints every Handler mux mounts, by path.
var (
	routesMu sync.Mutex
	routes   = map[string]http.HandlerFunc{}
)

// Serve mounts each view at its path on every Handler mux built afterwards
// (recorder packages call it from init: telemetry must not import them),
// replacing a route already at that path. While no recorder is installed
// the views answer 503, naming what is off and the flag that turns it on.
func (s *Slot[T]) Serve(what, flag string, views map[string]View[T]) {
	routesMu.Lock()
	defer routesMu.Unlock()
	for path, view := range views {
		routes[path] = func(w http.ResponseWriter, req *http.Request) {
			rec := s.Load()
			if rec == nil {
				http.Error(w, what+" not enabled (run with "+flag+")", http.StatusServiceUnavailable)
				return
			}
			v, err := view(rec, req)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
			} else if h, ok := v.(http.Handler); ok {
				h.ServeHTTP(w, req)
			} else {
				WriteJSON(w, v)
			}
		}
	}
}

// HealthzPayload is the /healthz liveness answer: a status plus enough
// runtime identity (uptime, goroutines, GOMAXPROCS, Go version) for a probe
// or a human to tell which process answered and how healthy it looks.
type HealthzPayload struct {
	Status           string  `json:"status"`
	TelemetryEnabled bool    `json:"telemetry_enabled"`
	UptimeS          float64 `json:"uptime_s"`
	GoVersion        string  `json:"go_version"`
	GOMAXPROCS       int     `json:"gomaxprocs"`
	Goroutines       int     `json:"goroutines"`
	HeapInUse        uint64  `json:"heap_inuse_bytes"`
}

// PrometheusText renders the snapshot in the Prometheus text exposition
// format (version 0.0.4). Histograms render cumulatively with `le` labels,
// as Prometheus expects.
func (s *Snapshot) PrometheusText() string {
	var b strings.Builder
	writeNum := func(kind string, list []NumberSnapshot) {
		for _, n := range list {
			if n.Help != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", n.Name, n.Help)
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", n.Name, kind)
			fmt.Fprintf(&b, "%s %s\n", n.Name, formatValue(n.Value))
		}
	}
	writeNum("counter", s.Counters)
	writeNum("gauge", s.Gauges)
	for _, h := range s.Histograms {
		if h.Help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", h.Name, h.Help)
		}
		fmt.Fprintf(&b, "# TYPE %s histogram\n", h.Name)
		var cum uint64
		for _, bk := range h.Buckets {
			cum += bk.Count
			fmt.Fprintf(&b, "%s_bucket{le=\"%d\"} %d\n", h.Name, bk.UpperBound, cum)
		}
		fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", h.Name, h.Count)
		fmt.Fprintf(&b, "%s_sum %d\n", h.Name, h.Sum)
		fmt.Fprintf(&b, "%s_count %d\n", h.Name, h.Count)
	}
	return b.String()
}

// Handler serves the registry over HTTP:
//
//	/metrics              Prometheus text (or JSON with ?format=json)
//	/metrics.json         JSON snapshot (indented)
//	/debug/pprof/...      the standard runtime profiles
//	/                     a plain-text index
func Handler(r *Registry) http.Handler {
	if r == nil {
		r = defaultRegistry
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Query().Get("format") == "json" {
			WriteJSON(w, r.Snapshot())
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write([]byte(r.Snapshot().PrometheusText()))
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, req *http.Request) {
		WriteJSON(w, r.Snapshot())
	})
	mux.HandleFunc("/report", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte(ReportSnapshot(r.Snapshot())))
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		info := ReadRuntimeInfo()
		WriteJSON(w, HealthzPayload{
			Status:           "ok",
			TelemetryEnabled: Enabled(),
			UptimeS:          info.UptimeS,
			GoVersion:        info.GoVersion,
			GOMAXPROCS:       info.GOMAXPROCS,
			Goroutines:       info.Goroutines,
			HeapInUse:        info.HeapInUse,
		})
	})
	routesMu.Lock()
	paths := make([]string, 0, len(routes))
	for path, serve := range routes {
		mux.HandleFunc(path, serve)
		paths = append(paths, path)
	}
	routesMu.Unlock()
	sort.Strings(paths)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "blockpilot telemetry endpoints:")
		for _, p := range []string{"/healthz", "/metrics", "/metrics.json", "/report", "/debug/pprof/"} {
			fmt.Fprintln(w, "  "+p)
		}
		for _, p := range paths {
			fmt.Fprintln(w, "  "+p)
		}
	})
	return mux
}

// WriteJSON answers with v as indented JSON: the one responder behind every
// JSON endpoint on the mux.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// QueryN reads the ?n= row limit the list endpoints take: the positive
// integer given, else 0 (no limit asked for).
func QueryN(req *http.Request) int {
	if n, err := strconv.Atoi(req.URL.Query().Get("n")); err == nil && n > 0 {
		return n
	}
	return 0
}

// ServeContext starts the exposition server on addr in a background
// goroutine and enables telemetry. When ctx is cancelled the server drains
// in-flight requests (up to 2 s) and shuts down, so the listener does not
// leak past the caller's run. The error channel receives the terminal
// ListenAndServe error; on a clean context shutdown that error is
// http.ErrServerClosed.
func ServeContext(ctx context.Context, addr string, r *Registry) (*http.Server, <-chan error) {
	Enable()
	srv := &http.Server{Addr: addr, Handler: Handler(r), ReadHeaderTimeout: 5 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	go func() {
		<-ctx.Done()
		shutCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(shutCtx)
	}()
	return srv, errc
}
