package telemetry

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestHealthz(t *testing.T) {
	srv := httptest.NewServer(Handler(nil))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz returned %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Fatalf("/healthz content type %q", ct)
	}
	var body HealthzPayload
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("/healthz is not valid JSON: %v", err)
	}
	if body.Status != "ok" {
		t.Fatalf("status = %q, want ok", body.Status)
	}
	if body.TelemetryEnabled != Enabled() {
		t.Fatalf("telemetry_enabled = %t, want %t", body.TelemetryEnabled, Enabled())
	}
	if body.Goroutines <= 0 {
		t.Fatalf("goroutines = %d, want > 0", body.Goroutines)
	}
	if body.GOMAXPROCS != runtime.GOMAXPROCS(0) {
		t.Fatalf("gomaxprocs = %d, want %d", body.GOMAXPROCS, runtime.GOMAXPROCS(0))
	}
	if body.GoVersion != runtime.Version() {
		t.Fatalf("go_version = %q, want %q", body.GoVersion, runtime.Version())
	}
	if body.UptimeS < 0 {
		t.Fatalf("uptime_s = %f, want >= 0", body.UptimeS)
	}
	if body.HeapInUse == 0 {
		t.Fatalf("heap_inuse_bytes = 0, want > 0")
	}
}

// TestSlotServesViews: a slot's views are mounted on every Handler mux and
// listed on the index; they answer 503 while nothing is installed, then JSON,
// a handler's own answer, or 400 for an error.
func TestSlotServesViews(t *testing.T) {
	type recorder struct{ N int }
	var slot Slot[recorder]
	slot.Serve("test recorder", "-test", map[string]View[recorder]{
		"/test/slot/json": func(rec *recorder, req *http.Request) (any, error) {
			return rec, nil
		},
		"/test/slot/raw": func(rec *recorder, req *http.Request) (any, error) {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.WriteHeader(http.StatusTeapot)
				_, _ = w.Write([]byte("raw"))
			}), nil
		},
		"/test/slot/err": func(rec *recorder, req *http.Request) (any, error) {
			return nil, errors.New("bad query")
		},
	})

	srv := httptest.NewServer(Handler(nil))
	defer srv.Close()
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(b)
	}

	if code, body := get("/test/slot/json"); code != http.StatusServiceUnavailable ||
		body != "test recorder not enabled (run with -test)\n" {
		t.Fatalf("empty slot: status %d body %q", code, body)
	}
	slot.Store(&recorder{N: 7})
	if code, body := get("/test/slot/json"); code != http.StatusOK || body != "{\n  \"N\": 7\n}\n" {
		t.Fatalf("json view: status %d body %q", code, body)
	}
	if code, body := get("/test/slot/raw"); code != http.StatusTeapot || body != "raw" {
		t.Fatalf("handler view: status %d body %q", code, body)
	}
	if code, body := get("/test/slot/err"); code != http.StatusBadRequest || !strings.Contains(body, "bad query") {
		t.Fatalf("error view: status %d body %q", code, body)
	}
	if _, body := get("/"); !strings.Contains(body, "/test/slot/json") || !strings.Contains(body, "/healthz") {
		t.Fatalf("index does not list /test/slot/json and /healthz:\n%s", body)
	}
}

// TestServeContextShutdown checks the satellite: cancelling the context
// shuts the exposition server down cleanly (terminal error is
// http.ErrServerClosed and the port is released).
func TestServeContextShutdown(t *testing.T) {
	// Pick a free port first so ListenAndServe binds deterministically.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	ctx, cancel := context.WithCancel(context.Background())
	_, errc := ServeContext(ctx, addr, nil)

	// Wait for the server to come up, then prove /healthz answers.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never came up on %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	cancel()
	select {
	case err := <-errc:
		if err != http.ErrServerClosed {
			t.Fatalf("terminal error = %v, want http.ErrServerClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not shut down within 5s of context cancellation")
	}

	// The listener is gone: a fresh request must fail to connect.
	if _, err := (&http.Client{Timeout: time.Second}).Get("http://" + addr + "/healthz"); err == nil {
		t.Fatal("server still answering after shutdown")
	}
}
