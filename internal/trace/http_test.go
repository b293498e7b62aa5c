package trace

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"blockpilot/internal/telemetry"
	"blockpilot/internal/types"
)

// TestHTTPEndpoints exercises every view the recorder's slot mounts on the
// telemetry mux: 503 naming -trace while disabled, JSON payloads while a
// recorder is installed. "stages" covers the /trace/* block views, "events"
// the /flight/* transaction views.
func TestHTTPEndpoints(t *testing.T) {
	prev := Active()
	t.Cleanup(func() { active.Store(prev) })

	srv := httptest.NewServer(telemetry.Handler(nil))
	defer srv.Close()

	get := func(t *testing.T, path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, b
	}
	// Disabled: every endpoint answers 503 with a hint.
	disabled := func(t *testing.T, paths ...string) {
		t.Helper()
		active.Store(nil)
		for _, path := range paths {
			code, body := get(t, path)
			if code != http.StatusServiceUnavailable || !strings.Contains(string(body), "-trace") {
				t.Fatalf("disabled %s: status %d body %q", path, code, body)
			}
		}
	}

	t.Run("stages", func(t *testing.T) {
		disabled(t, "/trace/blocks", "/trace/critical-path")

		// Install a recorder and record two blocks' stages.
		r := Enable()
		synthExact(r, hash(1), 3, "v0", time.Now())
		synthExact(r, hash(2), 4, "v1", time.Now())

		code, body := get(t, "/trace/blocks?node=v0")
		var paths []BlockPath
		if err := json.Unmarshal(body, &paths); code != http.StatusOK || err != nil {
			t.Fatalf("/trace/blocks: status %d, %v", code, err)
		}
		if len(paths) != 1 || paths[0].Node != "v0" || !paths[0].Complete {
			t.Fatalf("/trace/blocks?node=v0 returned %+v", paths)
		}

		_, body = get(t, "/trace/blocks?spans=1")
		var spans []SpanView
		if err := json.Unmarshal(body, &spans); err != nil {
			t.Fatalf("spans=1: %v", err)
		}
		if len(spans) != len(r.Spans()) {
			t.Fatalf("spans=1 returned %d spans, recorder holds %d", len(spans), len(r.Spans()))
		}

		_, body = get(t, "/trace/critical-path?n=8")
		var win WindowSummary
		if err := json.Unmarshal(body, &win); err != nil {
			t.Fatalf("/trace/critical-path: %v", err)
		}
		if win.Blocks != 2 || win.Critical != "execute" {
			t.Fatalf("window %+v, want 2 blocks critical=execute", win)
		}
	})

	t.Run("events", func(t *testing.T) {
		disabled(t, "/flight/events", "/flight/txtrace?tx=0x1", "/flight/hotkeys", "/flight/trace.json")

		// Install a recorder and record one abort-then-commit lifecycle.
		Enable()
		tx := mktx(0x11, 0)
		Pop(0, 0, tx, 3)
		Abort(0, 0, tx, types.AccountKey(tx.To), 1, 2, 3)
		Commit(0, 0, tx, 2, 3)

		code, body := get(t, "/flight/events")
		if code != http.StatusOK {
			t.Fatalf("/flight/events: %d", code)
		}
		var views []EventView
		if err := json.Unmarshal(body, &views); err != nil || len(views) != 3 {
			t.Fatalf("/flight/events: %d views, err %v", len(views), err)
		}
		if views[1].Kind != "abort" || views[1].Key == "" || views[1].Tx != tx.Hash().String() {
			t.Fatalf("/flight/events abort view = %+v", views[1])
		}

		code, body = get(t, "/flight/txtrace?tx="+tx.Hash().String())
		if code != http.StatusOK {
			t.Fatalf("/flight/txtrace: %d %s", code, body)
		}
		if err := json.Unmarshal(body, &views); err != nil || len(views) != 3 {
			t.Fatalf("/flight/txtrace: %d views, err %v", len(views), err)
		}
		if code, body = get(t, "/flight/txtrace"); code != http.StatusBadRequest {
			t.Fatalf("missing ?tx=: status %d %s", code, body)
		}
		if code, body = get(t, "/flight/txtrace?tx=zz"); code != http.StatusBadRequest || !strings.Contains(string(body), "no buffered events") {
			t.Fatalf("unknown tx: status %d body %q", code, body)
		}

		code, body = get(t, "/flight/hotkeys?n=5")
		if code != http.StatusOK {
			t.Fatalf("/flight/hotkeys: %d", code)
		}
		var rep AttributionReport
		if err := json.Unmarshal(body, &rep); err != nil || rep.TotalAborts != 1 {
			t.Fatalf("/flight/hotkeys: %+v err %v", rep, err)
		}

		code, body = get(t, "/flight/trace.json")
		if code != http.StatusOK {
			t.Fatalf("/flight/trace.json: %d", code)
		}
		var file map[string]any
		if err := json.Unmarshal(body, &file); err != nil {
			t.Fatalf("/flight/trace.json is not valid JSON: %v", err)
		}
		if _, ok := file["traceEvents"]; !ok {
			t.Fatal("/flight/trace.json missing traceEvents")
		}
	})
}
