package trace

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"blockpilot/internal/telemetry"
)

func TestHTTPEndpoints(t *testing.T) {
	prev := Active()
	t.Cleanup(func() { active.Store(prev) })

	h := telemetry.Handler(nil)

	// Disabled: both endpoints reply 503.
	active.Store(nil)
	for _, path := range []string{"/trace/blocks", "/trace/critical-path"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("%s disabled: status %d, want 503", path, rec.Code)
		}
	}

	c := Enable()
	synthExact(c, hash(1), 3, "v0", time.Now())
	synthExact(c, hash(2), 4, "v1", time.Now())

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/trace/blocks?node=v0", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/trace/blocks: status %d", rec.Code)
	}
	var paths []BlockPath
	if err := json.Unmarshal(rec.Body.Bytes(), &paths); err != nil {
		t.Fatalf("/trace/blocks: %v", err)
	}
	if len(paths) != 1 || paths[0].Node != "v0" || !paths[0].Complete {
		t.Fatalf("/trace/blocks?node=v0 returned %+v", paths)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/trace/blocks?spans=1", nil))
	var spans []SpanView
	if err := json.Unmarshal(rec.Body.Bytes(), &spans); err != nil {
		t.Fatalf("spans=1: %v", err)
	}
	if len(spans) != c.Len() {
		t.Fatalf("spans=1 returned %d spans, collector holds %d", len(spans), c.Len())
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/trace/critical-path?n=8", nil))
	var win WindowSummary
	if err := json.Unmarshal(rec.Body.Bytes(), &win); err != nil {
		t.Fatalf("/trace/critical-path: %v", err)
	}
	if win.Blocks != 2 || win.Critical != "execute" {
		t.Fatalf("window %+v, want 2 blocks critical=execute", win)
	}
}
