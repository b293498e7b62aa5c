package flight

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"blockpilot/internal/telemetry"
	"blockpilot/internal/types"
)

// TestHTTPEndpoints exercises the /flight/* views the recorder's slot mounts
// on the telemetry mux: 503 while disabled, JSON payloads while a recorder is
// installed.
func TestHTTPEndpoints(t *testing.T) {
	prev := Active()
	active.Store(nil)
	t.Cleanup(func() { active.Store(prev) })

	srv := httptest.NewServer(telemetry.Handler(nil))
	defer srv.Close()

	get := func(path string) (int, []byte) {
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
	for _, path := range []string{"/flight/events", "/flight/txtrace?tx=0x1", "/flight/hotkeys", "/flight/trace.json"} {
		code, body := get(path)
		if code != http.StatusServiceUnavailable || !strings.Contains(string(body), "-flight") {
			t.Fatalf("disabled %s: status %d body %q", path, code, body)
		}
	}

	// Install a recorder and record one abort-then-commit lifecycle.
	Enable()
	tx := mktx(0x11, 0)
	Pop(0, tx, 3)
	Abort(0, tx, types.AccountKey(tx.To), 1, 2, 3)
	Commit(0, tx, 2, 3)

	code, body := get("/flight/events")
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

	code, body = get("/flight/txtrace?tx=" + tx.Hash().String())
	if code != http.StatusOK {
		t.Fatalf("/flight/txtrace: %d %s", code, body)
	}
	if err := json.Unmarshal(body, &views); err != nil || len(views) != 3 {
		t.Fatalf("/flight/txtrace: %d views, err %v", len(views), err)
	}
	if code, body = get("/flight/txtrace"); code != http.StatusBadRequest {
		t.Fatalf("missing ?tx=: status %d %s", code, body)
	}
	if code, body = get("/flight/txtrace?tx=zz"); code != http.StatusBadRequest || !strings.Contains(string(body), "no buffered events") {
		t.Fatalf("unknown tx: status %d body %q", code, body)
	}

	code, body = get("/flight/hotkeys?n=5")
	if code != http.StatusOK {
		t.Fatalf("/flight/hotkeys: %d", code)
	}
	var rep AttributionReport
	if err := json.Unmarshal(body, &rep); err != nil || rep.TotalAborts != 1 {
		t.Fatalf("/flight/hotkeys: %+v err %v", rep, err)
	}

	code, body = get("/flight/trace.json")
	if code != http.StatusOK {
		t.Fatalf("/flight/trace.json: %d", code)
	}
	var trace map[string]any
	if err := json.Unmarshal(body, &trace); err != nil {
		t.Fatalf("/flight/trace.json is not valid JSON: %v", err)
	}
	if _, ok := trace["traceEvents"]; !ok {
		t.Fatal("/flight/trace.json missing traceEvents")
	}
}
