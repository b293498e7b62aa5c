package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"blockpilot/internal/flight"
	"blockpilot/internal/health"
	"blockpilot/internal/telemetry"
	"blockpilot/internal/trace"
)

// tiny is the local run every test below reads: one block of eight
// transactions.
var tiny = []string{"-blocks", "1", "-txs", "8", "-threads", "2"}

// runLocal runs one subcommand in local mode and returns what it rendered.
// The recorders it turns on are turned off again afterwards.
func runLocal(t *testing.T, main func([]string, io.Writer) error, extra ...string) string {
	t.Helper()
	t.Cleanup(func() {
		flight.Disable()
		trace.Disable()
		health.Disable()
		telemetry.Disable()
	})
	var out bytes.Buffer
	if err := main(append(append([]string{}, tiny...), extra...), &out); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

// wantSections fails unless out contains every section marker, in order.
func wantSections(t *testing.T, out string, sections ...string) {
	t.Helper()
	rest := out
	for _, s := range sections {
		i := strings.Index(rest, s)
		if i < 0 {
			t.Fatalf("output lacks %q (in order):\n%s", s, out)
		}
		rest = rest[i+len(s):]
	}
}

func TestTelemetryLocal(t *testing.T) {
	out := runLocal(t, telemetryMain)
	wantSections(t, out, "telemetry report", "counters:", "blockpilot_proposer_commits_total", "histograms")
}

// TestHotkeysLocal: eight transactions rarely abort, so only the sections
// that render without aborts are required.
func TestHotkeysLocal(t *testing.T) {
	out := runLocal(t, hotkeysMain, "-n", "3")
	wantSections(t, out, "conflict attribution:", "aborts; top-10 keys cover", "stripes", "attempts")
}

func TestTxtraceLocalPicksBusiest(t *testing.T) {
	out := runLocal(t, txtraceMain)
	wantSections(t, out, "tx 0x", "events", "admit", "pop", "exec_start", "commit", "seal", "replay_start", "verify_pass")
}

func TestCritLocal(t *testing.T) {
	out := runLocal(t, critMain)
	wantSections(t, out, "block 1", "node=", "critical=", "seal", "execute", "window: 1 block(s)", "work")
}

// TestHealthLocal: the sampler is stopped with the recorder's own Stop, so
// the recorder stays installed and /health/* still answers.
func TestHealthLocal(t *testing.T) {
	out := runLocal(t, healthMain, "-interval", "5ms")
	wantSections(t, out, "health series", "samples over", "goroutines", "incidents:")
}

func TestTraceOutLocal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	runLocal(t, hotkeysMain, "-trace-out", path)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatalf("trace.json does not parse: %v", err)
	}
	if file.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q, want ms", file.DisplayTimeUnit)
	}
	for _, ev := range file.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" && ev.Pid == 4 && ev.Args["name"] == "blocks" {
			return
		}
	}
	t.Fatal("trace.json has no pid-4 \"blocks\" process")
}

// TestFetchLocalNeedsRecorder: in local mode a view whose recorder is off
// answers like a live node without the flag, 503 and the flag to set.
func TestFetchLocalNeedsRecorder(t *testing.T) {
	prev := flight.Disable()
	t.Cleanup(func() {
		if prev != nil {
			flight.Enable()
		}
	})
	var views []flight.EventView
	err := fetch("", "/flight/events", &views)
	if err == nil || !strings.Contains(err.Error(), "503") || !strings.Contains(err.Error(), "-flight") {
		t.Fatalf("err = %v, want a 503 naming -flight", err)
	}
}
