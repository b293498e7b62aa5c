package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

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
	wantSections(t, out, "conflict attribution:", "aborts; top-10 keys cover")
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

// TestTraceOutLocal reads the trace.json of one proposer and one validator:
// a blocks process, and one clock under both timelines — each validated
// block's execute stage on the validator encloses every replay slice at its
// height, and its seal stage on the proposer every exec slice at its height.
func TestTraceOutLocal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	runLocal(t, hotkeysMain, "-trace-out", path)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	type slice struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	var file struct {
		TraceEvents     []slice `json:"traceEvents"`
		DisplayTimeUnit string  `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatalf("trace.json does not parse: %v", err)
	}
	if file.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q, want ms", file.DisplayTimeUnit)
	}
	blocks := false
	nodes := map[int]string{} // pid-4 tid → thread name
	for _, ev := range file.TraceEvents {
		if ev.Ph == "M" && ev.Pid == 4 {
			blocks = blocks || ev.Name == "process_name" && ev.Args["name"] == "blocks"
			nodes[ev.Tid], _ = ev.Args["name"].(string)
		}
	}
	if !blocks {
		t.Fatal("trace.json has no pid-4 \"blocks\" process")
	}

	// Per (node, height): the enclosing stage and the slices it must enclose.
	type key struct {
		node   string
		height float64
	}
	type window struct {
		outer *slice
		inner []slice
	}
	windows := map[key]*window{}
	at := func(node string, ev *slice) *window {
		h, _ := ev.Args["height"].(float64)
		k := key{node, h}
		if windows[k] == nil {
			windows[k] = &window{}
		}
		return windows[k]
	}
	for i := range file.TraceEvents {
		ev := &file.TraceEvents[i]
		switch {
		case ev.Ph != "X":
		case ev.Pid == 4 && nodes[ev.Tid] == "node:validator" && strings.HasPrefix(ev.Name, "execute "):
			at("validator", ev).outer = ev
		case ev.Pid == 4 && nodes[ev.Tid] == "node:proposer" && strings.HasPrefix(ev.Name, "seal "):
			at("proposer", ev).outer = ev
		case ev.Pid == 2 && strings.HasPrefix(ev.Name, "replay "):
			w := at("validator", ev)
			w.inner = append(w.inner, *ev)
		case ev.Pid == 1 && strings.HasPrefix(ev.Name, "exec "):
			w := at("proposer", ev)
			w.inner = append(w.inner, *ev)
		}
	}
	const slack = 1e-3 // µs: one nanosecond of float rounding
	checked := map[string]int{}
	for k, w := range windows {
		if w.outer == nil {
			t.Fatalf("%+v: %d slices without the stage that should enclose them", k, len(w.inner))
		}
		for _, in := range w.inner {
			if in.TS < w.outer.TS-slack || in.TS+in.Dur > w.outer.TS+w.outer.Dur+slack {
				t.Fatalf("%+v: %s [%.3f, %.3f] µs lies outside %s [%.3f, %.3f] µs", k,
					in.Name, in.TS, in.TS+in.Dur, w.outer.Name, w.outer.TS, w.outer.TS+w.outer.Dur)
			}
		}
		checked[k.node] += len(w.inner)
	}
	if checked["validator"] == 0 || checked["proposer"] == 0 {
		t.Fatalf("enclosure checked on %v slices: want replay and exec slices both", checked)
	}
}

// TestFetchLocalNeedsRecorder: in local mode a view whose recorder is off
// answers like a live node without the flag, 503 and the flag to set.
func TestFetchLocalNeedsRecorder(t *testing.T) {
	prev := trace.Disable()
	t.Cleanup(func() {
		if prev != nil {
			trace.Enable()
		}
	})
	var views []trace.EventView
	err := fetch("", "/flight/events", &views)
	if err == nil || !strings.Contains(err.Error(), "503") || !strings.Contains(err.Error(), "-trace") {
		t.Fatalf("err = %v, want a 503 naming -trace", err)
	}
}
