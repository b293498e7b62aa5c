// Auto-triage incident bundles: when a watchdog rule fires, the recorder
// snapshots everything a human needs to diagnose the episode into a
// timestamped directory — the incident record with its triggering sample
// window, a full goroutine dump, the telemetry snapshot, and (when the trace
// recorder is on) the Perfetto file of its buffered events.
package health

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"

	"blockpilot/internal/telemetry"
	"blockpilot/internal/trace"
)

// incidentBundle is the incident.json payload: the incident plus the sample
// window that triggered it (most recent last).
type incidentBundle struct {
	Incident Incident `json:"incident"`
	Samples  []Sample `json:"samples"`
}

// bundleWindow caps how many trailing samples land in incident.json.
const bundleWindow = 64

// writeBundle writes the diagnostic bundle for inc under baseDir and
// returns the bundle directory. Partial bundles return the directory plus
// the first error; the caller records both.
func writeBundle(baseDir string, inc *Incident, window []Sample, reg *telemetry.Registry) (string, error) {
	name := fmt.Sprintf("incident-%03d-%s-%s",
		inc.Seq, sanitize(inc.Rule), inc.At.UTC().Format("20060102T150405.000"))
	dir := filepath.Join(baseDir, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}

	if len(window) > bundleWindow {
		window = window[len(window)-bundleWindow:]
	}
	keep(writeJSON(filepath.Join(dir, "incident.json"), incidentBundle{
		Incident: *inc,
		Samples:  window,
	}))
	keep(writeGoroutines(filepath.Join(dir, "goroutines.txt")))
	keep(writeJSON(filepath.Join(dir, "telemetry.json"), reg.Snapshot()))
	if tr := trace.Active(); tr != nil {
		keep(tr.WriteTraceFile(filepath.Join(dir, "trace.json")))
	}
	return dir, firstErr
}

func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeGoroutines dumps every goroutine stack (pprof debug=2 text form).
func writeGoroutines(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	p := pprof.Lookup("goroutine")
	if p == nil {
		f.Close()
		return fmt.Errorf("goroutine profile unavailable")
	}
	if err := p.WriteTo(f, 2); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sanitize keeps rule names path-safe.
func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		}
		return '_'
	}, s)
}
