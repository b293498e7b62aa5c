package telemetry

import (
	"runtime"
	"strings"
	"testing"
)

func TestReadRuntimeInfo(t *testing.T) {
	info := ReadRuntimeInfo()
	if info.GoVersion != runtime.Version() {
		t.Fatalf("GoVersion = %q, want %q", info.GoVersion, runtime.Version())
	}
	if info.GOMAXPROCS != runtime.GOMAXPROCS(0) {
		t.Fatalf("GOMAXPROCS = %d, want %d", info.GOMAXPROCS, runtime.GOMAXPROCS(0))
	}
	if info.Goroutines <= 0 {
		t.Fatalf("Goroutines = %d, want > 0", info.Goroutines)
	}
	if info.HeapInUse == 0 {
		t.Fatalf("HeapInUse = 0, want > 0")
	}
	if info.UptimeS < 0 {
		t.Fatalf("UptimeS = %f, want >= 0", info.UptimeS)
	}
}

// TestReadRuntimeInfoGCPause: the runtime/metrics histograms are read too —
// after a forced collection the pause total is non-zero.
func TestReadRuntimeInfoGCPause(t *testing.T) {
	runtime.GC()
	info := ReadRuntimeInfo()
	if info.GCCycles == 0 || info.GCPauseTotalNs == 0 {
		t.Fatalf("after runtime.GC: gc_cycles %d, gc_pause_total_ns %d", info.GCCycles, info.GCPauseTotalNs)
	}
}

// TestSnapshotCarriesRuntime: every snapshot self-describes its process so
// scraped reports show the node's runtime, and the text report renders the
// one-line header.
func TestSnapshotCarriesRuntime(t *testing.T) {
	s := NewRegistry().Snapshot()
	if s.Runtime == nil {
		t.Fatal("Snapshot.Runtime is nil")
	}
	if s.Runtime.GoVersion != runtime.Version() {
		t.Fatalf("snapshot go version = %q", s.Runtime.GoVersion)
	}
	text := ReportSnapshot(s)
	if !strings.Contains(text, "runtime: "+runtime.Version()) {
		t.Fatalf("report lacks runtime header:\n%s", text)
	}
	if !strings.Contains(text, "GOMAXPROCS=") || !strings.Contains(text, "goroutines=") {
		t.Fatalf("report runtime header incomplete:\n%s", text)
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[uint64]string{
		0:          "0B",
		512:        "512B",
		2048:       "2.0KiB",
		5 << 20:    "5.0MiB",
		3 << 30:    "3.0GiB",
		1536 << 20: "1.5GiB",
	}
	for in, want := range cases {
		if got := FormatBytes(in); got != want {
			t.Errorf("FormatBytes(%d) = %q, want %q", in, got, want)
		}
	}
}
