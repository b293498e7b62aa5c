package trace

import (
	"testing"
	"time"

	"blockpilot/internal/telemetry"
	"blockpilot/internal/types"
)

// disableForTest uninstalls any collector, turns telemetry off (so Begin has
// no histogram to feed either) and restores both afterwards.
func disableForTest(tb testing.TB) {
	tb.Helper()
	prev, wasOn := Active(), telemetry.Enabled()
	active.Store(nil)
	telemetry.Disable()
	tb.Cleanup(func() {
		active.Store(prev)
		if wasOn {
			telemetry.Enable()
		}
	})
}

var benchBlock = types.Hash{0xbe, 0xef}

// TestDisabledPathBudget enforces the ISSUE 6 zero-cost gate: with no
// collector installed (and none injected) and telemetry off, every
// instrumentation entry point — the Begin / End pair that times each phase
// included — must reduce to atomic loads + nil checks and allocate nothing.
// Run by `make ci` (trace-budget).
func TestDisabledPathBudget(t *testing.T) {
	disableForTest(t)

	// Allocation half of the gate: hard zero, checked even under -race.
	var t0 time.Time
	allocs := testing.AllocsPerRun(1000, func() {
		c := Resolve(nil)
		c.RecordSpan("n", StageCommit, benchBlock, 7, t0, t0)
		c.Begin("n", StagePrepare, 7).End(benchBlock)
		c.Begin("n", StageStateCommit, 7).End(benchBlock)
		c.Begin("n", StageCommit, 7).Drop()
		c.Delivered("a", "b", 7, benchBlock, Context{})
		_ = c.ContextFor(benchBlock)
	})
	if allocs != 0 {
		t.Fatalf("disabled helpers allocated %.1f times per run, want 0", allocs)
	}

	if testing.Short() {
		t.Skip("timing half skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("timing half skipped under the race detector")
	}

	const iters = 2_000_000
	const budget = 25 * time.Nanosecond
	best := time.Duration(1<<63 - 1)
	for attempt := 0; attempt < 3; attempt++ {
		start := time.Now()
		for i := 0; i < iters; i++ {
			Resolve(nil).RecordSpan("n", StageCommit, benchBlock, 7, t0, t0)
		}
		if d := time.Since(start) / iters; d < best {
			best = d
		}
	}
	if best > budget {
		t.Fatalf("disabled RecordSpan costs %v per call, budget %v", best, budget)
	}
	best = time.Duration(1<<63 - 1)
	for attempt := 0; attempt < 3; attempt++ {
		start := time.Now()
		for i := 0; i < iters; i++ {
			Resolve(nil).Begin("n", StageExecute, 7).End(benchBlock)
		}
		if d := time.Since(start) / iters; d < best {
			best = d
		}
	}
	if best > budget {
		t.Fatalf("disabled Begin+End costs %v per pair, budget %v", best, budget)
	}
}

func BenchmarkRecordSpanDisabled(b *testing.B) {
	disableForTest(b)
	var t0 time.Time
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Resolve(nil).RecordSpan("n", StageCommit, benchBlock, 7, t0, t0)
	}
}

func BenchmarkRecordSpanEnabled(b *testing.B) {
	c := NewCollector(4096)
	start := time.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.RecordSpan("n", StageCommit, benchBlock, 7, start, start)
	}
}

func BenchmarkBeginEndDisabled(b *testing.B) {
	disableForTest(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Resolve(nil).Begin("n", StagePrepare, 7).End(benchBlock)
	}
}

func BenchmarkBeginEndEnabled(b *testing.B) {
	c := NewCollector(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Begin("n", StagePrepare, 7).End(benchBlock)
	}
}
