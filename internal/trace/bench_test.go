package trace

import (
	"math"
	"sync/atomic"
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
// Run by `make ci` (obs-budget).
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

	op, ref := costVsRef(func(n int) {
		for i := 0; i < n; i++ {
			Resolve(nil).RecordSpan("n", StageCommit, benchBlock, 7, t0, t0)
		}
	})
	t.Logf("disabled RecordSpan: %.2f ns/call, reference load %.2f ns", op, ref)
	if op > budgetFactor*ref {
		t.Fatalf("disabled RecordSpan costs %.2f ns per call, over %d× the %.2f ns of one atomic.Pointer load + nil check",
			op, budgetFactor, ref)
	}
	op, ref = costVsRef(func(n int) {
		for i := 0; i < n; i++ {
			Resolve(nil).Begin("n", StageExecute, 7).End(benchBlock)
		}
	})
	t.Logf("disabled Begin+End: %.2f ns/pair, reference load %.2f ns", op, ref)
	if op > budgetFactor*ref {
		t.Fatalf("disabled Begin+End costs %.2f ns per pair, over %d× the %.2f ns of one atomic.Pointer load + nil check",
			op, budgetFactor, ref)
	}
}

// refGate stands for what a disabled helper must reduce to: one
// atomic.Pointer load and a nil check.
var refGate atomic.Pointer[Collector]

// budgetFactor is how many reference loads one disabled call may cost. Both
// are timed in the same test, so the bound moves with the host. The slowest
// disabled call, trace's Begin+End pair, costs about 40 reference loads.
const budgetFactor = 100

// costVsRef times loop against a loop of reference loads, in short
// interleaved chunks, and returns the cheapest chunk of each in ns per
// iteration. A chunk is short enough that on a loaded host (GOMAXPROCS above
// the core count, other test binaries running) some chunks run undisturbed.
func costVsRef(loop func(n int)) (op, ref float64) {
	const chunk, rounds = 10_000, 200
	op, ref = math.Inf(1), math.Inf(1)
	for r := 0; r < rounds; r++ {
		start := time.Now()
		for i := 0; i < chunk; i++ {
			if refGate.Load() != nil {
				panic("reference gate set")
			}
		}
		ref = min(ref, float64(time.Since(start))/chunk)
		start = time.Now()
		loop(chunk)
		op = min(op, float64(time.Since(start))/chunk)
	}
	return op, ref
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
