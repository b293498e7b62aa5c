package trace

import (
	"math"
	"sync/atomic"
	"testing"
	"time"

	"blockpilot/internal/telemetry"
	"blockpilot/internal/types"
)

// disableForTest uninstalls any recorder, turns telemetry off (so Begin has
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

// benchTx is built once: the disabled path must not even compute the hash,
// but a cached hash also keeps the enabled benchmarks honest about ring cost.
var benchTx = func() *types.Transaction {
	tx := mktx(0xbe, 1)
	tx.Hash()
	return tx
}()

// workerSeq hands each parallel benchmark goroutine its own worker id.
var workerSeq atomic.Int64

// TestDisabledPathBudget enforces the zero-cost gate: with no recorder
// installed (and none injected) and telemetry off, every instrumentation
// entry point — the per-transaction helpers ("events"), and the Begin / End
// pair that times each phase with the other stage writers ("stages") — must
// reduce to atomic loads + nil checks and allocate nothing. Run by `make ci`
// (obs-budget).
func TestDisabledPathBudget(t *testing.T) {
	disableForTest(t)

	var t0 time.Time
	key := types.AccountKey(benchTx.From)
	t.Run("events", func(t *testing.T) {
		checkDisabledBudget(t, func() {
			Pop(0, 1, benchTx, 7)
			ExecStart(0, 1, benchTx, 7)
			ExecEnd(0, 1, benchTx, 7)
			Abort(0, 1, benchTx, key, 3, 7)
			Commit(0, 1, benchTx, 9, 7)
		}, []timedLoop{
			{"Commit", func(n int) {
				for i := 0; i < n; i++ {
					Commit(0, 1, benchTx, 9, 7)
				}
			}},
		})
	})
	t.Run("stages", func(t *testing.T) {
		checkDisabledBudget(t, func() {
			r := Resolve(nil)
			r.RecordSpan("n", StageCommit, benchBlock, 7, t0, t0)
			r.Begin("n", StagePrepare, 7).End(benchBlock)
			r.Begin("n", StageStateCommit, 7).End(benchBlock)
			r.Begin("n", StageCommit, 7).Drop()
			r.Delivered("a", "b", 7, benchBlock, 0)
		}, []timedLoop{
			{"RecordSpan", func(n int) {
				for i := 0; i < n; i++ {
					Resolve(nil).RecordSpan("n", StageCommit, benchBlock, 7, t0, t0)
				}
			}},
			{"Begin+End", func(n int) {
				for i := 0; i < n; i++ {
					Resolve(nil).Begin("n", StageExecute, 7).End(benchBlock)
				}
			}},
		})
	})
}

// timedLoop is one disabled entry point, called n times.
type timedLoop struct {
	name string
	loop func(n int)
}

// checkDisabledBudget asserts that calls allocates nothing (checked even
// under -race) and that each loop stays within budgetFactor reference loads
// per call (skipped in -short mode and under the race detector).
func checkDisabledBudget(t *testing.T, calls func(), loops []timedLoop) {
	t.Helper()
	if allocs := testing.AllocsPerRun(1000, calls); allocs != 0 {
		t.Fatalf("disabled helpers allocated %.1f times per run, want 0", allocs)
	}

	if testing.Short() {
		t.Skip("timing half skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("timing half skipped under the race detector")
	}

	for _, c := range loops {
		op, ref := costVsRef(c.loop)
		t.Logf("disabled %s: %.2f ns/call, reference load %.2f ns", c.name, op, ref)
		if op > budgetFactor*ref {
			t.Fatalf("disabled %s costs %.2f ns per call, over %d× the %.2f ns of one atomic.Pointer load + nil check",
				c.name, op, budgetFactor, ref)
		}
	}
}

// refGate stands for what a disabled helper must reduce to: one
// atomic.Pointer load and a nil check.
var refGate atomic.Pointer[Recorder]

// budgetFactor is how many reference loads one disabled call may cost. Both
// are timed in the same test, so the bound moves with the host. The slowest
// disabled call, the Begin+End pair, costs about 40 reference loads.
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
	r := NewRecorder()
	start := time.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.RecordSpan("n", StageCommit, benchBlock, 7, start, start)
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
	r := NewRecorder()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Begin("n", StagePrepare, 7).End(benchBlock)
	}
}

func BenchmarkCommitDisabled(b *testing.B) {
	disableForTest(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Commit(0, 1, benchTx, 9, 7)
	}
}

func BenchmarkAbortDisabled(b *testing.B) {
	disableForTest(b)
	key := types.AccountKey(benchTx.From)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Abort(0, 1, benchTx, key, 3, 7)
	}
}

// enableForBench installs a fresh recorder for one benchmark.
func enableForBench(b *testing.B) {
	prev := Active()
	Enable()
	b.Cleanup(func() { active.Store(prev) })
	b.ReportAllocs()
	b.ResetTimer()
}

func BenchmarkCommitEnabled(b *testing.B) {
	enableForBench(b)
	for i := 0; i < b.N; i++ {
		Commit(0, 1, benchTx, 9, 7)
	}
}

func BenchmarkAbortEnabled(b *testing.B) {
	key := types.AccountKey(benchTx.From)
	enableForBench(b)
	for i := 0; i < b.N; i++ {
		Abort(0, 1, benchTx, key, 3, 7)
	}
}

func BenchmarkCommitEnabledParallel(b *testing.B) {
	enableForBench(b)
	b.RunParallel(func(pb *testing.PB) {
		// Each goroutine writes its own worker ring in steady state.
		worker := int(workerSeq.Add(1))
		for pb.Next() {
			Commit(0, worker, benchTx, 9, 7)
		}
	})
}
