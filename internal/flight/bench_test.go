package flight

import (
	"math"
	"sync/atomic"
	"testing"
	"time"

	"blockpilot/internal/types"
)

// workerSeq hands each parallel benchmark goroutine its own worker id.
var workerSeq atomic.Int64

// benchTx is built once: the disabled path must not even compute the hash,
// but a cached hash also keeps the enabled benchmarks honest about ring cost.
var benchTx = func() *types.Transaction {
	tx := mktx(0xbe, 1)
	tx.Hash()
	return tx
}()

// disableForTest uninstalls any recorder and restores it afterwards.
func disableForTest(tb testing.TB) {
	tb.Helper()
	prev := Active()
	active.Store(nil)
	tb.Cleanup(func() { active.Store(prev) })
}

// TestDisabledPathBudget enforces the ISSUE 3 zero-cost gate: with no
// recorder installed every hot-path helper must be a single atomic load and
// allocate nothing. Run by `make ci`.
func TestDisabledPathBudget(t *testing.T) {
	disableForTest(t)

	// Allocation half of the gate: hard zero, checked even under -race.
	key := types.AccountKey(benchTx.From)
	allocs := testing.AllocsPerRun(1000, func() {
		Pop(1, benchTx, 7)
		ExecStart(1, benchTx, 7)
		ExecEnd(1, benchTx, 7)
		Abort(1, benchTx, key, 3, 5, 7)
		Commit(1, benchTx, 9, 7)
		StripeWait(0b101, time.Microsecond)
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
			Commit(1, benchTx, 9, 7)
		}
	})
	t.Logf("disabled Commit: %.2f ns/call, reference load %.2f ns", op, ref)
	if op > budgetFactor*ref {
		t.Fatalf("disabled Commit costs %.2f ns per call, over %d× the %.2f ns of one atomic.Pointer load + nil check",
			op, budgetFactor, ref)
	}
}

// refGate stands for what a disabled helper must reduce to: one
// atomic.Pointer load and a nil check.
var refGate atomic.Pointer[Recorder]

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

func BenchmarkCommitDisabled(b *testing.B) {
	disableForTest(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Commit(1, benchTx, 9, 7)
	}
}

func BenchmarkAbortDisabled(b *testing.B) {
	disableForTest(b)
	key := types.AccountKey(benchTx.From)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Abort(1, benchTx, key, 3, 5, 7)
	}
}

func BenchmarkCommitEnabled(b *testing.B) {
	prev := Active()
	Enable()
	b.Cleanup(func() { active.Store(prev) })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Commit(1, benchTx, 9, 7)
	}
}

func BenchmarkAbortEnabled(b *testing.B) {
	prev := Active()
	Enable()
	b.Cleanup(func() { active.Store(prev) })
	key := types.AccountKey(benchTx.From)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Abort(1, benchTx, key, 3, 5, 7)
	}
}

func BenchmarkCommitEnabledParallel(b *testing.B) {
	prev := Active()
	Enable()
	b.Cleanup(func() { active.Store(prev) })
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// Each goroutine writes its own worker ring in steady state.
		worker := int(workerSeq.Add(1))
		for pb.Next() {
			Commit(worker, benchTx, 9, 7)
		}
	})
}
