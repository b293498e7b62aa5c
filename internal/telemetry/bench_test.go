package telemetry

import (
	"math"
	"sync/atomic"
	"testing"
	"time"
)

// The ISSUE 1 acceptance bar: the no-op (disabled) instrumentation path
// must cost < 25 ns/op with zero allocations. Run with:
//
//	go test -bench=. -benchmem ./internal/telemetry/
var (
	benchCounter = NewCounter("bench_counter_total", "benchmark counter")
	benchGauge   = NewGauge("bench_gauge", "benchmark gauge")
	benchHist    = NewHistogram("bench_hist_ns", "benchmark histogram", "ns")
)

func BenchmarkCounterInc(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchCounter.Inc()
	}
}

func BenchmarkGaugeSet(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchGauge.Set(int64(i))
	}
}

func BenchmarkHistogramObserveDisabled(b *testing.B) {
	Disable()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchHist.Observe(uint64(i))
	}
}

func BenchmarkHistogramObserveEnabled(b *testing.B) {
	Enable()
	defer Disable()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchHist.Observe(uint64(i))
	}
}

func BenchmarkSpanDisabled(b *testing.B) {
	Disable()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := StartSpan(benchHist)
		sp.End()
	}
}

func BenchmarkSpanEnabled(b *testing.B) {
	Enable()
	defer Disable()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := StartSpan(benchHist)
		sp.End()
	}
}

func BenchmarkHistogramObserveParallel(b *testing.B) {
	Enable()
	defer Disable()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		v := uint64(0)
		for pb.Next() {
			v += 1237
			benchHist.Observe(v)
		}
	})
}

// TestDisabledPathBudget bounds the disabled span+observe sequence outside
// of -bench runs so CI catches regressions: a tight loop of it may cost at
// most budgetFactor times a loop of reference atomic loads timed beside it
// (the real cost is a handful of atomic loads).
func TestDisabledPathBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	if raceEnabled {
		t.Skip("race-instrumented atomics blow the timing budget by design")
	}
	Disable()
	op, ref := costVsRef(func(n int) {
		for i := 0; i < n; i++ {
			sp := StartSpan(benchHist)
			benchHist.Observe(uint64(i))
			sp.End()
		}
	})
	t.Logf("disabled span+observe: %.2f ns/op, reference load %.2f ns", op, ref)
	if op > budgetFactor*ref {
		t.Fatalf("disabled instrumentation path costs %.2f ns/op, over %d× the %.2f ns of one atomic.Pointer load + nil check",
			op, budgetFactor, ref)
	}
}

// refGate stands for what a disabled helper must reduce to: one
// atomic.Pointer load and a nil check.
var refGate atomic.Pointer[Registry]

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
