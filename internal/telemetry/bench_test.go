package telemetry

import (
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

// TestDisabledPathBudget enforces the <25ns acceptance bound outside of
// -bench runs so CI catches regressions. It measures a tight loop of the
// full disabled span+observe sequence and allows generous headroom for
// noisy CI hosts (the real cost is a handful of atomic loads).
func TestDisabledPathBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	if raceEnabled {
		t.Skip("race-instrumented atomics blow the timing budget by design")
	}
	Disable()
	const iters = 2_000_000
	var best time.Duration
	for attempt := 0; attempt < 3; attempt++ {
		start := time.Now()
		for i := 0; i < iters; i++ {
			sp := StartSpan(benchHist)
			benchHist.Observe(uint64(i))
			sp.End()
		}
		el := time.Since(start)
		if best == 0 || el < best {
			best = el
		}
	}
	perOp := best / iters
	t.Logf("disabled span+observe: %v/op", perOp)
	if perOp > 25*time.Nanosecond {
		t.Fatalf("disabled instrumentation path too slow: %v/op (budget 25ns)", perOp)
	}
}
