package stats

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Median != 3 || s.Min != 1 || s.Max != 5 {
		t.Fatalf("summary = %+v", s)
	}
	if math.Abs(s.Stddev-math.Sqrt(2)) > 1e-9 {
		t.Fatalf("stddev = %f", s.Stddev)
	}
	if z := Summarize(nil); z.N != 0 || z.Mean != 0 {
		t.Fatal("empty summary nonzero")
	}
}

func TestPercentileInterpolation(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	if p := Percentile(sorted, 0); p != 10 {
		t.Fatalf("p0 = %f", p)
	}
	if p := Percentile(sorted, 100); p != 40 {
		t.Fatalf("p100 = %f", p)
	}
	if p := Percentile(sorted, 50); p != 25 {
		t.Fatalf("p50 = %f", p)
	}
	if p := Percentile([]float64{7}, 99); p != 7 {
		t.Fatalf("single = %f", p)
	}
}

// TestPercentileEdgeCases nails down the contract at the boundaries:
// n=0, n=1, p=0, p=100. Percentile requires an ascending-sorted slice —
// unsorted input yields meaningless interpolation (documented misuse, shown
// here for contrast, not as a supported behavior).
func TestPercentileEdgeCases(t *testing.T) {
	if p := Percentile(nil, 50); p != 0 {
		t.Fatalf("empty p50 = %f, want 0", p)
	}
	if p := Percentile([]float64{}, 0); p != 0 {
		t.Fatalf("empty p0 = %f, want 0", p)
	}
	// n=1: every percentile is the single sample.
	for _, q := range []float64{0, 50, 100} {
		if p := Percentile([]float64{42}, q); p != 42 {
			t.Fatalf("single-sample p%.0f = %f, want 42", q, p)
		}
	}
	// p=0 and p=100 hit the exact extremes, no interpolation drift.
	sorted := []float64{-5, 0, 3, 8, 13}
	if p := Percentile(sorted, 0); p != -5 {
		t.Fatalf("p0 = %f, want min", p)
	}
	if p := Percentile(sorted, 100); p != 13 {
		t.Fatalf("p100 = %f, want max", p)
	}
	// Monotonic in p.
	prev := math.Inf(-1)
	for q := 0.0; q <= 100; q += 5 {
		p := Percentile(sorted, q)
		if p < prev {
			t.Fatalf("percentile not monotonic at p=%.0f: %f < %f", q, p, prev)
		}
		prev = p
	}
	// Documented misuse: unsorted input interpolates positionally and does
	// NOT equal the true percentile — callers must sort first.
	unsorted := []float64{13, -5, 8, 0, 3}
	if p := Percentile(unsorted, 0); p == -5 {
		t.Fatalf("unsorted input coincidentally correct; test needs a better example")
	}
}

// TestSummarizeEdgeCases: n=1 degenerate summary and NaN-free guarantees.
func TestSummarizeEdgeCases(t *testing.T) {
	s := Summarize([]float64{3.5})
	if s.N != 1 || s.Mean != 3.5 || s.Median != 3.5 || s.Min != 3.5 || s.Max != 3.5 ||
		s.P10 != 3.5 || s.P90 != 3.5 || s.Stddev != 0 {
		t.Fatalf("single-sample summary = %+v", s)
	}
	checkNaNFree := func(name string, s Summary) {
		for field, v := range map[string]float64{
			"Mean": s.Mean, "Median": s.Median, "Min": s.Min, "Max": s.Max,
			"P10": s.P10, "P90": s.P90, "Stddev": s.Stddev,
		} {
			if math.IsNaN(v) {
				t.Fatalf("%s: %s is NaN (%+v)", name, field, s)
			}
		}
	}
	checkNaNFree("empty", Summarize(nil))
	checkNaNFree("single", Summarize([]float64{1}))
	checkNaNFree("identical", Summarize([]float64{2, 2, 2, 2}))
	checkNaNFree("negatives", Summarize([]float64{-1, -2, -3}))
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(0, 1, 2)
	for _, v := range []float64{0.5, 1.0, 1.9, 2.0, 99, -1} {
		h.Add(v)
	}
	if h.Total() != 6 {
		t.Fatalf("total = %d", h.Total())
	}
	// buckets: underflow: -1; [0,1): 0.5; [1,2): 1.0, 1.9; [2,∞): 2.0, 99.
	if h.counts[0] != 1 || h.counts[1] != 2 || h.counts[2] != 2 {
		t.Fatalf("counts = %v", h.counts)
	}
	if h.Underflow() != 1 {
		t.Fatalf("underflow = %d", h.Underflow())
	}
	if f := h.Fraction(1); math.Abs(f-2.0/6) > 1e-9 {
		t.Fatalf("fraction = %f", f)
	}
}

// TestHistogramUnderflow is the regression test for the silent-fold bug:
// samples below the first edge used to land in bucket 0, inflating it.
func TestHistogramUnderflow(t *testing.T) {
	h := NewHistogram(10, 20)
	h.Add(5)  // below first edge
	h.Add(-3) // below first edge
	h.Add(10) // bucket 0
	h.Add(25) // overflow bucket
	if h.Underflow() != 2 {
		t.Fatalf("underflow = %d, want 2", h.Underflow())
	}
	if h.counts[0] != 1 {
		t.Fatalf("bucket 0 = %d, want 1 (underflow must not fold in)", h.counts[0])
	}
	if h.Total() != 4 {
		t.Fatalf("total = %d", h.Total())
	}
	out := h.Render("t", func(e float64) string { return fmt.Sprintf("%.0f", e) })
	if !strings.Contains(out, "-inf") {
		t.Fatalf("render must show the underflow row:\n%s", out)
	}
	// No underflow → no underflow row.
	h2 := NewHistogram(0, 1)
	h2.Add(0.5)
	if out := h2.Render("t", func(e float64) string { return "x" }); strings.Contains(out, "-inf") {
		t.Fatalf("unexpected underflow row:\n%s", out)
	}
}

func TestHistogramAddN(t *testing.T) {
	h := NewHistogram(0, 10)
	h.AddN(5, 7)
	h.AddN(-1, 2)
	h.AddN(3, 0)  // no-op
	h.AddN(3, -4) // no-op
	if h.Total() != 9 || h.counts[0] != 7 || h.Underflow() != 2 {
		t.Fatalf("total=%d counts=%v underflow=%d", h.Total(), h.counts, h.Underflow())
	}
}

func TestHistogramRender(t *testing.T) {
	h := NewHistogram(SpeedupEdges()...)
	h.Add(3.2)
	h.Add(1.1)
	out := h.Render("speedups", func(e float64) string { return "x" })
	if !strings.Contains(out, "n=2") {
		t.Fatalf("render: %s", out)
	}
}
