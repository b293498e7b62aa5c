package telemetry

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"
)

// withEnabled flips the global instrumentation gate for one test.
func withEnabled(t *testing.T, on bool) {
	t.Helper()
	prev := Enabled()
	if on {
		Enable()
	} else {
		Disable()
	}
	t.Cleanup(func() {
		if prev {
			Enable()
		} else {
			Disable()
		}
	})
}

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("c_total", "test counter")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d", c.Value())
	}
	g := r.NewGauge("g", "test gauge")
	g.Set(7)
	g.Add(-3)
	if g.Value() != 4 {
		t.Fatalf("gauge = %d", g.Value())
	}
	f := r.NewFloatGauge("f", "test float gauge")
	f.Set(1.25)
	if f.Value() != 1.25 {
		t.Fatalf("float gauge = %f", f.Value())
	}
	// Idempotent registration returns the same metric.
	if r.NewCounter("c_total", "dup") != c {
		t.Fatal("duplicate registration returned a new counter")
	}
	s := r.Snapshot()
	if s.Counter("c_total") != 5 || s.Gauge("g") != 4 || s.Gauge("f") != 1.25 {
		t.Fatalf("snapshot mismatch: %+v", s)
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	withEnabled(t, true)
	r := NewRegistry()
	h := r.NewHistogram("lat", "test", "ns")
	// 0 → bucket 0; 1 → [1,2); 3 → [2,4); 1000 → [512,1024).
	for _, v := range []uint64{0, 1, 3, 1000} {
		h.Observe(v)
	}
	hs := r.Snapshot().Histogram("lat")
	if hs == nil || hs.Count != 4 || hs.Sum != 1004 {
		t.Fatalf("histogram snapshot: %+v", hs)
	}
	wantUppers := map[uint64]uint64{1: 1, 2: 1, 4: 1, 1024: 1}
	for _, b := range hs.Buckets {
		if wantUppers[b.UpperBound] != b.Count {
			t.Fatalf("bucket %d count %d; snapshot %+v", b.UpperBound, b.Count, hs)
		}
		delete(wantUppers, b.UpperBound)
	}
	if len(wantUppers) != 0 {
		t.Fatalf("missing buckets %v", wantUppers)
	}
	if q := hs.Quantile(1.0); q < 512 || q > 1024 {
		t.Fatalf("p100 = %f, want within top bucket", q)
	}
	if q := hs.Quantile(0); q != 0 {
		t.Fatalf("p0 = %f", q)
	}
	if m := hs.Mean(); m != 251 {
		t.Fatalf("mean = %f", m)
	}
}

func TestHistogramDisabledIsNoop(t *testing.T) {
	withEnabled(t, false)
	r := NewRegistry()
	h := r.NewHistogram("lat", "test", "ns")
	h.Observe(123)
	h.ObserveDuration(5 * time.Millisecond)
	if hs := r.Snapshot().Histogram("lat"); hs.Count != 0 {
		t.Fatalf("disabled histogram recorded %d observations", hs.Count)
	}
}

func TestSpanRecordsHistogram(t *testing.T) {
	withEnabled(t, true)
	r := NewRegistry()
	h := r.NewHistogram("span_ns", "test", "ns")
	sp := StartSpan(h)
	time.Sleep(time.Millisecond)
	d := sp.End()
	if d <= 0 {
		t.Fatalf("span duration = %v", d)
	}
	if hs := r.Snapshot().Histogram("span_ns"); hs.Count != 1 || hs.Sum != uint64(d) {
		t.Fatalf("span histogram count = %d sum = %d, want 1 observation of %d", hs.Count, hs.Sum, d)
	}
}

func TestSpanDisabledIsZero(t *testing.T) {
	withEnabled(t, false)
	r := NewRegistry()
	h := r.NewHistogram("span_ns", "test", "ns")
	sp := StartSpan(h)
	if d := sp.End(); d != 0 {
		t.Fatalf("disabled span measured %v", d)
	}
	withEnabled(t, true) // a span begun while disabled stays a no-op
	sp.End()
	if hs := r.Snapshot().Histogram("span_ns"); hs.Count != 0 {
		t.Fatalf("disabled span recorded %d observations", hs.Count)
	}
}

func TestRingWraps(t *testing.T) {
	rg := NewRing[uint64](4)
	for i := uint64(0); i < 10; i++ {
		old, evicted := rg.Push(i)
		if evicted != (i >= 4) || (evicted && old != i-4) {
			t.Fatalf("push %d: old=%d evicted=%v", i, old, evicted)
		}
	}
	if rg.Len() != 4 || rg.Total() != 10 {
		t.Fatalf("len=%d total=%d", rg.Len(), rg.Total())
	}
	got := rg.AppendTo([]uint64{99})
	if want := []uint64{99, 6, 7, 8, 9}; !slices.Equal(got, want) {
		t.Fatalf("ring order: %v, want %v", got, want)
	}
	if small := NewRing[int](0); small.Len() != 0 || len(small.buf) != 1 {
		t.Fatalf("capacity floor: %+v", small)
	}
}

func TestPrometheusText(t *testing.T) {
	withEnabled(t, true)
	r := NewRegistry()
	r.NewCounter("foo_total", "a counter").Add(3)
	r.NewGauge("bar", "a gauge").Set(-2)
	h := r.NewHistogram("lat_ns", "a histogram", "ns")
	h.Observe(3)
	h.Observe(1000)
	text := r.Snapshot().PrometheusText()
	for _, want := range []string{
		"# TYPE foo_total counter", "foo_total 3",
		"# TYPE bar gauge", "bar -2",
		"# TYPE lat_ns histogram",
		`lat_ns_bucket{le="4"} 1`,
		`lat_ns_bucket{le="1024"} 2`, // cumulative
		`lat_ns_bucket{le="+Inf"} 2`,
		"lat_ns_sum 1003", "lat_ns_count 2",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("prometheus text missing %q:\n%s", want, text)
		}
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	withEnabled(t, true)
	r := NewRegistry()
	r.NewCounter("foo_total", "h").Inc()
	r.NewHistogram("lat_ns", "h", "ns").Observe(500)
	raw, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counter("foo_total") != 1 || back.Histogram("lat_ns").Count != 1 {
		t.Fatalf("round trip lost data: %+v", back)
	}
}

func TestHTTPHandler(t *testing.T) {
	withEnabled(t, true)
	r := NewRegistry()
	r.NewCounter("hits_total", "").Add(9)
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "hits_total 9") {
		t.Fatalf("/metrics: %d %q", code, body)
	}
	if code, body := get("/metrics.json"); code != 200 || !strings.Contains(body, `"hits_total"`) {
		t.Fatalf("/metrics.json: %d %q", code, body)
	}
	if code, _ := get("/trace"); code != 404 {
		t.Fatalf("/trace: %d, want 404 (spans are served under /trace/blocks)", code)
	}
	if code, body := get("/report"); code != 200 || !strings.Contains(body, "telemetry report") {
		t.Fatalf("/report: %d %q", code, body)
	}
	if code, body := get("/debug/pprof/cmdline"); code != 200 || body == "" {
		t.Fatalf("/debug/pprof/cmdline: %d", code)
	}
	if code, _ := get("/nope"); code != 404 {
		t.Fatalf("unknown path: %d", code)
	}
}

func TestReportRenders(t *testing.T) {
	withEnabled(t, true)
	r := NewRegistry()
	r.NewCounter("blockpilot_proposer_commits_total", "").Add(90)
	r.NewCounter("blockpilot_proposer_aborts_total", "").Add(10)
	h := r.NewHistogram("lat_ns", "latency", "ns")
	for i := 0; i < 100; i++ {
		h.Observe(uint64(1000 * (i + 1)))
	}
	out := ReportSnapshot(r.Snapshot())
	for _, want := range []string{"counters:", "blockpilot_proposer_commits_total", "histograms", "lat_ns", "derived:", "proposer_abort_rate"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "0.1000") {
		t.Fatalf("derived abort rate missing:\n%s", out)
	}
}

func TestDerivedStats(t *testing.T) {
	withEnabled(t, true)
	r := NewRegistry()
	r.NewCounter("blockpilot_proposer_commits_total", "").Add(75)
	r.NewCounter("blockpilot_proposer_aborts_total", "").Add(25)
	r.NewCounter("blockpilot_validator_blocks_total", "").Add(4)
	r.NewCounter("blockpilot_validator_rejects_total", "").Add(1)
	h := r.NewHistogram("blockpilot_pipeline_execute_duration_ns", "", "ns")
	h.ObserveDuration(2 * time.Millisecond)
	d := DerivedStats(r.Snapshot())
	if d["proposer_abort_rate"] != 0.25 {
		t.Fatalf("abort rate = %f", d["proposer_abort_rate"])
	}
	if d["validator_reject_rate"] != 0.2 {
		t.Fatalf("reject rate = %f", d["validator_reject_rate"])
	}
	if p50 := d["pipeline_execute_p50_ms"]; p50 <= 0 || p50 > 10 {
		t.Fatalf("execute p50 = %f ms", p50)
	}
}

func TestConcurrentObservers(t *testing.T) {
	withEnabled(t, true)
	r := NewRegistry()
	c := r.NewCounter("c_total", "")
	h := r.NewHistogram("h", "", "")
	done := make(chan struct{})
	for w := 0; w < 8; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(uint64(w*1000 + i))
				sp := StartSpan(h)
				sp.End()
			}
		}(w)
	}
	for w := 0; w < 8; w++ {
		<-done
	}
	if c.Value() != 8000 {
		t.Fatalf("counter = %d", c.Value())
	}
	if hs := r.Snapshot().Histogram("h"); hs.Count != 16000 {
		t.Fatalf("histogram count = %d", hs.Count)
	}
}

func TestZeroAllocationInstrumentation(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("c_total", "")
	h := r.NewHistogram("h", "", "ns")

	withEnabled(t, false)
	if n := testing.AllocsPerRun(100, func() {
		c.Inc()
		h.Observe(1234)
		sp := StartSpan(h)
		sp.End()
	}); n != 0 {
		t.Fatalf("disabled path allocates %.1f per op", n)
	}

	withEnabled(t, true)
	if n := testing.AllocsPerRun(100, func() {
		c.Inc()
		h.Observe(1234)
		sp := StartSpan(h)
		sp.End()
	}); n != 0 {
		t.Fatalf("enabled path allocates %.1f per op", n)
	}
}
