package health

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"blockpilot/internal/telemetry"
)

// fakeClock advances a deterministic amount per call.
type fakeClock struct {
	now  time.Time
	step time.Duration
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1700000000, 0).UTC(), step: 250 * time.Millisecond}
}

func (c *fakeClock) Now() time.Time {
	c.now = c.now.Add(c.step)
	return c.now
}

// probeState drives a synthetic counter/gauge feed.
type probeState struct {
	counters map[string]float64
	gauges   map[string]float64
}

func (p *probeState) probe() (map[string]float64, map[string]float64) {
	c := make(map[string]float64, len(p.counters))
	for k, v := range p.counters {
		c[k] = v
	}
	g := make(map[string]float64, len(p.gauges))
	for k, v := range p.gauges {
		g[k] = v
	}
	return c, g
}

// testRecorder builds a manually-polled recorder with a fake clock, a
// synthetic probe, zeroed runtime stats, and no rules unless given.
func testRecorder(t *testing.T, opts Options, probe *probeState) *Recorder {
	t.Helper()
	return testRecorderSized(t, opts, probe, ringCapacity, maxIncidents)
}

// testRecorderSized is testRecorder with the ring and incident caps given.
func testRecorderSized(t *testing.T, opts Options, probe *probeState, ringCap, incidentCap int) *Recorder {
	t.Helper()
	opts.Now = newFakeClock().Now
	if opts.Runtime == nil {
		opts.Runtime = func() telemetry.RuntimeInfo { return telemetry.RuntimeInfo{} }
	}
	if probe != nil {
		opts.Probe = probe.probe
	} else {
		opts.Probe = func() (map[string]float64, map[string]float64) { return nil, nil }
	}
	if opts.Rules == nil {
		opts.Rules = []Rule{} // non-nil empty: watchdog off
	}
	r, err := newRecorder(opts, ringCap, incidentCap)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRingWraparound(t *testing.T) {
	r := testRecorderSized(t, Options{}, nil, 4, maxIncidents)
	for i := 0; i < 10; i++ {
		r.Poll()
	}
	s := r.Series()
	if len(s) != 4 {
		t.Fatalf("series length = %d, want ring capacity 4", len(s))
	}
	// Oldest-first ordering with the newest 4 of 10 sequence numbers.
	for i, want := range []uint64{7, 8, 9, 10} {
		if s[i].Seq != want {
			t.Fatalf("series[%d].Seq = %d, want %d (series %+v)", i, s[i].Seq, want, s)
		}
	}
	if !s[3].At.After(s[0].At) {
		t.Fatalf("samples not time-ordered: %v .. %v", s[0].At, s[3].At)
	}
}

func TestCounterDeltas(t *testing.T) {
	p := &probeState{counters: map[string]float64{"x_total": 10}, gauges: map[string]float64{"g": 3}}
	r := testRecorder(t, Options{}, p)

	r.Poll() // baseline
	p.counters["x_total"] = 25
	p.gauges["g"] = 7
	r.Poll()
	p.counters["x_total"] = 25 // no movement
	r.Poll()

	s := r.Series()
	if len(s) != 3 {
		t.Fatalf("series length = %d", len(s))
	}
	if s[0].Deltas != nil {
		t.Fatalf("first sample must carry no deltas, got %v", s[0].Deltas)
	}
	if got := s[1].Deltas["x_total"]; got != 15 {
		t.Fatalf("second sample delta = %v, want 15", got)
	}
	if got := s[2].Deltas["x_total"]; got != 0 {
		t.Fatalf("third sample delta = %v, want 0", got)
	}
	if got := s[1].Gauges["g"]; got != 7 {
		t.Fatalf("gauge = %v, want 7", got)
	}
	if got := s[1].Counters["x_total"]; got != 25 {
		t.Fatalf("cumulative counter = %v, want 25", got)
	}
}

func TestJSONLSpill(t *testing.T) {
	var buf bytes.Buffer
	p := &probeState{counters: map[string]float64{"x_total": 1}}
	r := testRecorder(t, Options{Out: &buf}, p)
	for i := 0; i < 5; i++ {
		p.counters["x_total"]++
		r.Poll()
	}
	sc := bufio.NewScanner(&buf)
	n := 0
	var last Sample
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("line %d is not valid JSON: %v", n+1, err)
		}
		n++
	}
	if n != 5 {
		t.Fatalf("spilled %d lines, want 5", n)
	}
	if last.Seq != 5 || last.Counters["x_total"] != 6 {
		t.Fatalf("last spilled sample: %+v", last)
	}
	if last.Deltas["x_total"] != 1 {
		t.Fatalf("last spilled delta = %v, want 1", last.Deltas["x_total"])
	}
}

// TestHealthSmoke runs the real background sampler against the live
// runtime and registry for a few ticks. Wired into `make ci` (short mode).
func TestHealthSmoke(t *testing.T) {
	var buf bytes.Buffer
	r, err := Enable(Options{Interval: 5 * time.Millisecond, Out: &buf})
	if err != nil {
		t.Fatal(err)
	}
	defer Disable()
	if Active() != r {
		t.Fatal("Enable did not install the recorder")
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(r.Series()) < 3 {
		if time.Now().After(deadline) {
			t.Fatal("sampler produced fewer than 3 samples in 5s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The progress signal is a plain telemetry counter, scraped from the live
	// registry: pulse the one the proposer bumps per commit.
	const pulse = "blockpilot_proposer_commits_total"
	base := r.Series()[0].Counters[pulse]
	telemetry.ProposerCommits.Inc()
	Disable()
	if Active() != nil {
		t.Fatal("Disable left the recorder installed")
	}
	s := r.Series()
	last := s[len(s)-1]
	if last.Runtime.Goroutines <= 0 || last.Runtime.HeapInUse == 0 {
		t.Fatalf("live runtime stats look empty: %+v", last.Runtime)
	}
	// Stop() took a final sample after the pulse above.
	if got, ok := last.Counters[pulse]; !ok || got != base+1 {
		t.Fatalf("%s = %v (present %v), want %v", pulse, got, ok, base+1)
	}
}

func TestStopIdempotentWithoutStart(t *testing.T) {
	r := testRecorder(t, Options{}, nil)
	done := make(chan struct{})
	go func() { r.Stop(); r.Stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop deadlocked on a never-started recorder")
	}
	if len(r.Series()) != 1 {
		t.Fatalf("Stop should take one final sample, series = %d", len(r.Series()))
	}
}
