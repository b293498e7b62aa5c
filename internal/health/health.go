// Package health is the runtime health recorder: a background sampler that
// captures one Sample per tick — Go runtime signals (heap, GC, scheduler,
// goroutines) joined with deltas of every registered telemetry counter and
// the key gauges — into a bounded in-memory ring with optional JSONL spill.
// A watchdog evaluates invariant rules over the sampled window each tick and
// emits auto-triage Incident bundles (goroutine dump, telemetry snapshot,
// recent samples) when one fires.
//
// The package has no hot-path hook: progress is read from the telemetry
// counters the proposer, validator and pipeline bump unconditionally, so a
// node without -health pays nothing for it.
package health

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"blockpilot/internal/telemetry"
)

// Sample is one tick of the recorder: runtime health plus the observed
// telemetry counter values (cumulative), their deltas since the previous
// tick, and current gauge readings. The first sample of a series carries no
// deltas — it only seeds the baseline.
type Sample struct {
	Seq      uint64                `json:"seq"`
	At       time.Time             `json:"at"`
	Runtime  telemetry.RuntimeInfo `json:"runtime"`
	Counters map[string]float64    `json:"counters,omitempty"`
	Deltas   map[string]float64    `json:"deltas,omitempty"`
	Gauges   map[string]float64    `json:"gauges,omitempty"`
}

// A recorder keeps the newest ringCapacity samples (10 minutes at the
// default interval) and the first maxIncidents incidents; further
// violations are counted but dropped.
const (
	ringCapacity = 2400
	maxIncidents = 32
)

// Options configures a Recorder. The zero value is usable: 250ms interval,
// DefaultRules, wall clock, live runtime readings scraped with the default
// telemetry registry.
type Options struct {
	// Interval between background samples (Start). Default 250ms.
	Interval time.Duration
	// Out, when non-nil, receives every sample as one JSON line (spill).
	Out io.Writer
	// IncidentDir is where incident bundles are written. Empty disables
	// bundle writing (incidents are still recorded in memory).
	IncidentDir string
	// Rules are the watchdog invariants. nil → DefaultRules(). An explicit
	// empty non-nil slice disables the watchdog.
	Rules []Rule
	// Now is the clock (tests inject a fake one). Default time.Now.
	Now func() time.Time
	// Runtime reads the runtime. Default telemetry.ReadRuntimeInfo. Tests
	// inject a synthetic reader for determinism.
	Runtime func() telemetry.RuntimeInfo
	// Probe, when non-nil, replaces the default-registry scrape: it returns
	// the (counters, gauges) maps folded into each sample. The sim uses a
	// private probe so concurrently running tests don't share global state.
	Probe func() (counters, gauges map[string]float64)
}

func (o *Options) normalize() {
	if o.Interval <= 0 {
		o.Interval = 250 * time.Millisecond
	}
	if o.Rules == nil {
		o.Rules = DefaultRules()
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	if o.Runtime == nil {
		o.Runtime = telemetry.ReadRuntimeInfo
	}
}

// Recorder samples health into a bounded ring and runs the watchdog.
type Recorder struct {
	opts Options

	mu           sync.Mutex
	ring         telemetry.Ring[Sample]
	seq          uint64
	prevCounters map[string]float64
	enc          *json.Encoder
	rules        []ruleState
	incidents    []Incident
	incidentSeq  uint64
	maxIncidents int
	dropped      uint64 // incidents beyond maxIncidents

	startOnce sync.Once
	stopOnce  sync.Once
	started   atomic.Bool
	stop      chan struct{}
	done      chan struct{}
}

type ruleState struct {
	rule    Rule
	latched bool // true after firing; clears when the rule stops violating
}

// New builds a Recorder. It does not start the background sampler — call
// Start, or drive it manually with Poll (tests, sim).
func New(opts Options) (*Recorder, error) {
	return newRecorder(opts, ringCapacity, maxIncidents)
}

// newRecorder is New with the ring and incident caps given (tests want tiny
// ones).
func newRecorder(opts Options, ringCap, incidentCap int) (*Recorder, error) {
	opts.normalize()
	r := &Recorder{
		opts:         opts,
		ring:         telemetry.NewRing[Sample](ringCap),
		maxIncidents: incidentCap,
		stop:         make(chan struct{}),
		done:         make(chan struct{}),
	}
	if opts.Out != nil {
		r.enc = json.NewEncoder(opts.Out)
	}
	r.rules = make([]ruleState, len(opts.Rules))
	for i, rule := range opts.Rules {
		if rule == nil {
			return nil, errors.New("health: nil rule")
		}
		r.rules[i] = ruleState{rule: rule}
	}
	return r, nil
}

// Start launches the background sampler goroutine. Safe to call once.
func (r *Recorder) Start() {
	r.startOnce.Do(func() {
		r.started.Store(true)
		go func() {
			defer close(r.done)
			t := time.NewTicker(r.opts.Interval)
			defer t.Stop()
			for {
				select {
				case <-r.stop:
					return
				case <-t.C:
					r.Poll()
				}
			}
		}()
	})
}

// Stop halts the background sampler and waits for it to exit. Takes one
// final sample so short runs always record something. Idempotent.
func (r *Recorder) Stop() {
	r.stopOnce.Do(func() {
		r.startOnce.Do(func() {}) // from here on Start is a no-op
		close(r.stop)
		if r.started.Load() {
			<-r.done
		}
		r.Poll()
	})
}

// Poll takes one sample now and runs the watchdog. Exposed so tests and the
// sim can drive the recorder deterministically without the ticker.
func (r *Recorder) Poll() {
	rt := r.opts.Runtime()
	var counters, gauges map[string]float64
	if r.opts.Probe != nil {
		counters, gauges = r.opts.Probe()
	} else {
		counters, gauges = scrapeRegistry(telemetry.Default())
	}
	if counters == nil {
		counters = map[string]float64{} // non-nil: the next sample's baseline
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	s := Sample{Seq: r.seq, At: r.opts.Now(), Runtime: rt, Counters: counters, Gauges: gauges}
	if r.prevCounters != nil {
		deltas := make(map[string]float64, len(counters))
		for name, v := range counters {
			deltas[name] = v - r.prevCounters[name]
		}
		s.Deltas = deltas
	}
	r.prevCounters = counters

	r.ring.Push(s)
	if r.enc != nil {
		_ = r.enc.Encode(&s)
	}
	r.evaluateLocked(&s)
}

// scrapeRegistry flattens a telemetry snapshot into name→value maps.
func scrapeRegistry(reg *telemetry.Registry) (map[string]float64, map[string]float64) {
	snap := reg.Snapshot()
	counters := make(map[string]float64, len(snap.Counters))
	for _, n := range snap.Counters {
		counters[n.Name] = n.Value
	}
	gauges := make(map[string]float64, len(snap.Gauges))
	for _, n := range snap.Gauges {
		gauges[n.Name] = n.Value
	}
	return counters, gauges
}

// evaluateLocked runs every watchdog rule over the current window. A rule
// fires at most once per violation episode: the latch sets when Check flips
// to violated and clears only after a non-violating tick (hysteresis — a
// single noisy tick inside an episode cannot re-fire it).
func (r *Recorder) evaluateLocked(latest *Sample) {
	if len(r.rules) == 0 {
		return
	}
	window := r.seriesLocked()
	for i := range r.rules {
		st := &r.rules[i]
		detail, violated := st.rule.Check(window)
		if !violated {
			st.latched = false
			continue
		}
		if st.latched {
			continue
		}
		st.latched = true
		r.fireLocked(st.rule, latest, detail, window)
	}
}

// fireLocked records an incident and writes its bundle (if configured).
func (r *Recorder) fireLocked(rule Rule, latest *Sample, detail string, window []Sample) {
	if len(r.incidents) >= r.maxIncidents {
		r.dropped++
		return
	}
	r.incidentSeq++
	inc := Incident{
		Seq:       r.incidentSeq,
		Rule:      rule.Name(),
		At:        latest.At,
		SampleSeq: latest.Seq,
		Detail:    detail,
	}
	if r.opts.IncidentDir != "" {
		dir, err := writeBundle(r.opts.IncidentDir, &inc, window, telemetry.Default())
		inc.BundleDir = dir
		if err != nil {
			inc.BundleErr = err.Error()
		}
	}
	r.incidents = append(r.incidents, inc)
}

// Series returns the sampled window, oldest first.
func (r *Recorder) Series() []Sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seriesLocked()
}

func (r *Recorder) seriesLocked() []Sample {
	return r.ring.AppendTo(make([]Sample, 0, r.ring.Len()))
}

// Incidents returns recorded incidents in firing order, plus the count of
// incidents dropped beyond the cap.
func (r *Recorder) Incidents() ([]Incident, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Incident(nil), r.incidents...), r.dropped
}

// Interval reports the recorder's sampling interval.
func (r *Recorder) Interval() time.Duration { return r.opts.Interval }

// --- process-global recorder ---

// active is the installed process-wide recorder; nil = health recording
// disabled.
var active telemetry.Slot[Recorder]

// SeriesPayload is the /health/series answer.
type SeriesPayload struct {
	IntervalS float64  `json:"interval_s"`
	Samples   []Sample `json:"samples"`
}

// IncidentsPayload is the /health/incidents answer.
type IncidentsPayload struct {
	Incidents []Incident `json:"incidents"`
	Dropped   uint64     `json:"dropped,omitempty"`
}

// The /health/ endpoints, served from the installed recorder.
func init() {
	active.Serve("health recorder", "-health", map[string]telemetry.View[Recorder]{
		// The sampled window: ?n= keeps the newest n samples.
		"/health/series": func(r *Recorder, req *http.Request) (any, error) {
			samples := r.Series()
			if n := telemetry.QueryN(req); n > 0 && n < len(samples) {
				samples = samples[len(samples)-n:]
			}
			return SeriesPayload{IntervalS: r.Interval().Seconds(), Samples: samples}, nil
		},
		// Watchdog incidents with their bundle locations.
		"/health/incidents": func(r *Recorder, _ *http.Request) (any, error) {
			incidents, dropped := r.Incidents()
			return IncidentsPayload{Incidents: incidents, Dropped: dropped}, nil
		},
	})
}

// Active returns the process-global recorder, or nil when health recording
// is disabled. One atomic load.
func Active() *Recorder { return active.Load() }

// Enable builds, starts, and installs the process-global recorder. An
// already-active recorder is stopped first.
func Enable(opts Options) (*Recorder, error) {
	r, err := New(opts)
	if err != nil {
		return nil, err
	}
	r.Start()
	if prev := active.Swap(r); prev != nil {
		prev.Stop()
	}
	return r, nil
}

// Disable stops and uninstalls the global recorder (no-op when disabled).
func Disable() {
	if prev := active.Swap(nil); prev != nil {
		prev.Stop()
	}
}
