// Watchdog rules: invariants evaluated over the sampled window each tick.
// Every rule requires its condition to hold across N consecutive samples
// before reporting a violation, so one noisy tick cannot fire an incident;
// the recorder's per-rule latch then ensures one incident per violation
// episode (no flapping) — see Recorder.evaluateLocked.
package health

import (
	"fmt"
	"time"
)

// Rule is a watchdog invariant. Check inspects the sampled window (oldest
// first) and reports a violation with a human-readable detail line. Check
// runs under the recorder lock and must not call back into the recorder.
type Rule interface {
	Name() string
	Check(window []Sample) (detail string, violated bool)
}

// Incident is one watchdog firing: which rule, when, and where the
// auto-triage bundle landed.
type Incident struct {
	Seq       uint64    `json:"seq"`
	Rule      string    `json:"rule"`
	At        time.Time `json:"at"`
	SampleSeq uint64    `json:"sample_seq"`
	Detail    string    `json:"detail"`
	BundleDir string    `json:"bundle_dir,omitempty"`
	BundleErr string    `json:"bundle_err,omitempty"`
}

// DefaultRules is the production watchdog set: goroutine leak, heap climb,
// pipeline stall, abort-ratio spike.
func DefaultRules() []Rule {
	return []Rule{
		&GoroutineGrowthRule{},
		&HeapSlopeRule{},
		NewStallRule(),
		&AbortSpikeRule{},
	}
}

// tail returns the last n samples of the window, or nil if fewer exist.
func tail(window []Sample, n int) []Sample {
	if len(window) < n {
		return nil
	}
	return window[len(window)-n:]
}

// GoroutineGrowthRule fires when the goroutine count grows strictly
// monotonically across 8 consecutive samples by at least 64 in total — the
// signature of a goroutine leak rather than load jitter.
type GoroutineGrowthRule struct{}

func (r *GoroutineGrowthRule) Name() string { return "goroutine-growth" }

func (r *GoroutineGrowthRule) Check(window []Sample) (string, bool) {
	w := tail(window, 8)
	if w == nil {
		return "", false
	}
	for i := 1; i < len(w); i++ {
		if w[i].Runtime.Goroutines <= w[i-1].Runtime.Goroutines {
			return "", false
		}
	}
	growth := w[len(w)-1].Runtime.Goroutines - w[0].Runtime.Goroutines
	if growth < 64 {
		return "", false
	}
	return fmt.Sprintf("goroutines grew monotonically %d → %d (+%d) over %d samples",
		w[0].Runtime.Goroutines, w[len(w)-1].Runtime.Goroutines, growth, len(w)), true
}

// HeapSlopeRule fires when heap in-use climbs across 8 consecutive samples
// at an average rate of at least 64 MiB/s — sustained allocation outpacing
// collection.
type HeapSlopeRule struct{}

func (r *HeapSlopeRule) Name() string { return "heap-slope" }

func (r *HeapSlopeRule) Check(window []Sample) (string, bool) {
	w := tail(window, 8)
	if w == nil {
		return "", false
	}
	for i := 1; i < len(w); i++ {
		if w[i].Runtime.HeapInUse <= w[i-1].Runtime.HeapInUse {
			return "", false
		}
	}
	elapsed := w[len(w)-1].At.Sub(w[0].At).Seconds()
	if elapsed <= 0 {
		return "", false
	}
	grown := float64(w[len(w)-1].Runtime.HeapInUse - w[0].Runtime.HeapInUse)
	rate := grown / elapsed
	if rate < 64<<20 {
		return "", false
	}
	return fmt.Sprintf("heap in-use climbed %.1f MiB/s for %d samples (%.1f → %.1f MiB)",
		rate/(1<<20), len(w),
		float64(w[0].Runtime.HeapInUse)/(1<<20),
		float64(w[len(w)-1].Runtime.HeapInUse)/(1<<20)), true
}

// StallRule fires when the pipeline holds work in flight but makes zero
// commit progress for Windows consecutive samples: some WorkGauge is
// nonzero at every sample while every ProgressCounter's delta stays zero.
// Samples without deltas (the series baseline) never count as stalled.
type StallRule struct {
	Windows          int      // consecutive samples required; default 4
	WorkGauges       []string // "work exists" signals (any nonzero counts)
	ProgressCounters []string // progress signals (all deltas must be zero)
}

// NewStallRule returns the production stall detector wired to the pipeline
// in-flight gauges and the progress counters: a validated block, a rejected
// block (an outcome is progress even when it is a refusal) and a proposer
// commit.
func NewStallRule() *StallRule {
	return &StallRule{
		WorkGauges: []string{
			"blockpilot_pipeline_blocks_inflight",
			"blockpilot_pipeline_blocks_waiting",
		},
		ProgressCounters: []string{
			"blockpilot_validator_blocks_total",
			"blockpilot_validator_rejects_total",
			"blockpilot_proposer_commits_total",
		},
	}
}

func (r *StallRule) Name() string { return "stall" }

func (r *StallRule) Check(window []Sample) (string, bool) {
	windows := r.Windows
	if windows <= 0 {
		windows = 4
	}
	w := tail(window, windows)
	if w == nil {
		return "", false
	}
	var work float64
	for _, s := range w {
		if s.Deltas == nil {
			return "", false // baseline sample: no progress information yet
		}
		here := 0.0
		for _, g := range r.WorkGauges {
			here += s.Gauges[g]
		}
		if here == 0 {
			return "", false
		}
		work = here
		for _, c := range r.ProgressCounters {
			if s.Deltas[c] != 0 {
				return "", false
			}
		}
	}
	elapsed := w[len(w)-1].At.Sub(w[0].At)
	return fmt.Sprintf("pipeline stalled: %.0f block(s) in flight with zero progress for %d samples (%s)",
		work, len(w), elapsed), true
}

// AbortSpikeRule fires when the proposer abort ratio over the last 4 samples
// reaches 0.5 with at least 256 commit attempts — speculation thrash rather
// than occasional conflict noise.
type AbortSpikeRule struct{}

func (r *AbortSpikeRule) Name() string { return "abort-spike" }

func (r *AbortSpikeRule) Check(window []Sample) (string, bool) {
	w := tail(window, 4)
	if w == nil {
		return "", false
	}
	var commits, aborts float64
	for _, s := range w {
		if s.Deltas == nil {
			return "", false
		}
		commits += s.Deltas["blockpilot_proposer_commits_total"]
		aborts += s.Deltas["blockpilot_proposer_aborts_total"]
	}
	attempts := commits + aborts
	if attempts < 256 {
		return "", false
	}
	ratio := aborts / attempts
	if ratio < 0.5 {
		return "", false
	}
	return fmt.Sprintf("abort spike: %.0f aborts / %.0f attempts (ratio %.2f) over %d samples",
		aborts, attempts, ratio, len(w)), true
}
