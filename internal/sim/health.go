// Health-recorder integration: the simulator attaches a deterministic
// internal/health recorder to validator v0 — fake clock (one 250ms step per
// poll), synthetic runtime stats, and a private probe over v0's pipeline
// (pending blocks as the work gauge, consumed outcomes as the progress
// counter) instead of the process-global telemetry registry, which
// concurrently running simulations share. Polls happen only at quiesced
// points (v0 drained and its outcome consumer caught up), so a healthy run
// deterministically produces zero incidents; the StallProbeAt injection
// gates v0's worker pool and polls through the frozen window, so the stall
// watchdog deterministically fires exactly once with a full bundle.
package sim

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"blockpilot/internal/health"
	"blockpilot/internal/telemetry"
	"blockpilot/internal/types"
)

// simStallWindows is the consecutive-sample requirement of the sim's stall
// rule; the injection polls simStallWindows+1 times through the gated
// window (one firing poll plus one latched poll).
const simStallWindows = 4

// healthProbeGauge / healthProbeCounter name the private probe's signals.
const (
	healthProbeGauge   = "sim_v0_pending"
	healthProbeCounter = "sim_v0_outcomes"
)

// setupHealth builds the deterministic recorder over v0. Called after the
// validators exist; dir receives incident bundles.
func (r *runner) setupHealth(dir string) error {
	base := time.Unix(1700000000, 0).UTC()
	ticks := 0
	v0 := r.vals[0]
	rec, err := health.New(health.Options{
		Now: func() time.Time {
			ticks++
			return base.Add(time.Duration(ticks) * 250 * time.Millisecond)
		},
		Runtime: func() telemetry.RuntimeInfo { return telemetry.RuntimeInfo{} },
		Probe: func() (map[string]float64, map[string]float64) {
			return map[string]float64{healthProbeCounter: float64(v0.outcomeCount())},
				map[string]float64{healthProbeGauge: float64(v0.node.Pipe.Pending())}
		},
		Rules: []health.Rule{&health.StallRule{
			Windows:          simStallWindows,
			WorkGauges:       []string{healthProbeGauge},
			ProgressCounters: []string{healthProbeCounter},
		}},
		IncidentDir: filepath.Join(dir, "incidents"),
	})
	if err != nil {
		return err
	}
	r.health = rec
	return nil
}

// submit routes a block into v's pipeline, counting the submission so
// quiesce can tell when the outcome consumer has caught up.
func (v *valNode) submit(b *types.Block) {
	v.submitted.Add(1)
	v.node.Pipe.Submit(b)
}

// outcomeCount is the progress counter: outcomes recorded across every
// incarnation of this validator.
func (v *valNode) outcomeCount() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	n := 0
	for _, inc := range v.incs {
		n += len(inc.outcomes)
	}
	return n
}

// quiesce waits until v's pipeline is idle AND its outcome-consumer
// goroutine has recorded every produced outcome. pipe.Wait alone is not
// enough: the pipeline emits an outcome before decrementing its running
// count, so a freshly drained pipeline can still have outcomes sitting in
// the results channel — a health poll racing that lag would see phantom
// progress (or miss real progress) nondeterministically. Terminates because
// in health-enabled scenarios every delivered block's parent eventually
// arrives, so no submission stays parked forever at a quiesce point.
func (v *valNode) quiesce() {
	v.node.Pipe.Wait()
	for int64(v.outcomeCount()) < v.submitted.Load()-v.parkedCount() {
		time.Sleep(50 * time.Microsecond)
		v.node.Pipe.Wait()
	}
}

// parkedCount is how many submissions are currently parked behind a missing
// parent (they have not produced an outcome yet and won't until released).
func (v *valNode) parkedCount() int64 {
	return int64(v.node.Pipe.Pending()) // Wait() returned, so running == 0: all pending are parked
}

// healthPoll takes one quiesced sample of v0.
func (r *runner) healthPoll() {
	if r.health == nil {
		return
	}
	r.vals[0].quiesce()
	r.health.Poll()
}

// gateStall freezes v0's worker pool: every subsequently submitted task
// blocks on the gate channel (composed with the scenario's base wrapper, so
// StallEvery perturbation still applies once released).
func (r *runner) gateStall() {
	v0 := r.vals[0]
	gate := make(chan struct{})
	r.stallGate = gate
	base := v0.baseWrap
	v0.wpool.SetTaskWrapper(func(f func()) func() {
		if base != nil {
			f = base(f)
		}
		return func() {
			<-gate
			f()
		}
	})
}

// stallProbePolls drives the recorder through the frozen window: enough
// consecutive stalled samples to fire the stall rule exactly once, plus one
// latched sample proving it does not re-fire.
func (r *runner) stallProbePolls() {
	for i := 0; i < simStallWindows+1; i++ {
		r.health.Poll()
	}
}

// ungateStall restores the scenario wrapper and releases every gated task.
func (r *runner) ungateStall() {
	v0 := r.vals[0]
	v0.wpool.SetTaskWrapper(v0.baseWrap)
	close(r.stallGate)
	r.stallGate = nil
}

// checkHealth (oracle 7): keyed off the config, not the scenario name —
// with a stall injection the watchdog must have fired exactly once, as a
// stall, with a complete readable bundle; without one, a health-enabled run
// must have produced zero incidents.
func (r *runner) checkHealth() []string {
	if r.health == nil {
		return nil
	}
	incidents, dropped := r.health.Incidents()
	var problems []string
	if r.cfg.StallProbeAt == 0 {
		for _, inc := range incidents {
			problems = append(problems, fmt.Sprintf("health: unexpected %s incident at sample %d: %s", inc.Rule, inc.SampleSeq, inc.Detail))
		}
		return problems
	}
	if len(incidents) != 1 || dropped != 0 {
		return append(problems, fmt.Sprintf("health: stall injection produced %d incidents (+%d dropped), want exactly 1", len(incidents), dropped))
	}
	inc := incidents[0]
	if inc.Rule != "stall" {
		problems = append(problems, fmt.Sprintf("health: injected stall classified as %q", inc.Rule))
	}
	if inc.BundleErr != "" {
		problems = append(problems, fmt.Sprintf("health: incident bundle error: %s", inc.BundleErr))
	}
	if inc.BundleDir == "" {
		return append(problems, "health: incident has no bundle directory")
	}
	for _, f := range []string{"incident.json", "goroutines.txt", "telemetry.json"} {
		raw, err := os.ReadFile(filepath.Join(inc.BundleDir, f))
		if err != nil {
			problems = append(problems, fmt.Sprintf("health: bundle lacks %s: %v", f, err))
			continue
		}
		if strings.HasSuffix(f, ".json") {
			var v any
			if err := json.Unmarshal(raw, &v); err != nil {
				problems = append(problems, fmt.Sprintf("health: bundle %s is not valid JSON: %v", f, err))
			}
		} else if !strings.Contains(string(raw), "goroutine ") {
			problems = append(problems, fmt.Sprintf("health: bundle %s does not look like a goroutine dump", f))
		}
	}
	return problems
}
