// Command bpbench regenerates the paper's evaluation tables and figures
// (§5.2 correctness, Fig. 6, Fig. 7(a)/(b), Fig. 8, Fig. 9) plus the design
// ablations, printing each as text series that mirror the paper's reported
// rows.
//
// Usage:
//
//	bpbench -exp all                 # everything (default)
//	bpbench -exp fig7a -blocks 40    # one experiment, more blocks
//	bpbench -exp sim -scenario chaos -seed 7   # fault-injecting cluster sim
//
// `-exp sim` runs the deterministic cluster simulator (internal/sim): every
// scenario (or one, with -scenario) at the given -seed, checking the
// serializability / parity / pipeline-safety / corruption oracles and the
// mutation self-check. Oracle failures print a repro line and exit 1.
//
// Every figure is in virtual time: each transaction's real execution cost is
// measured and a deterministic simulator of the worker pool derives the
// parallel makespans, so the tables do not depend on the host's core count.
// They gate nothing; what real cores deliver is `go run ./benchmark`.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"blockpilot/internal/bench"
	"blockpilot/internal/core"
	"blockpilot/internal/node"
	"blockpilot/internal/sim"
	"blockpilot/internal/telemetry"
	"blockpilot/internal/trace"
)

// renderer is what every experiment returns: a text block mirroring the
// paper's rows (or, for sim, the per-scenario oracle reports).
type renderer interface{ Render() string }

// runConfig is everything an experiment row may read.
type runConfig struct {
	opts        bench.Options
	maxPipeline int
	// sim carries the -exp sim flags laid over each scenario's preset:
	// Scenario may be "all"; Heights/Validators 0 keep the preset's value.
	sim sim.Config
}

// experiment is one -exp value. The table below is the single source of the
// flag help, the "unknown experiment" error and dispatch.
type experiment struct {
	name  string
	inAll bool // run by -exp all
	run   func(runConfig) (renderer, error)
}

// rendered widens a Run* result to the row signature (a nil *Result must not
// become a non-nil renderer).
func rendered[R renderer](res R, err error) (renderer, error) {
	if err != nil {
		return nil, err
	}
	return res, nil
}

// paper adapts a bench.Run* function to a table row.
func paper[R renderer](f func(bench.Options) (R, error)) func(runConfig) (renderer, error) {
	return func(c runConfig) (renderer, error) { return rendered(f(c.opts)) }
}

var experiments = []experiment{
	{"correctness", true, paper(bench.RunCorrectness)},
	{"fig6", true, paper(bench.RunProposer)},
	{"fig7a", true, paper(bench.RunValidator)},
	{"fig7b", false, paper(bench.RunValidator)}, // same run as fig7a; "all" runs it once
	{"fig8", true, paper(bench.RunHotspot)},
	{"fig9", true, func(c runConfig) (renderer, error) {
		return rendered(bench.RunPipeline(c.opts, c.maxPipeline))
	}},
	{"ablation-sched", true, paper(bench.RunSchedulingAblation)},
	{"ablation-keys", true, paper(bench.RunGranularityAblation)},
	{"ablation-proposer-keys", true, paper(bench.RunProposerKeysAblation)},
	// The cluster simulator is a correctness harness, not a paper figure, so
	// "all" skips it. A failing run renders its oracle violations and returns
	// the exact repro line(s).
	{"sim", false, runSim},
}

// experimentNames is the -exp vocabulary: "all" plus every table row.
func experimentNames() string {
	names := []string{"all"}
	for _, e := range experiments {
		names = append(names, e.name)
	}
	return strings.Join(names, "|")
}

// simReports renders every scenario's report in run order.
type simReports []*sim.Report

func (rs simReports) Render() string {
	parts := make([]string, len(rs))
	for i, r := range rs {
		parts[i] = r.Render()
	}
	return strings.Join(parts, "\n")
}

func runSim(c runConfig) (renderer, error) {
	scenarios := sim.Scenarios()
	if c.sim.Scenario != "all" {
		scenarios = []string{c.sim.Scenario}
	}
	var (
		reports simReports
		failed  []error
	)
	for _, name := range scenarios {
		cfg, err := sim.Preset(name, c.sim.Seed)
		if err != nil {
			return nil, err
		}
		if c.sim.Heights > 0 {
			cfg.Heights = c.sim.Heights
		}
		if c.sim.Validators > 0 {
			cfg.Validators = c.sim.Validators
		}
		cfg.Engine = c.sim.Engine
		cfg.Adaptive = c.sim.Adaptive
		cfg.StateBackend = c.sim.StateBackend
		cfg.MutationCheck = c.sim.MutationCheck
		rep, err := sim.Run(cfg)
		if err != nil {
			return nil, err
		}
		reports = append(reports, rep)
		if !rep.OK() {
			failed = append(failed, fmt.Errorf("sim oracle failure — repro: %s", rep.ReproLine()))
		}
	}
	return reports, errors.Join(failed...)
}

// run executes the experiment named exp ("all" = every inAll row), writing
// each result's rendering to out.
func run(exp string, c runConfig, out io.Writer) error {
	ran := false
	for _, e := range experiments {
		if exp != e.name && !(exp == "all" && e.inAll) {
			continue
		}
		ran = true
		res, err := e.run(c)
		if res != nil {
			fmt.Fprintln(out, res.Render())
		}
		if err != nil {
			return err
		}
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q; want one of %s", exp, experimentNames())
	}
	return nil
}

func main() {
	exp := flag.String("exp", "all", "experiment: "+experimentNames())
	blocks := flag.Int("blocks", 20, "blocks per experiment")
	repeats := flag.Int("repeats", 3, "timing repeats per point")
	maxPipeline := flag.Int("max-pipeline-blocks", 8, "Fig. 9: max concurrent blocks")
	seed := flag.Int64("seed", 1, "workload seed")
	jsonOut := flag.Bool("json", false, "emit the end-of-run telemetry snapshot as JSON on stdout")
	report := flag.Bool("telemetry-report", true, "print the telemetry report table after the run (text mode)")
	engine := flag.String("engine", core.EngineOCCWSI, "sim: proposer execution engine ("+strings.Join(core.Engines(), "|")+")")
	adaptiveOn := flag.Bool("adaptive", false, "sim: attach the contention-adaptive scheduler to the canonical proposer")
	scenario := flag.String("scenario", "all", "sim: fault scenario ("+strings.Join(sim.Scenarios(), "|")+") or \"all\"")
	simHeights := flag.Int("sim-heights", 0, "sim: canonical blocks per run (0 = scenario default)")
	simValidators := flag.Int("sim-validators", 0, "sim: validator nodes per run (0 = scenario default)")
	simMutation := flag.Bool("sim-mutation", true, "sim: also run the seeded-bug mutation self-check")
	stateBackend := flag.String("state-backend", node.BackendMem, "sim: world-state backend (mem|disk); disk runs the whole cluster on the persistent node store")
	traceOn := flag.Bool("trace", false, "enable the block lifecycle tracer and print a critical-path/stall summary after the run")
	flag.Parse()

	telemetry.Enable()
	if *traceOn {
		trace.Enable()
	}

	c := runConfig{
		opts:        bench.DefaultOptions(),
		maxPipeline: *maxPipeline,
		sim: sim.Config{
			Scenario: *scenario, Seed: *seed, Heights: *simHeights, Validators: *simValidators,
			Engine: *engine, Adaptive: *adaptiveOn, StateBackend: *stateBackend, MutationCheck: *simMutation,
		},
	}
	c.opts.Blocks = *blocks
	c.opts.Repeats = *repeats
	c.opts.Workload.Seed = *seed

	fmt.Printf("BlockPilot evaluation — virtual time, blocks=%d, repeats=%d, %d-CPU host\n\n",
		c.opts.Blocks, c.opts.Repeats, runtime.NumCPU())

	if err := run(*exp, c, os.Stdout); err != nil {
		fatal(err)
	}

	// End-of-run telemetry: machine-readable snapshot (-json) or the
	// human-readable report table.
	snap := telemetry.TakeSnapshot()
	if *jsonOut {
		payload := struct {
			Snapshot *telemetry.Snapshot `json:"snapshot"`
			Derived  map[string]float64  `json:"derived"`
		}{snap, telemetry.DerivedStats(snap)}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(payload); err != nil {
			fatal(err)
		}
	} else if *report {
		fmt.Println(telemetry.ReportSnapshot(snap))
	}
	if tr := trace.Active(); tr != nil && !*jsonOut {
		win := tr.Window(0, "")
		fmt.Printf("block tracer: %d spans buffered (%d recorded)\n", tr.Len(), tr.Total())
		fmt.Print(trace.RenderWindowView(win))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bpbench:", strings.TrimSpace(err.Error()))
	os.Exit(1)
}
