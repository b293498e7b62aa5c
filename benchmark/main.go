// Command benchmark is BlockPilot's end-to-end benchmark: it drives the node
// loop of cmd/blockpilot from outside — workload → mempool → core.Propose →
// types encode/decode → network → pipeline/validator → chain — on four named
// workloads, checks the outputs, and prints every metric by name with its
// unit. See README.md in this directory.
//
//	go run ./benchmark --workload mainnet --seed 1 --seconds 15 --trace 0
//	go run ./benchmark --workload hotspot --seed 1 --seconds 15 --trace 1
//	go run ./benchmark compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// defaultSeconds matches run_seconds in BENCHMARK.json.
const defaultSeconds = 15

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine is the last line of standard output: exactly these keys.
type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// failRatio is the tenth end-to-end metric: failed ÷ attempted operations.
func (c contractLine) failRatio() float64 { return float64(c.Failed) / float64(max(c.Attempted, 1)) }

// envBlock records where and how a run was made. compare refuses to set
// runs side by side when gomaxprocs, threads, seed or input digest differ.
type envBlock struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Threads    int    `json:"threads"`
	Engine     string `json:"engine"`
	Commit     string `json:"git_commit"`
	Seed       int64  `json:"seed"`
	Rounds     int    `json:"rounds"`
	Warmup     int    `json:"warmup_rounds"`
	SingleCPU  bool   `json:"single_cpu"`
}

// runRecord is one line of an -out file: one run of one workload.
type runRecord struct {
	Workload    string             `json:"workload"`
	Traced      bool               `json:"traced"`
	Env         envBlock           `json:"env"`
	InputDigest string             `json:"input_digest"`
	Samples     map[string]int     `json:"samples"`
	Claim       *string            `json:"claim"` // always null: the benchmark claims no gain
	Result      contractLine       `json:"result"`
	SelfTimeMs  map[string]float64 `json:"span_self_ms,omitempty"`
}

func gitCommit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		workloadName = flag.String("workload", "", "workload to run: mainnet, hotspot, forks or state_disk (default: all four)")
		seed         = flag.Int64("seed", 1, "workload generator and consensus schedule seed")
		seconds      = flag.Int("seconds", defaultSeconds, "run length; converted to a fixed round count per workload")
		roundsFlag   = flag.Int("rounds", 0, "timed rounds, overriding -seconds (0 = derive from -seconds)")
		threads      = flag.Int("threads", 0, "execution threads per phase (0 = min(GOMAXPROCS, 4))")
		engine       = flag.String("engine", "", "proposer engine for ad-hoc ablations: occ-wsi (default) or mv-stm")
		traced       = flag.Int("trace", -1, "0 = timed run, end-to-end metrics; 1 = traced run, per-layer metrics; -1 = both")
		outFile      = flag.String("out", "", "append this run's record (one JSON line) to the file, for compare")
	)
	flag.Parse()
	specs := workloads
	if *workloadName != "" {
		specs = nil
		if s, ok := findSpec(*workloadName); ok {
			specs = []spec{s}
		}
	}
	if specs == nil || flag.NArg() > 0 || *seconds < 1 || *traced < -1 || *traced > 1 {
		fmt.Fprintln(os.Stderr, "usage: benchmark [--workload mainnet|hotspot|forks|state_disk] [--seed n] [--seconds n] [--trace 0|1]")
		fmt.Fprintln(os.Stderr, "       benchmark compare BASE.json OTHER.json [...]")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if *threads <= 0 {
		*threads = min(runtime.GOMAXPROCS(0), 4)
	}
	opt := options{seed: *seed, threads: *threads, engine: *engine, outDir: filepath.Join("benchmark", "out")}
	env := envBlock{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Threads:    *threads,
		Engine:     *engine,
		Commit:     gitCommit(),
		Seed:       *seed,
		Warmup:     warmupRounds,
		SingleCPU:  runtime.GOMAXPROCS(0) < 2,
	}
	if env.SingleCPU {
		fmt.Println("**********************************************************************")
		fmt.Println("* WARNING: GOMAXPROCS < 2. These numbers measure overhead, not       *")
		fmt.Println("* scaling; nothing gated may rest on a 1-CPU recording (ROADMAP).    *")
		fmt.Println("**********************************************************************")
	}

	// With no -workload every workload runs; with no -trace both passes run.
	// The contract line is printed when exactly one run was asked for.
	passes := []func(spec, options, envBlock) (*runRecord, error){runTimed, runTraced}
	if *traced >= 0 {
		passes = passes[*traced : *traced+1]
	}
	var last *runRecord
	correct := true
	for _, s := range specs {
		env.Rounds = *roundsFlag
		if env.Rounds <= 0 {
			env.Rounds = s.rounds(*seconds)
		}
		for _, pass := range passes {
			rec, err := pass(s, opt, env)
			if err == nil && *outFile != "" {
				err = appendRecord(*outFile, rec)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				os.Exit(1)
			}
			correct = correct && rec.Result.Correct
			last = rec
		}
	}
	if len(specs) == 1 && len(passes) == 1 {
		line, err := json.Marshal(last.Result)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
	if !correct {
		os.Exit(1)
	}
}

func appendRecord(path string, rec *runRecord) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// newRecord fills the parts of a record both run kinds share and prints the
// run header.
func newRecord(s spec, env envBlock, traced bool, d *driverResult) *runRecord {
	fmt.Printf("workload %s (seed %d, %d rounds after %d warm-up, %d threads, GOMAXPROCS %d, go %s, commit %.12s)\n",
		s.name, env.Seed, env.Rounds, env.Warmup, env.Threads, env.GOMAXPROCS, env.GoVersion, env.Commit)
	fmt.Printf("  why: %s\n", s.why)
	fmt.Printf("  input_digest %s\n", d.inputDigest)
	fmt.Printf("  checks: %d blocks, %d rejected, %d head-root mismatches, %d network drops, %d/%d tx canonical, %d reopen failures, %d replay failures\n",
		d.blocks, d.rejected, d.rootMismatch, d.netDropped, d.canonicalTxs, d.admittedTxs, d.reopenFailed, d.replayFailed)
	return &runRecord{
		Workload:    s.name,
		Traced:      traced,
		Env:         env,
		InputDigest: d.inputDigest,
		Samples: map[string]int{
			"rounds":   len(d.samples),
			"proposes": len(proposes(d.samples)),
			"blocks":   len(validates(d.samples)),
		},
		Result: contractLine{
			Correct:   d.failed() == 0,
			Attempted: d.attempted(),
			Failed:    d.failed(),
			Metrics:   make(map[string]metricValue),
		},
	}
}

// fill copies the catalogue's metrics out of values into the contract line,
// printing each by name with its unit. A missing or non-finite value is a
// benchmark bug and fails the run.
func (r *runRecord) fill(defs []metricDef, values map[string]float64) error {
	for _, def := range defs {
		v, ok := values[def.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is missing or not finite", def.name)
		}
		r.Result.Metrics[def.name] = metricValue{Value: v, Unit: def.unit}
		fmt.Printf("  %-34s %14.4f %s\n", def.name, v, def.unit)
	}
	return nil
}

func runTimed(s spec, opt options, env envBlock) (*runRecord, error) {
	d, err := execute(s, opt, env.Rounds, setupRepeats, nil)
	if err != nil {
		return nil, err
	}
	rec := newRecord(s, env, false, d)
	values := endToEndMetrics(d)
	fmt.Printf("  %-34s %14.6f ratio (%d failed of %d operations)\n", failRatio, rec.Result.failRatio(), d.failed(), d.attempted())
	if err := rec.fill(endToEnd, values); err != nil {
		return nil, err
	}
	fmt.Printf("  samples: %d rounds, %d proposals, %d validated blocks; timed wall %.2f s\n",
		rec.Samples["rounds"], rec.Samples["proposes"], rec.Samples["blocks"], d.wall.Seconds())
	return rec, nil
}

// runTraced makes the per-layer numbers: an untraced reference pass and a
// traced pass over the same quarter of the rounds (their round_ms_p50
// difference is the tracing overhead), then the phase-B replay.
func runTraced(s spec, opt options, env envBlock) (*runRecord, error) {
	env.Rounds = max(env.Rounds/traceDivisor, 1)
	ref, err := execute(s, opt, env.Rounds, 1, nil)
	if err != nil {
		return nil, err
	}
	t := newTracer(opt.outDir, s.name)
	d, err := execute(s, opt, env.Rounds, 1, t)
	if err != nil {
		return nil, err
	}
	if ref.inputDigest != d.inputDigest {
		return nil, fmt.Errorf("reference and traced passes saw different inputs (%s vs %s)", ref.inputDigest, d.inputDigest)
	}
	samples, err := readProfile(t.profilePath)
	if err != nil {
		return nil, err
	}
	rec := newRecord(s, env, true, d)
	rec.Result.Attempted += ref.attempted()
	rec.Result.Failed += ref.failed()
	rec.Result.Correct = rec.Result.Failed == 0
	rec.Samples["replayed_blocks"] = t.layers.blocks
	rec.Samples["profile_samples"] = len(samples)
	if err := rec.fill(perLayer, perLayerMetrics(ref, d, t, cpuShares(samples, t.cpuUtil()), opt.threads)); err != nil {
		return nil, err
	}
	rec.SelfTimeMs = make(map[string]float64)
	fmt.Println("  span self time, phase A (ms):")
	for name, self := range t.rec.selfTimes() {
		rec.SelfTimeMs[name] = float64(self) / 1e6
	}
	names := make([]string, 0, len(rec.SelfTimeMs))
	for name := range rec.SelfTimeMs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("    %-32s %12.2f\n", name, rec.SelfTimeMs[name])
	}
	fmt.Printf("  wrote %s and %s\n", t.spansPath, t.profilePath)
	return rec, nil
}
