package health

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"blockpilot/internal/telemetry"
	"blockpilot/internal/trace"
	"blockpilot/internal/types"
)

// stallProbe produces a stalled pipeline: work in flight, no progress.
func stallProbe() *probeState {
	return &probeState{
		counters: map[string]float64{
			"blockpilot_validator_blocks_total": 10,
			"blockpilot_proposer_commits_total": 100,
		},
		gauges: map[string]float64{
			"blockpilot_pipeline_blocks_inflight": 2,
		},
	}
}

func TestStallRuleFiresOncePerEpisode(t *testing.T) {
	p := stallProbe()
	r := testRecorder(t, Options{Rules: []Rule{&StallRule{
		Windows:          4,
		WorkGauges:       []string{"blockpilot_pipeline_blocks_inflight"},
		ProgressCounters: []string{"blockpilot_validator_blocks_total"},
	}}}, p)

	// Baseline + 3 stalled samples: not enough consecutive windows yet.
	for i := 0; i < 4; i++ {
		r.Poll()
	}
	if inc, _ := r.Incidents(); len(inc) != 0 {
		t.Fatalf("fired before %d consecutive stalled samples: %+v", 4, inc)
	}
	// 5th sample completes 4 consecutive delta-bearing stalled samples.
	r.Poll()
	inc, _ := r.Incidents()
	if len(inc) != 1 {
		t.Fatalf("incidents = %d, want 1", len(inc))
	}
	if inc[0].Rule != "stall" || !strings.Contains(inc[0].Detail, "zero progress") {
		t.Fatalf("incident = %+v", inc[0])
	}
	// Latched: staying stalled must not re-fire.
	for i := 0; i < 10; i++ {
		r.Poll()
	}
	if inc, _ := r.Incidents(); len(inc) != 1 {
		t.Fatalf("latch failed: %d incidents while continuously stalled", len(inc))
	}
	// Recovery (progress resumes) clears the latch...
	p.counters["blockpilot_validator_blocks_total"] += 5
	r.Poll()
	// ...and a fresh stall episode fires a second incident.
	for i := 0; i < 4; i++ {
		r.Poll()
	}
	inc, _ = r.Incidents()
	if len(inc) != 2 {
		t.Fatalf("incidents after recovery + new stall = %d, want 2", len(inc))
	}
	if inc[1].Seq != 2 || inc[1].SampleSeq <= inc[0].SampleSeq || !inc[1].At.After(inc[0].At) {
		t.Fatalf("incident ordering broken: %+v", inc)
	}
}

// TestStallRuleNoFlapOnNoisyTick: a single progress-free tick inside an
// otherwise healthy stream must not fire (consecutive-window hysteresis).
func TestStallRuleNoFlapOnNoisyTick(t *testing.T) {
	p := stallProbe()
	r := testRecorder(t, Options{Rules: []Rule{&StallRule{
		Windows:          4,
		WorkGauges:       []string{"blockpilot_pipeline_blocks_inflight"},
		ProgressCounters: []string{"blockpilot_validator_blocks_total"},
	}}}, p)
	r.Poll() // baseline
	for i := 0; i < 20; i++ {
		if i%4 != 3 { // three progressing ticks, then one noisy zero-progress tick
			p.counters["blockpilot_validator_blocks_total"]++
		}
		r.Poll()
	}
	if inc, _ := r.Incidents(); len(inc) != 0 {
		t.Fatalf("watchdog flapped on noisy ticks: %+v", inc)
	}
}

// TestProductionStallRuleFromCounters drives NewStallRule — the rule a
// node runs — from the three telemetry counters alone. A wedged pipeline
// (blocks in flight, none of the three moving) fires exactly once; a
// pipeline whose every outcome is a rejection is busy, not wedged: a
// rejected block is an outcome, and the rejects counter says so.
func TestProductionStallRuleFromCounters(t *testing.T) {
	const rejects = "blockpilot_validator_rejects_total"
	p := stallProbe()
	p.counters[rejects] = 0
	r := testRecorder(t, Options{Rules: []Rule{NewStallRule()}}, p)
	for i := 0; i < 12; i++ {
		r.Poll()
	}
	inc, _ := r.Incidents()
	if len(inc) != 1 || inc[0].Rule != "stall" {
		t.Fatalf("wedged pipeline: incidents = %+v, want exactly one stall", inc)
	}

	p = stallProbe()
	p.counters[rejects] = 0
	r = testRecorder(t, Options{Rules: []Rule{NewStallRule()}}, p)
	for i := 0; i < 12; i++ {
		p.counters[rejects]++ // every outcome a rejected block
		r.Poll()
	}
	if inc, _ := r.Incidents(); len(inc) != 0 {
		t.Fatalf("reject-only run read as a stall: %+v", inc)
	}
}

func TestGoroutineGrowthRule(t *testing.T) {
	g := 100
	grow := true
	r := testRecorder(t, Options{
		Rules: []Rule{&GoroutineGrowthRule{}},
		Runtime: func() telemetry.RuntimeInfo {
			if grow {
				g += 10
			}
			return telemetry.RuntimeInfo{Goroutines: g}
		},
	}, nil)
	// Eight strictly growing samples, +70 in all: over the 64 threshold.
	for i := 0; i < 8; i++ {
		r.Poll()
	}
	inc, _ := r.Incidents()
	if len(inc) != 1 || inc[0].Rule != "goroutine-growth" {
		t.Fatalf("incidents = %+v, want one goroutine-growth", inc)
	}
	// Flat goroutine count clears the latch and fires nothing more.
	grow = false
	for i := 0; i < 6; i++ {
		r.Poll()
	}
	if inc, _ := r.Incidents(); len(inc) != 1 {
		t.Fatalf("flat count still fired: %d incidents", len(inc))
	}
}

func TestGoroutineGrowthBelowThresholdSilent(t *testing.T) {
	g := 100
	r := testRecorder(t, Options{
		Rules:   []Rule{&GoroutineGrowthRule{}},
		Runtime: func() telemetry.RuntimeInfo { g += 2; return telemetry.RuntimeInfo{Goroutines: g} }, // +14 per window < 64
	}, nil)
	for i := 0; i < 12; i++ {
		r.Poll()
	}
	if inc, _ := r.Incidents(); len(inc) != 0 {
		t.Fatalf("small growth fired: %+v", inc)
	}
}

func TestHeapSlopeRule(t *testing.T) {
	heap := uint64(1 << 20)
	r := testRecorder(t, Options{
		// Fake clock steps 250ms/sample; +64MiB/sample = 256MiB/s ≫ 64MiB/s.
		Rules:   []Rule{&HeapSlopeRule{}},
		Runtime: func() telemetry.RuntimeInfo { heap += 64 << 20; return telemetry.RuntimeInfo{HeapInUse: heap} },
	}, nil)
	for i := 0; i < 8; i++ {
		r.Poll()
	}
	inc, _ := r.Incidents()
	if len(inc) != 1 || inc[0].Rule != "heap-slope" {
		t.Fatalf("incidents = %+v, want one heap-slope", inc)
	}
}

func TestAbortSpikeRule(t *testing.T) {
	p := &probeState{counters: map[string]float64{
		"blockpilot_proposer_commits_total": 0,
		"blockpilot_proposer_aborts_total":  0,
	}}
	r := testRecorder(t, Options{Rules: []Rule{&AbortSpikeRule{}}}, p)
	r.Poll() // baseline
	// Healthy phase: 416 attempts per 4-sample window, few of them aborts.
	for i := 0; i < 6; i++ {
		p.counters["blockpilot_proposer_commits_total"] += 100
		p.counters["blockpilot_proposer_aborts_total"] += 4
		r.Poll()
	}
	if inc, _ := r.Incidents(); len(inc) != 0 {
		t.Fatalf("healthy ratio fired: %+v", inc)
	}
	// Thrash phase: aborts dominate.
	for i := 0; i < 4; i++ {
		p.counters["blockpilot_proposer_commits_total"] += 10
		p.counters["blockpilot_proposer_aborts_total"] += 90
		r.Poll()
	}
	inc, _ := r.Incidents()
	if len(inc) != 1 || inc[0].Rule != "abort-spike" {
		t.Fatalf("incidents = %+v, want one abort-spike", inc)
	}
}

// TestDeterministicIncidents: identical inputs under a fixed fake clock
// produce byte-identical incident records (ordering, timestamps, details).
func TestDeterministicIncidents(t *testing.T) {
	run := func() []Incident {
		p := stallProbe()
		r := testRecorder(t, Options{Rules: []Rule{&StallRule{
			Windows:          4,
			WorkGauges:       []string{"blockpilot_pipeline_blocks_inflight"},
			ProgressCounters: []string{"blockpilot_validator_blocks_total"},
		}}}, p)
		for i := 0; i < 8; i++ {
			r.Poll()
		}
		inc, _ := r.Incidents()
		return inc
	}
	a, b := run(), run()
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatalf("incident records differ across identical runs:\n%s\n%s", ja, jb)
	}
	if len(a) != 1 {
		t.Fatalf("incidents = %d, want 1", len(a))
	}
}

func TestIncidentBundleContents(t *testing.T) {
	dir := t.TempDir()
	p := stallProbe()
	// An installed trace recorder contributes its Perfetto file as trace.json.
	tr := trace.Enable()
	t.Cleanup(func() { trace.Disable() })
	tr.RecordSpan("v0", trace.StageCommit, types.Hash{1}, 1, time.Unix(1, 0), time.Unix(2, 0))
	r := testRecorder(t, Options{
		IncidentDir: dir,
		Rules: []Rule{&StallRule{
			Windows:          4,
			WorkGauges:       []string{"blockpilot_pipeline_blocks_inflight"},
			ProgressCounters: []string{"blockpilot_validator_blocks_total"},
		}},
	}, p)
	for i := 0; i < 5; i++ {
		r.Poll()
	}
	inc, _ := r.Incidents()
	if len(inc) != 1 {
		t.Fatalf("incidents = %d, want 1", len(inc))
	}
	if inc[0].BundleErr != "" {
		t.Fatalf("bundle error: %s", inc[0].BundleErr)
	}
	if !strings.HasPrefix(filepath.Base(inc[0].BundleDir), "incident-001-stall-") {
		t.Fatalf("bundle dir name: %s", inc[0].BundleDir)
	}

	var bundle incidentBundle
	raw, err := os.ReadFile(filepath.Join(inc[0].BundleDir, "incident.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &bundle); err != nil {
		t.Fatalf("incident.json invalid: %v", err)
	}
	if bundle.Incident.Rule != "stall" || len(bundle.Samples) == 0 {
		t.Fatalf("bundle payload: %+v", bundle.Incident)
	}
	if bundle.Samples[len(bundle.Samples)-1].Seq != bundle.Incident.SampleSeq {
		t.Fatal("bundle samples do not end at the triggering sample")
	}

	gor, err := os.ReadFile(filepath.Join(inc[0].BundleDir, "goroutines.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(gor), "goroutine ") {
		t.Fatalf("goroutines.txt does not look like a stack dump:\n%.200s", gor)
	}

	var snap map[string]any
	raw, err = os.ReadFile(filepath.Join(inc[0].BundleDir, "telemetry.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("telemetry.json invalid: %v", err)
	}
	if _, ok := snap["counters"]; !ok {
		t.Fatal("telemetry.json lacks counters")
	}

	var slices []traceSlice
	for _, ev := range readTraceFile(t, inc[0].BundleDir) {
		if ev.Ph == "X" {
			slices = append(slices, ev)
		}
	}
	if len(slices) != 1 || !strings.HasPrefix(slices[0].Name, "commit ") || slices[0].Pid != 4 || slices[0].Dur != 1e6 {
		t.Fatalf("trace.json slices = %+v, want the recorder's one 1s commit stage", slices)
	}
}

// traceSlice is the part of one Chrome trace event the bundle tests read.
type traceSlice struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Dur  float64        `json:"dur"`
	Args map[string]any `json:"args"`
}

// readTraceFile decodes the trace.json of the bundle in dir.
func readTraceFile(t *testing.T, dir string) []traceSlice {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []traceSlice `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatalf("trace.json invalid: %v", err)
	}
	return file.TraceEvents
}

func TestMaxIncidentsCap(t *testing.T) {
	g := 0
	r := testRecorderSized(t, Options{
		// Alternate growth episodes (eight samples, +70) and flat ticks to
		// fire repeatedly.
		Rules:   []Rule{&GoroutineGrowthRule{}},
		Runtime: func() telemetry.RuntimeInfo { g += 10; return telemetry.RuntimeInfo{Goroutines: g} },
	}, nil, ringCapacity, 2)
	flat := func() {
		v := g
		r.opts.Runtime = func() telemetry.RuntimeInfo { return telemetry.RuntimeInfo{Goroutines: v} }
	}
	grow := func() {
		r.opts.Runtime = func() telemetry.RuntimeInfo { g += 10; return telemetry.RuntimeInfo{Goroutines: g} }
	}
	for episode := 0; episode < 4; episode++ {
		grow()
		for i := 0; i < 8; i++ {
			r.Poll()
		}
		flat()
		r.Poll()
	}
	inc, dropped := r.Incidents()
	if len(inc) != 2 {
		t.Fatalf("incidents = %d, want cap 2", len(inc))
	}
	if dropped == 0 {
		t.Fatal("dropped count not reported")
	}
}

// TestIncidentBundleFlightViews: with the trace recorder installed, the
// bundle's one trace.json holds its transaction events too, as
// /flight/trace.json serves them.
func TestIncidentBundleFlightViews(t *testing.T) {
	trace.Enable()
	t.Cleanup(func() { trace.Disable() })
	tx := &types.Transaction{Nonce: 1, Gas: 21000, To: types.HexToAddress("0xdead")}
	trace.Admit(tx)
	r := testRecorder(t, Options{
		IncidentDir: t.TempDir(),
		Rules: []Rule{&StallRule{
			Windows:          4,
			WorkGauges:       []string{"blockpilot_pipeline_blocks_inflight"},
			ProgressCounters: []string{"blockpilot_validator_blocks_total"},
		}},
	}, stallProbe())
	for i := 0; i < 5; i++ {
		r.Poll()
	}
	inc, _ := r.Incidents()
	if len(inc) != 1 || inc[0].BundleErr != "" {
		t.Fatalf("incidents = %+v, want one bundle", inc)
	}
	if _, err := os.Stat(filepath.Join(inc[0].BundleDir, "flight.json")); !os.IsNotExist(err) {
		t.Fatalf("bundle still writes flight.json (stat err %v)", err)
	}
	var admits []traceSlice
	for _, ev := range readTraceFile(t, inc[0].BundleDir) {
		if ev.Ph == "i" {
			admits = append(admits, ev)
		}
	}
	if len(admits) != 1 || !strings.HasPrefix(admits[0].Name, "admit ") || admits[0].Args["tx"] != tx.Hash().String() {
		t.Fatalf("trace.json instants = %+v, want the one admit of %s", admits, tx.Hash())
	}
}
