package pipeline

import (
	"testing"

	"blockpilot/internal/chain"
	"blockpilot/internal/core"
	"blockpilot/internal/mempool"
	"blockpilot/internal/telemetry"
	"blockpilot/internal/trace"
	"blockpilot/internal/validator"
	"blockpilot/internal/workload"
)

// TestEndToEndTelemetry drives the full propose → pipeline path with
// instrumentation enabled and checks that every layer's hot-path metrics
// actually fired: proposer commit counters, the validator's block counter,
// and the four pipeline phase histograms.
func TestEndToEndTelemetry(t *testing.T) {
	telemetry.Enable()
	defer telemetry.Disable()
	tr := trace.Enable()
	defer trace.Disable()
	before := telemetry.TakeSnapshot()

	c, heights := buildChain(t, 3, 0)
	p := New(c, validator.DefaultConfig(4), nil)
	for _, level := range heights {
		p.Submit(level[0])
	}
	p.Close()
	for out := range p.Results() {
		if out.Err != nil {
			t.Fatalf("block %d: %v", out.Block.Number(), out.Err)
		}
	}

	after := telemetry.TakeSnapshot()
	counterGrew := func(name string, atLeast float64) {
		t.Helper()
		if d := after.Counter(name) - before.Counter(name); d < atLeast {
			t.Errorf("%s grew by %.0f, want ≥ %.0f", name, d, atLeast)
		}
	}
	counterGrew("blockpilot_proposer_commits_total", 3*60) // 3 blocks × 60 txs
	counterGrew("blockpilot_proposer_snapshot_builds_total", 3*60)
	counterGrew("blockpilot_validator_blocks_total", 3)
	histGrew := func(name string, atLeast uint64) {
		t.Helper()
		var prev uint64
		if h := before.Histogram(name); h != nil {
			prev = h.Count
		}
		h := after.Histogram(name)
		if h == nil || h.Count-prev < atLeast {
			t.Errorf("histogram %s did not record ≥ %d new observations", name, atLeast)
		}
	}
	histGrew("blockpilot_proposer_block_duration_ns", 3)
	histGrew("blockpilot_pipeline_prepare_duration_ns", 3)
	histGrew("blockpilot_pipeline_execute_duration_ns", 3)
	histGrew("blockpilot_pipeline_validate_duration_ns", 3)
	histGrew("blockpilot_pipeline_commit_duration_ns", 3)
	histGrew("blockpilot_pipeline_block_duration_ns", 3)
	// Gauges settle back to idle after Close.
	if v := after.Gauge("blockpilot_pipeline_blocks_inflight"); v != 0 {
		t.Errorf("inflight gauge = %f after Close, want 0", v)
	}
	// The same phases landed in the block tracer with height labels.
	found := false
	for _, sp := range tr.Spans() {
		if sp.Stage == trace.StageCommit && sp.Height >= 1 {
			found = true
			break
		}
	}
	if !found {
		t.Error("no commit span with a height label in the block tracer")
	}
}

// TestPhaseTimedOnce: each phase is one interval with two sinks. With
// telemetry on and a private collector, one proposed and validated block
// must leave, for seal / prepare / execute / verify / commit, a histogram
// whose Sum grew by exactly the recorded span's duration — to the nanosecond,
// which two separate clock pairs around the same code cannot produce. The
// block also carries an insert mark under the pipeline's configured node.
func TestPhaseTimedOnce(t *testing.T) {
	telemetry.Enable()
	defer telemetry.Disable()
	tr := trace.NewCollector(0)

	cfg := workload.Default()
	cfg.NumAccounts = 400
	cfg.TxPerBlock = 60
	g := workload.New(cfg)
	genesis := g.GenesisState()
	params := chain.DefaultParams()
	c := chain.NewChain(genesis, params)
	pool := mempool.New()
	pool.AddAll(g.NextBlockTxs())

	before := telemetry.TakeSnapshot()
	res, err := core.Propose(genesis, &c.Genesis().Header, pool, core.ProposerConfig{
		Threads: 4, Coinbase: coinbase, Time: 1, Tracer: tr,
	}, params)
	if err != nil {
		t.Fatal(err)
	}
	vcfg := validator.DefaultConfig(4)
	vcfg.Node, vcfg.Tracer = "v0", tr
	p := New(c, vcfg, nil)
	p.Submit(res.Block)
	p.Close()
	for out := range p.Results() {
		if out.Err != nil {
			t.Fatalf("block %d: %v", out.Block.Number(), out.Err)
		}
	}
	after := telemetry.TakeSnapshot()

	spans := tr.SpansFor(res.Block.Hash())
	for _, tc := range []struct {
		stage trace.Stage
		hist  string
	}{
		{trace.StageSeal, "blockpilot_proposer_block_duration_ns"},
		{trace.StagePrepare, "blockpilot_pipeline_prepare_duration_ns"},
		{trace.StageExecute, "blockpilot_pipeline_execute_duration_ns"},
		{trace.StageVerify, "blockpilot_pipeline_validate_duration_ns"},
		{trace.StageCommit, "blockpilot_pipeline_commit_duration_ns"},
	} {
		var span *trace.Span
		for i := range spans {
			if spans[i].Stage == tc.stage {
				if span != nil {
					t.Fatalf("%s: more than one span for one block", tc.stage)
				}
				span = &spans[i]
			}
		}
		if span == nil {
			t.Errorf("%s: no span recorded", tc.stage)
			continue
		}
		h, prev := after.Histogram(tc.hist), before.Histogram(tc.hist)
		if h == nil || prev == nil || h.Count-prev.Count != 1 {
			t.Errorf("%s: histogram %s did not record exactly one observation", tc.stage, tc.hist)
			continue
		}
		if got, want := h.Sum-prev.Sum, uint64(span.Dur()); got != want {
			t.Errorf("%s: histogram observed %d ns, span lasted %d ns — the phase was timed twice", tc.stage, got, want)
		}
	}
	inserted := false
	for _, sp := range spans {
		inserted = inserted || sp.Stage == trace.StageInsert && sp.Node == "v0"
	}
	if !inserted {
		t.Error("validated block has no insert mark under node v0")
	}
}
