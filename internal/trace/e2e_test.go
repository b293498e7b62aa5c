// End-to-end recorder tests: drive the real proposer and validator with a
// recorder installed and check the reconstructed per-transaction timelines
// and the conflict-attribution acceptance bound. These live in the external
// test package because core and validator import trace.
package trace_test

import (
	"testing"

	"blockpilot/internal/chain"
	"blockpilot/internal/core"
	"blockpilot/internal/mempool"
	"blockpilot/internal/pipeline"
	"blockpilot/internal/trace"
	"blockpilot/internal/types"
	"blockpilot/internal/validator"
	"blockpilot/internal/workload"
)

// proposeWithRecorder packs one block from a fresh workload with the given
// config, with a recorder installed for the whole propose+validate
// round trip.
func proposeWithRecorder(t *testing.T, cfg workload.Config, threads int) (*trace.Recorder, *core.ProposeResult, *validator.Result, []*types.Transaction) {
	t.Helper()
	rec := trace.Enable()
	t.Cleanup(func() { trace.Disable() })

	g := workload.New(cfg)
	parent := g.GenesisState()
	params := chain.DefaultParams()
	parentHeader := &types.Header{Number: 0, StateRoot: parent.Root(), GasLimit: params.GasLimit}

	txs := g.NextBlockTxs()
	pool := mempool.New()
	pool.AddAll(txs)
	res, err := core.Propose(parent, parentHeader, pool, core.ProposerConfig{
		Threads:  threads,
		Coinbase: types.HexToAddress("0xc01bbace"),
		Time:     1,
	}, params)
	if err != nil {
		t.Fatal(err)
	}
	vres, err := validator.ValidateParallel(parent, parentHeader, res.Block, validator.DefaultConfig(threads), params)
	if err != nil {
		t.Fatalf("validation rejected the proposed block: %v", err)
	}
	return rec, res, vres, txs
}

// TestEndToEndTimeline checks the ISSUE 3 acceptance: `txtrace` on a
// committed transaction reconstructs the complete
// admit → pop → execute → commit → seal → assign → replay → verify timeline.
func TestEndToEndTimeline(t *testing.T) {
	cfg := workload.Default()
	cfg.TxPerBlock = 96
	rec, res, _, _ := proposeWithRecorder(t, cfg, 4)

	if res.Committed == 0 {
		t.Fatal("no transactions committed")
	}
	for _, tx := range res.Block.Txs[:3] {
		tl, err := rec.TimelineByPrefix(tx.Hash().String())
		if err != nil {
			t.Fatal(err)
		}
		have := map[trace.EventKind]bool{}
		for _, ev := range tl {
			have[ev.Kind] = true
		}
		for _, want := range []trace.EventKind{
			trace.EvAdmit, trace.EvPop, trace.EvExecStart, trace.EvExecEnd,
			trace.EvCommit, trace.EvSeal, trace.EvAssign,
			trace.EvReplayStart, trace.EvReplayEnd, trace.EvVerifyPass,
		} {
			if !have[want] {
				t.Fatalf("tx %s timeline missing %s: %s",
					tx.Hash(), want, trace.RenderTimeline(trace.Views(tl, nil)))
			}
		}
		// Milestones appear in lifecycle order.
		order := map[trace.EventKind]int{}
		for i, ev := range tl {
			if _, seen := order[ev.Kind]; !seen {
				order[ev.Kind] = i
			}
		}
		prev := -1
		for _, k := range []trace.EventKind{trace.EvAdmit, trace.EvPop, trace.EvCommit, trace.EvSeal, trace.EvReplayStart, trace.EvVerifyPass} {
			if order[k] <= prev {
				t.Fatalf("tx %s: %s out of order:\n%s", tx.Hash(), k, trace.RenderTimeline(trace.Views(tl, nil)))
			}
			prev = order[k]
		}
		// TimelineByPrefix resolves the same timeline from the hash string.
		byPrefix, err := rec.TimelineByPrefix(tx.Hash().String())
		if err != nil || len(byPrefix) != len(tl) {
			t.Fatalf("TimelineByPrefix: %d events, err %v (want %d)", len(byPrefix), err, len(tl))
		}
	}
}

// TestEndToEndAttribution checks the hot-key acceptance bound on a skewed
// workload: when most transactions hammer a couple of AMM pairs, the top-10
// hot keys must attribute ≥ 80% of all aborts.
func TestEndToEndAttribution(t *testing.T) {
	cfg := workload.Default()
	cfg.TxPerBlock = 128
	cfg.SwapRatio = 0.95
	cfg.NumPairs = 1
	cfg.NativeRatio = 0
	cfg.MixerRatio = 0

	// Whether the workers conflict at all depends on how the OS interleaves
	// them: on a loaded host they often run one after another and commit
	// without a single abort. Propose the block again until some attempt
	// aborts, so the bound below is checked on a loaded host too.
	var (
		rec *trace.Recorder
		res *core.ProposeResult
		rep *trace.AttributionReport
	)
	for attempt := 0; attempt < 30; attempt++ {
		rec, res, _, _ = proposeWithRecorder(t, cfg, 8)
		if rep = rec.Attribution(10); rep.TotalAborts > 0 {
			break
		}
	}
	if rep.TotalAborts == 0 {
		// A single-threaded scheduler interleaving can avoid conflicts
		// entirely; the attribution bound is then vacuous.
		t.Skipf("no aborts occurred in 30 attempts (committed=%d); nothing to attribute", res.Committed)
	}
	if rep.TopKeyShare < 0.8 {
		t.Fatalf("top-10 keys attribute %.1f%% of %d aborts, want ≥ 80%%:\n%s",
			rep.TopKeyShare*100, rep.TotalAborts, rep.Render())
	}
	if len(rep.Keys) == 0 || len(rep.Senders) == 0 {
		t.Fatal("attribution report missing hot keys / senders")
	}
}

// TestEndToEndAbortEvents cross-checks the recorder's abort stream against
// the proposer's own abort counter on a contended workload.
func TestEndToEndAbortEvents(t *testing.T) {
	cfg := workload.Default()
	cfg.TxPerBlock = 64
	cfg.SwapRatio = 1.0
	cfg.NumPairs = 1
	cfg.NativeRatio = 0
	cfg.MixerRatio = 0
	rec, res, _, _ := proposeWithRecorder(t, cfg, 8)

	var aborts, commits int
	for _, ev := range rec.Events() {
		switch ev.Kind {
		case trace.EvAbort:
			aborts++
		case trace.EvCommit:
			commits++
		}
	}
	if aborts != res.Aborts {
		t.Fatalf("recorded %d abort events, proposer counted %d", aborts, res.Aborts)
	}
	if commits != res.Committed {
		t.Fatalf("recorded %d commit events, proposer committed %d", commits, res.Committed)
	}
	if total := rec.Total(); total == 0 {
		t.Fatal("recorder saw no events")
	}
}

// TestEndToEndExtendEvents: on a block that is all swaps on one pair, the
// executions the proposer rescued by snapshot extension show up as `extend`
// events — inside one exec_start … exec_end bracket of the rescuing worker,
// moving forward, naming a key of the pair — and an extended execution that
// went on to commit was serialized after the version it moved to.
func TestEndToEndExtendEvents(t *testing.T) {
	cfg := workload.Default()
	cfg.TxPerBlock = 64
	cfg.SwapRatio = 1.0
	cfg.NumPairs = 1
	cfg.NativeRatio = 0
	cfg.MixerRatio = 0
	rec, res, _, _ := proposeWithRecorder(t, cfg, 8)

	extends := 0
	for _, tx := range res.Block.Txs {
		tl, err := rec.TimelineByPrefix(tx.Hash().String())
		if err != nil {
			t.Fatal(err)
		}
		executing := false
		var movedTo types.Version
		for _, ev := range tl {
			switch ev.Kind {
			case trace.EvExecStart:
				executing, movedTo = true, 0
			case trace.EvExecEnd:
				executing = false
			case trace.EvExtend:
				extends++
				if !executing || ev.Version <= ev.Aux || ev.Key == (types.StateKey{}) {
					t.Fatalf("tx %s: malformed extend event (executing=%v):\n%s",
						tx.Hash(), executing, trace.RenderTimeline(trace.Views(tl, nil)))
				}
				movedTo = ev.Version
			case trace.EvCommit:
				if executing && ev.Version <= movedTo {
					t.Fatalf("tx %s committed at version %d after extending to %d:\n%s",
						tx.Hash(), ev.Version, movedTo, trace.RenderTimeline(trace.Views(tl, nil)))
				}
			}
		}
	}
	if extends == 0 {
		// One processor can run the workers back to back with no overlap.
		t.Skipf("no execution extended its snapshot (aborts=%d)", res.Aborts)
	}
	t.Logf("%d extend events, %d aborts over %d transactions", extends, res.Aborts, res.Committed)
}

// TestEndToEndReuseEvents: two proposals on one parent from one pool go
// through a pipeline. Every transaction the follower took from the leader
// shows one `reuse` event on a validator lane, naming the leader's index of
// that same transaction, and one replay (the leader's) instead of two.
func TestEndToEndReuseEvents(t *testing.T) {
	rec := trace.Enable()
	t.Cleanup(func() { trace.Disable() })

	cfg := workload.Default()
	cfg.TxPerBlock = 64
	g := workload.New(cfg)
	genesis := g.GenesisState()
	params := chain.DefaultParams()
	c := chain.NewChain(genesis, params)
	txs := g.NextBlockTxs()
	var blocks [2]*types.Block
	for side := range blocks {
		pool := mempool.New()
		pool.AddAll(txs)
		res, err := core.Propose(genesis, &c.Genesis().Header, pool, core.ProposerConfig{
			Threads: 2, Coinbase: types.Address{19: byte(side + 1)}, Time: 1,
		}, params)
		if err != nil {
			t.Fatal(err)
		}
		blocks[side] = res.Block
	}
	p := pipeline.New(c, validator.DefaultConfig(2), nil)
	for _, b := range blocks {
		p.Submit(b)
	}
	p.Close()
	reused := 0
	for out := range p.Results() {
		if out.Err != nil {
			t.Fatal(out.Err)
		}
		reused += out.Result.Reused
	}
	if reused == 0 {
		t.Fatal("the follower took no result")
	}

	replays := map[types.Hash]int{}
	var reuses []trace.Event
	for _, ev := range rec.Events() {
		switch ev.Kind {
		case trace.EvReplayStart:
			replays[ev.Tx]++
		case trace.EvReuse:
			reuses = append(reuses, ev)
		}
	}
	if len(reuses) != reused {
		t.Fatalf("%d reuse events, the follower took %d results", len(reuses), reused)
	}
	leader := blocks[0]
	for _, ev := range reuses {
		if int(ev.Worker) < trace.ValidatorLaneBase || ev.Aux >= uint64(len(leader.Txs)) || leader.Txs[ev.Aux].Hash() != ev.Tx {
			t.Fatalf("malformed reuse event %+v", ev.View())
		}
		if replays[ev.Tx] != 1 {
			tl, _ := rec.TimelineByPrefix(ev.Tx.String())
			t.Fatalf("taken tx %s replayed %d times:\n%s", ev.Tx, replays[ev.Tx], trace.RenderTimeline(trace.Views(tl, nil)))
		}
	}
}
