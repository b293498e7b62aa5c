package core

import (
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"blockpilot/internal/chain"
	"blockpilot/internal/mempool"
	"blockpilot/internal/state"
	"blockpilot/internal/telemetry"
	"blockpilot/internal/types"
	"blockpilot/internal/validator"
	"blockpilot/internal/workload"
)

// blockPath takes txs through one round of the node loop: Propose on parent,
// Block.Encode, types.DecodeBlock (the validator inherits no proposer-side
// cache), validator.ValidateParallel.
func blockPath(t testing.TB, cfg ProposerConfig, parent *state.Snapshot, txs []*types.Transaction, params chain.Params) (*ProposeResult, *validator.Result) {
	t.Helper()
	pool := mempool.New()
	pool.AddAll(txs)
	parentHeader := &types.Header{Number: 0, StateRoot: parent.Root(), GasLimit: params.GasLimit}
	res, err := Propose(parent, parentHeader, pool, cfg, params)
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != len(txs) {
		t.Fatalf("packed %d of %d transactions", res.Committed, len(txs))
	}
	blk, err := types.DecodeBlock(res.Block.Encode())
	if err != nil {
		t.Fatal(err)
	}
	val, err := validator.ValidateParallel(parent, parentHeader, blk, validator.DefaultConfig(cfg.Threads), params)
	if err != nil {
		t.Fatal(err)
	}
	return res, val
}

// The block path's allocation budget (docs/PERFORMANCE.md §10), per
// transaction of a 132-transaction workload.Default() block at 2 threads:
// what this tree measures (10.6 KiB, 65 allocations) plus 10 %. The tree
// before the append-style encoders, the one-pass roots and the per-lane
// overlay measured 30.7 KiB and 360, so losing any one of them fails here,
// without the benchmark; the one before the sorted change sets and the trie
// batch that recurses by depth, 14.2 KiB and 111; the one before each trie
// node held its own reference, 11.9 KiB and 89. An OCC abort re-executes a
// transaction, so the figures move by a percent with the interleaving; 10 %
// covers that.
const (
	blockPathBytesPerTx  = 10.6 * 1024 * 1.10
	blockPathAllocsPerTx = 65 * 1.10
)

func TestBlockPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	cfg := workload.Default()
	g := workload.New(cfg)
	parent, txs := g.GenesisState(), g.NextBlockTxs()
	params := chain.DefaultParams()
	pcfg := ProposerConfig{Threads: 2, Coinbase: coinbase, Time: 1}

	// Re-growing a block-sized buffer is not the path's cost, but the
	// encoders' sync.Pools miss more often the more Ps there are to park a
	// buffer on, and a collection in mid-run empties them. So the passes run
	// on the two Ps the budget was set at, with the collector off, and the
	// least of three is taken.
	procs := runtime.GOMAXPROCS(2)
	t.Cleanup(func() { runtime.GOMAXPROCS(procs) })
	blockPath(t, pcfg, parent, txs, params) // warm the code-analysis cache and the pools
	runtime.GC()
	gcPercent := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(gcPercent) })
	n := float64(len(txs))
	bytes, allocs := math.Inf(1), math.Inf(1)
	for run := 0; run < 3; run++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		blockPath(t, pcfg, parent, txs, params)
		runtime.ReadMemStats(&m1)
		bytes = min(bytes, float64(m1.TotalAlloc-m0.TotalAlloc)/n)
		allocs = min(allocs, float64(m1.Mallocs-m0.Mallocs)/n)
	}
	t.Logf("%.2f KiB and %.1f allocations per transaction", bytes/1024, allocs)
	if bytes > blockPathBytesPerTx {
		t.Errorf("block path allocates %.2f KiB per transaction, budget %.2f", bytes/1024, blockPathBytesPerTx/1024)
	}
	if allocs > blockPathAllocsPerTx {
		t.Errorf("block path makes %.1f allocations per transaction, budget %.1f", allocs, blockPathAllocsPerTx)
	}
}

// TestBlockPathSurvivorsMatchFreshOverlays: what the proposer's workers and
// the validator's lanes hand on from their re-armed overlays — receipts with
// their logs and return data, the sealed profile — equals, transaction by
// transaction, what a serial replay on a fresh overlay per transaction
// produces. A survivor aliasing recycled overlay memory would have been
// overwritten by the lane's next transaction; under `make race` this is also
// the concurrent run of Reset through Propose (every engine variant) and
// validateParallel.
func TestBlockPathSurvivorsMatchFreshOverlays(t *testing.T) {
	cfg := workload.Default()
	params := chain.DefaultParams()
	forEachVariant(t, func(t *testing.T, v variant) {
		g := workload.New(cfg)
		parent, txs := g.GenesisState(), g.NextBlockTxs()
		res, val := blockPath(t, v.config(2, txs), parent, txs, params)

		bc := chain.BlockContextFor(&res.Block.Header, params.ChainID)
		accum := state.NewMemory(parent)
		var cumulative uint64
		for i, tx := range res.Block.Txs {
			o := state.NewOverlay(accum, types.Version(i))
			want, _, err := chain.ApplyTransaction(o, tx, bc)
			if err != nil {
				t.Fatalf("tx %d: %v", i, err)
			}
			accum.ApplyChangeSet(o.ChangeSet())
			cumulative += want.GasUsed
			want.CumulativeGasUsed = cumulative
			if !reflect.DeepEqual(res.Receipts[i], want) {
				t.Fatalf("tx %d: proposer receipt %+v, fresh-overlay replay %+v", i, res.Receipts[i], want)
			}
			if !reflect.DeepEqual(val.Receipts[i], want) {
				t.Fatalf("tx %d: validator receipt %+v, fresh-overlay replay %+v", i, val.Receipts[i], want)
			}
			profile := types.ProfileFromAccessSet(o.Access(), want.GasUsed)
			if got := res.Block.Profile.Txs[i]; !got.SameAccessKeys(profile) || got.GasUsed != profile.GasUsed {
				t.Fatalf("tx %d: sealed profile differs from the fresh-overlay replay's", i)
			}
		}
	})
}

// TestBlockPathHotPair is the contended end of the block path: 70 % of each
// block swaps on the one AMM pair, so nearly every OCC-WSI execution meets a
// reserve slot rewritten since its snapshot and either extends or aborts. Every
// block proposed — 20 seeds at 2, 4 and 8 threads — must pack the whole pool,
// pass the parallel validator after a wire round trip and pass the serial
// baseline validator: whatever the interleaving, the commit order is a serial
// order and the sealed profile is what a replay observes.
func TestBlockPathHotPair(t *testing.T) {
	params := chain.DefaultParams()
	extensions, aborts, packed := telemetry.ProposerSnapshotExtensions.Value(), 0, 0
	for seed := int64(1); seed <= 20; seed++ {
		cfg := workload.Default()
		cfg.Seed = seed
		cfg.TxPerBlock = 64
		cfg.SwapRatio, cfg.NumPairs = 0.70, 1
		cfg.SpinMin, cfg.SpinMax = 50, 400 // the schedule, not the compute, is under test
		g := workload.New(cfg)
		parent, txs := g.GenesisState(), g.NextBlockTxs()
		parentHeader := &types.Header{Number: 0, StateRoot: parent.Root(), GasLimit: params.GasLimit}
		for _, threads := range []int{2, 4, 8} {
			res, _ := blockPath(t, ProposerConfig{Threads: threads, Coinbase: coinbase, Time: 1}, parent, txs, params)
			if res.Dropped != 0 {
				t.Fatalf("seed %d threads %d: %d transactions dropped", seed, threads, res.Dropped)
			}
			if _, err := chain.VerifyBlockSerial(parent, parentHeader, res.Block, params); err != nil {
				t.Fatalf("seed %d threads %d (aborts %d): serial validator: %v", seed, threads, res.Aborts, err)
			}
			aborts, packed = aborts+res.Aborts, packed+res.Committed
		}
	}
	extensions = telemetry.ProposerSnapshotExtensions.Value() - extensions
	t.Logf("%d transactions packed: %d executions re-based on a newer commit, %d aborted", packed, extensions, aborts)
	if runtime.GOMAXPROCS(0) > 1 && extensions == 0 {
		t.Fatal("no execution extended its snapshot: the workload no longer exercises extension")
	}
}

// BenchmarkProposeHotspot packs one block of the benchmark's hotspot mix (132
// transactions, 70 % of them swaps on one pair) with OCC-WSI at 2 threads, and
// reports what the contention cost: aborts per packed transaction.
func BenchmarkProposeHotspot(b *testing.B) {
	cfg := workload.Default()
	cfg.SwapRatio, cfg.NumPairs = 0.70, 1
	cfg.NativeRatio, cfg.MixerRatio = 0.12, 0.06
	g := workload.New(cfg)
	parent, txs := g.GenesisState(), g.NextBlockTxs()
	params := chain.DefaultParams()
	parentHeader := &types.Header{Number: 0, StateRoot: parent.Root(), GasLimit: params.GasLimit}
	aborts, packed := 0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool := mempool.New()
		pool.AddAll(txs)
		res, err := Propose(parent, parentHeader, pool, ProposerConfig{Threads: 2, Coinbase: coinbase, Time: 1}, params)
		if err != nil || res.Committed != len(txs) {
			b.Fatalf("packed %d of %d: %v", res.Committed, len(txs), err)
		}
		aborts, packed = aborts+res.Aborts, packed+res.Committed
	}
	b.ReportMetric(float64(aborts)/float64(packed), "aborts/tx")
}
