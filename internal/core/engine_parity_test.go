package core

import (
	"sort"
	"testing"

	"blockpilot/internal/chain"
	"blockpilot/internal/mempool"
	"blockpilot/internal/state"
	"blockpilot/internal/types"
	"blockpilot/internal/workload"
)

func proposeWith(t *testing.T, engine string, threads int, txs []*types.Transaction,
	parent *state.Snapshot, parentHeader *types.Header, params chain.Params) *ProposeResult {
	t.Helper()
	pool := mempool.New()
	pool.AddAll(txs)
	res, err := Propose(parent, parentHeader, pool, ProposerConfig{
		Engine:   engine,
		Threads:  threads,
		Coinbase: coinbase,
		Time:     1,
	}, params)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func txHashSet(txs []*types.Transaction) []types.Hash {
	hs := make([]types.Hash, len(txs))
	for i, tx := range txs {
		hs[i] = tx.Hash()
	}
	sort.Slice(hs, func(i, j int) bool {
		for b := range hs[i] {
			if hs[i][b] != hs[j][b] {
				return hs[i][b] < hs[j][b]
			}
		}
		return false
	})
	return hs
}

// checkSealParity holds an engine's block to the one header assembly: it
// passes chain.CheckBody, and chain.SealBlock over a serial replay of its
// transactions seals a block that passes too, under the same header but for
// ProfileRoot (profile read versions follow each executor's schedule).
func checkSealParity(t *testing.T, blk *types.Block, parent *state.Snapshot, parentHeader *types.Header, params chain.Params) {
	t.Helper()
	if err := chain.CheckBody(blk); err != nil {
		t.Fatalf("engine block %d: %v", blk.Number(), err)
	}
	serial, err := chain.ExecuteSerial(parent, &blk.Header, blk.Txs, params)
	if err != nil {
		t.Fatal(err)
	}
	sealed := chain.SealBlock(parentHeader, blk.Header.Coinbase, blk.Header.Time, blk.Txs, serial, params)
	if err := chain.CheckBody(sealed); err != nil {
		t.Fatalf("SealBlock block %d: %v", sealed.Number(), err)
	}
	h := sealed.Header
	h.ProfileRoot = blk.Header.ProfileRoot
	if h.Hash() != blk.Hash() {
		t.Fatalf("block %d: SealBlock's header differs from the engine's beyond ProfileRoot:\n%+v\n%+v", blk.Number(), sealed.Header, blk.Header)
	}
}

// TestEngineParity runs randomized transfer-only workloads through both
// proposer engines and demands identical committed state roots and per-block
// transaction sets. Native transfers commute in the final state, so as long
// as both engines commit the full pool the roots must agree even where the
// in-block orders differ; the MV-STM block order is additionally checked to
// preserve the claimed (pool pop) index order via mvSealOrderHook.
func TestEngineParity(t *testing.T) {
	params := chain.DefaultParams()

	var hookClaimed, hookSealed []*types.Transaction
	mvSealOrderHook = func(claimed, sealed []*types.Transaction) {
		hookClaimed, hookSealed = claimed, sealed
	}
	defer func() { mvSealOrderHook = nil }()

	for _, seed := range []int64{1, 2, 7, 42} {
		cfg := workload.Default()
		cfg.Seed = seed
		cfg.TxPerBlock = 96
		cfg.NativeRatio = 1.0
		cfg.SwapRatio = 0
		cfg.MixerRatio = 0

		// Two chained blocks per engine: per-block tx sets and the final root
		// must both match across engines.
		run := func(engine string, threads int) (roots []types.Hash, sets [][]types.Hash) {
			g := workload.New(cfg)
			parent := g.GenesisState()
			parentHeader := &types.Header{Number: 0, StateRoot: parent.Root(), GasLimit: params.GasLimit}
			for b := 0; b < 2; b++ {
				txs := g.NextBlockTxs()
				res := proposeWith(t, engine, threads, txs, parent, parentHeader, params)
				if res.Committed != len(txs) {
					t.Fatalf("seed %d engine %s block %d: committed %d of %d (dropped %d)",
						seed, engine, b, res.Committed, len(txs), res.Dropped)
				}
				checkSealParity(t, res.Block, parent, parentHeader, params)
				roots = append(roots, res.Block.Header.StateRoot)
				sets = append(sets, txHashSet(res.Block.Txs))
				parent = res.State
				parentHeader = &res.Block.Header
			}
			return roots, sets
		}

		occRoots, occSets := run(EngineOCCWSI, 4)
		mvRoots, mvSets := run(EngineMVSTM, 4)

		for b := range occRoots {
			if occRoots[b] != mvRoots[b] {
				t.Fatalf("seed %d block %d: state root diverges: occ-wsi %s, mv-stm %s",
					seed, b, occRoots[b], mvRoots[b])
			}
			if len(occSets[b]) != len(mvSets[b]) {
				t.Fatalf("seed %d block %d: tx count diverges: %d vs %d", seed, b, len(occSets[b]), len(mvSets[b]))
			}
			for i := range occSets[b] {
				if occSets[b][i] != mvSets[b][i] {
					t.Fatalf("seed %d block %d: tx sets diverge", seed, b)
				}
			}
		}

		// MV-STM must seal in claimed index order: the sealed list is the
		// claimed list minus drops/cuts, with relative order intact.
		j := 0
		for _, tx := range hookSealed {
			for j < len(hookClaimed) && hookClaimed[j] != tx {
				j++
			}
			if j == len(hookClaimed) {
				t.Fatalf("seed %d: mv-stm block order is not a subsequence of the claimed order", seed)
			}
			j++
		}
	}
}

// TestEngineParityContended repeats the parity check on a transfer workload
// aimed at a few hot recipients, where MV-STM actually aborts and
// re-executes: validation failures must not leak into the committed state.
func TestEngineParityContended(t *testing.T) {
	params := chain.DefaultParams()
	cfg := workload.Default()
	cfg.Seed = 11
	cfg.TxPerBlock = 80
	cfg.NumAccounts = 12 // few senders → dense conflicts on balances
	cfg.NativeRatio = 1.0
	cfg.SwapRatio = 0
	cfg.MixerRatio = 0

	run := func(engine string) (types.Hash, []types.Hash, int) {
		g := workload.New(cfg)
		parent := g.GenesisState()
		parentHeader := &types.Header{Number: 0, StateRoot: parent.Root(), GasLimit: params.GasLimit}
		txs := g.NextBlockTxs()
		res := proposeWith(t, engine, 8, txs, parent, parentHeader, params)
		if res.Committed != len(txs) {
			t.Fatalf("engine %s: committed %d of %d", engine, res.Committed, len(txs))
		}
		serial, err := chain.ExecuteSerial(parent, &res.Block.Header, res.Block.Txs, params)
		if err != nil {
			t.Fatal(err)
		}
		if serial.State.Root() != res.Block.Header.StateRoot {
			t.Fatalf("engine %s: block not serializable (aborts=%d)", engine, res.Aborts)
		}
		return res.Block.Header.StateRoot, txHashSet(res.Block.Txs), res.Aborts
	}

	occRoot, occSet, _ := run(EngineOCCWSI)
	mvRoot, mvSet, mvAborts := run(EngineMVSTM)
	if occRoot != mvRoot {
		t.Fatalf("contended parity: roots diverge (mv reexecutions=%d)", mvAborts)
	}
	for i := range occSet {
		if occSet[i] != mvSet[i] {
			t.Fatal("contended parity: tx sets diverge")
		}
	}
}

// TestMVDeterminism: the MV-STM engine's output is a pure function of the
// claimed transaction order, independent of worker scheduling — the same
// pool must produce bit-identical blocks at any thread count.
func TestMVDeterminism(t *testing.T) {
	cfg := workload.Default()
	cfg.TxPerBlock = 60
	mk := func(threads int) types.Hash {
		g := workload.New(cfg)
		parent := g.GenesisState()
		pool := mempool.New()
		pool.AddAll(g.NextBlockTxs())
		parentHeader := &types.Header{Number: 0, StateRoot: parent.Root(), GasLimit: chain.DefaultParams().GasLimit}
		res, err := Propose(parent, parentHeader, pool, ProposerConfig{
			Engine: EngineMVSTM, Threads: threads, Coinbase: coinbase, Time: 1,
		}, chain.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		return res.Block.Hash()
	}
	ref := mk(1)
	for _, threads := range []int{1, 2, 4, 8} {
		if got := mk(threads); got != ref {
			t.Fatalf("mv-stm block differs at threads=%d", threads)
		}
	}
}

// TestMVSmoke is the short-mode MV-STM gate run by make ci: one mixed
// workload block (transfers + swaps + mixer calls) through the MV-STM
// engine, checked for serializability against a serial replay.
func TestMVSmoke(t *testing.T) {
	cfg := workload.Default()
	cfg.TxPerBlock = 72
	g := workload.New(cfg)
	parent := g.GenesisState()
	params := chain.DefaultParams()
	txs := g.NextBlockTxs()

	pool := mempool.New()
	pool.AddAll(txs)
	parentHeader := &types.Header{Number: 0, StateRoot: parent.Root(), GasLimit: params.GasLimit}
	res, err := Propose(parent, parentHeader, pool, ProposerConfig{
		Engine: EngineMVSTM, Threads: 4, Coinbase: coinbase, Time: 1,
	}, params)
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != len(txs) {
		t.Fatalf("committed %d of %d (dropped %d)", res.Committed, len(txs), res.Dropped)
	}
	serial, err := chain.ExecuteSerial(parent, &res.Block.Header, res.Block.Txs, params)
	if err != nil {
		t.Fatal(err)
	}
	if serial.State.Root() != res.Block.Header.StateRoot {
		t.Fatalf("mv-stm block not serializable: serial %s != proposed %s (reexecutions=%d)",
			serial.State.Root(), res.Block.Header.StateRoot, res.Aborts)
	}
	if got := types.ComputeReceiptRoot(serial.Receipts); got != res.Block.Header.ReceiptRoot {
		t.Fatal("receipt root mismatch")
	}
}

// TestUnknownEngine: a typo'd engine name must be rejected, not silently
// fall back to a default.
func TestUnknownEngine(t *testing.T) {
	g := workload.New(workload.Default())
	parent := g.GenesisState()
	pool := mempool.New()
	parentHeader := &types.Header{Number: 0, StateRoot: parent.Root(), GasLimit: chain.DefaultParams().GasLimit}
	_, err := Propose(parent, parentHeader, pool, ProposerConfig{Engine: "block-stm"}, chain.DefaultParams())
	if err == nil {
		t.Fatal("unknown engine accepted")
	}
}
