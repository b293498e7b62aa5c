package core

import (
	"fmt"
	"testing"

	"blockpilot/internal/adaptive"
	"blockpilot/internal/chain"
	"blockpilot/internal/mempool"
	"blockpilot/internal/state"
	"blockpilot/internal/types"
	"blockpilot/internal/uint256"
)

// adaptiveTortureWorld builds a hand-crafted hotspot: `senders` EOAs each
// firing a nonce chain of native transfers, every other one aimed at a
// single hot deposit address (pure credits — lane + merge bait) and the
// rest at a per-sender cold recipient (parallel traffic). Gas prices cycle
// so the mempool's priority order interleaves hot and cold claims.
func adaptiveTortureWorld(senders, perSender int, hot types.Address) (*state.Snapshot, [][]*types.Transaction) {
	b := state.NewGenesisBuilder()
	froms := make([]types.Address, senders)
	colds := make([]types.Address, senders)
	for i := range froms {
		froms[i] = types.BytesToAddress([]byte(fmt.Sprintf("sender-%03d", i)))
		colds[i] = types.BytesToAddress([]byte(fmt.Sprintf("cold-%03d", i)))
		b.AddAccount(froms[i], uint256.NewInt(1_000_000_000_000))
	}
	blocks := make([][]*types.Transaction, 3)
	nonce := make([]uint64, senders)
	for blk := range blocks {
		for n := 0; n < perSender; n++ {
			for i, from := range froms {
				to := colds[i]
				if (n+i)%2 == 0 {
					to = hot
				}
				tx := &types.Transaction{
					From:  from,
					To:    to,
					Nonce: nonce[i],
					Gas:   21000,
				}
				nonce[i]++
				tx.GasPrice.SetUint64(1 + uint64((i*7+n*3)%13))
				tx.Value.SetUint64(uint64(1 + i + n))
				blocks[blk] = append(blocks[blk], tx)
			}
		}
	}
	return b.Build(), blocks
}

// warmHot marks addr contended as if a prior block had hammered it: enough
// window weight to stay above MinCount through three per-block decays.
func warmHot(ctrl *adaptive.Controller, addr types.Address) {
	feeder := types.BytesToAddress([]byte("warm-feeder"))
	for i := 0; i < 16; i++ {
		ctrl.NoteAbort(feeder, types.AccountKey(addr), -1)
	}
}

// TestAdaptiveLaneTorture is the serial-lane ⇄ parallel-pool boundary
// torture (ISSUE 9 satellite): a multi-block hotspot run per engine where
// block 1 feeds the controller's window, and later blocks route hot
// transactions through the serial lane and fold their credits through the
// commutative pool while cold transactions commit concurrently. Every block
// must replay serially to the identical state root (the commit-order /
// version-order invariant — a lane tx committed out of serialization order,
// or a mis-merged credit, diverges the root), and MV-STM's sealed order
// must remain a subsequence of its claimed order; every sealed profile must
// match what the replay observes, merged credits included. Run under -race by the
// Makefile race target. The hot address doubles as the coinbase, so the
// merged credits materializing before FinalizationChange is also on trial.
func TestAdaptiveLaneTorture(t *testing.T) {
	params := chain.DefaultParams()
	hot := types.BytesToAddress([]byte("hot-deposit-sink"))

	for _, engine := range Engines() {
		t.Run(engine, func(t *testing.T) {
			var sealOrders [][2][]*types.Transaction
			if engine == EngineMVSTM {
				mvSealOrderHook = func(claimed, sealed []*types.Transaction) {
					sealOrders = append(sealOrders, [2][]*types.Transaction{claimed, sealed})
				}
				defer func() { mvSealOrderHook = nil }()
			}

			parent, blocks := adaptiveTortureWorld(16, 4, hot)
			parentHeader := &types.Header{Number: 0, StateRoot: parent.Root(), GasLimit: params.GasLimit}
			ctrl := adaptive.New(adaptive.Config{})
			// Start from a warmed window — the state a contended block
			// leaves the controller in — so every block routes
			// through the lane and the merge deterministically. Organic
			// formation is timing-dependent for sub-microsecond native
			// transfers (both engines can drain 64 of them before workers
			// ever overlap) and is covered by the controller unit tests
			// plus the contended sim/bench runs; this test's job is the
			// lane ⇄ pool boundary invariants.
			warmHot(ctrl, hot)
			pool := mempool.New()

			for b, txs := range blocks {
				pool.AddAll(txs)
				res, err := Propose(parent, parentHeader, pool, ProposerConfig{
					Engine:   engine,
					Threads:  8,
					Coinbase: hot, // the hot account collects the fees too
					Time:     1,
					Adaptive: ctrl,
				}, params)
				if err != nil {
					t.Fatal(err)
				}
				if res.Committed != len(txs) || res.Dropped != 0 {
					t.Fatalf("block %d: committed %d of %d (dropped %d)", b, res.Committed, len(txs), res.Dropped)
				}
				serial, err := chain.ExecuteSerial(parent, &res.Block.Header, res.Block.Txs, params)
				if err != nil {
					t.Fatal(err)
				}
				if serial.State.Root() != res.Block.Header.StateRoot {
					snap := ctrl.Snapshot()
					t.Fatalf("block %d not serializable in block order (lane=%d merged=%d): serial %s != proposed %s",
						b, snap.LaneTxs, snap.MergedCredits, serial.State.Root(), res.Block.Header.StateRoot)
				}
				// A merged credit leaves the engine's conflict footprint, never
				// the sealed profile: a validator replays and compares it.
				for i, want := range serial.Profile.Txs {
					if !want.SameAccessKeys(res.Block.Profile.Txs[i]) {
						t.Fatalf("block %d tx %d: sealed profile differs from the replay's access keys", b, i)
					}
				}
				parent = res.State
				parentHeader = &res.Block.Header
			}

			snap := ctrl.Snapshot()
			if snap.LaneTxs == 0 {
				t.Fatalf("hotspot run never used the serial lane: %+v", snap)
			}
			if snap.MergedCredits == 0 {
				t.Fatalf("hotspot run never merged a credit: %+v", snap)
			}
			for i, so := range sealOrders {
				claimed, sealed := so[0], so[1]
				j := 0
				for _, tx := range sealed {
					for j < len(claimed) && claimed[j] != tx {
						j++
					}
					if j == len(claimed) {
						t.Fatalf("mv-stm block %d: sealed order is not a subsequence of the claimed order", i)
					}
					j++
				}
			}
		})
	}
}

// TestAdaptiveSmoke is the short-mode gate behind `make adaptive-smoke`: one
// contended adaptive block per engine, serializability-checked. Kept small
// so it rides in every `make ci` run.
func TestAdaptiveSmoke(t *testing.T) {
	params := chain.DefaultParams()
	hot := types.BytesToAddress([]byte("hot-deposit-sink"))
	for _, engine := range Engines() {
		parent, blocks := adaptiveTortureWorld(8, 3, hot)
		parentHeader := &types.Header{Number: 0, StateRoot: parent.Root(), GasLimit: params.GasLimit}
		ctrl := adaptive.New(adaptive.Config{})
		warmHot(ctrl, hot) // both lanes live from block 1 in the smoke run
		pool := mempool.New()
		for b, txs := range blocks[:2] {
			pool.AddAll(txs)
			res, err := Propose(parent, parentHeader, pool, ProposerConfig{
				Engine: engine, Threads: 4, Coinbase: coinbase, Time: 1, Adaptive: ctrl,
			}, params)
			if err != nil {
				t.Fatal(err)
			}
			if res.Committed != len(txs) {
				t.Fatalf("%s block %d: committed %d of %d", engine, b, res.Committed, len(txs))
			}
			serial, err := chain.ExecuteSerial(parent, &res.Block.Header, res.Block.Txs, params)
			if err != nil {
				t.Fatal(err)
			}
			if serial.State.Root() != res.Block.Header.StateRoot {
				t.Fatalf("%s block %d: adaptive block not serializable", engine, b)
			}
			parent = res.State
			parentHeader = &res.Block.Header
		}
	}
}
