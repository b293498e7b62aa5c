package core

import (
	"fmt"
	"math/rand"
	"testing"

	"blockpilot/internal/adaptive"
	"blockpilot/internal/chain"
	"blockpilot/internal/mempool"
	"blockpilot/internal/state"
	"blockpilot/internal/types"
	"blockpilot/internal/uint256"
	"blockpilot/internal/validator"
	"blockpilot/internal/workload"
)

// fuzzPool builds the parent state and the pool of one fuzzed proposal from
// rng, in one of three mixes: swaps on one hot AMM pair (aborts and snapshot
// extensions), native credits to one hot recipient (hot is that recipient:
// the caller makes it the coinbase and attaches a controller warm on it, so
// the serial lane and the credit merge engage), or a few senders' nonce
// chains priced against their nonce order (requeues behind a nonce gap).
func fuzzPool(rng *rand.Rand) (parent *state.Snapshot, txs []*types.Transaction, hot types.Address) {
	switch rng.Intn(3) {
	case 0:
		cfg := workload.Default()
		cfg.Seed = rng.Int63()
		cfg.NumAccounts = 200
		cfg.TxPerBlock = 16 + rng.Intn(48)
		cfg.SwapRatio, cfg.NumPairs = 0.5+0.5*rng.Float64(), 1
		cfg.SpinMin, cfg.SpinMax = 50, 400 // the schedule, not the compute, is under test
		g := workload.New(cfg)
		return g.GenesisState(), g.NextBlockTxs(), hot
	case 1:
		hot = types.HexToAddress("0x40700")
		parent, blocks := adaptiveTortureWorld(2+rng.Intn(8), 1+rng.Intn(4), hot)
		return parent, blocks[0], hot
	}
	b := state.NewGenesisBuilder()
	recipients := make([]types.Address, 1+rng.Intn(3))
	for i := range recipients {
		recipients[i] = types.BytesToAddress([]byte(fmt.Sprintf("recipient-%d", i)))
	}
	for s := 1 + rng.Intn(4); s > 0; s-- {
		from := types.BytesToAddress([]byte(fmt.Sprintf("chain-%d", s)))
		b.AddAccount(from, uint256.NewInt(1<<50))
		for n := uint64(0); n < uint64(5+rng.Intn(16)); n++ {
			tx := &types.Transaction{From: from, To: recipients[rng.Intn(len(recipients))], Nonce: n, Gas: 21000}
			tx.GasPrice.SetUint64(1 + uint64(rng.Intn(100)))
			tx.Value.SetUint64(1 + uint64(rng.Intn(1000)))
			txs = append(txs, tx)
		}
	}
	return b.Build(), txs, hot
}

// FuzzProposeSealsValidBlock: whatever the pool, the engine, the worker
// count and the schedule, Propose seals a block that the parallel validator
// accepts and the serial baseline re-executes to the state root its header
// commits to. The fuzzed seed picks the mix and its size (fuzzPool) and the
// worker count, 1 to 4; both engines propose from it on the Go scheduler's
// interleaving, then OCC-WSI twice on the PCT schedule the seed also picks:
// the first block is checked, and the replay must seal it again, so a
// failing schedule replays exactly (a replay that seals the checked block
// needs no checks of its own).
func FuzzProposeSealsValidBlock(f *testing.F) {
	for _, seed := range []int64{1, 2, 5, 6, 11} { // every mix
		f.Add(seed)
	}
	params := chain.DefaultParams()
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		parent, txs, hot := fuzzPool(rng)
		threads := 1 + rng.Intn(4)
		parentHeader := &types.Header{Number: 0, StateRoot: parent.Root(), GasLimit: params.GasLimit}
		propose := func(name string, cfg ProposerConfig, check bool) types.Hash {
			pool := mempool.New()
			pool.AddAll(txs)
			cfg.Threads, cfg.Coinbase, cfg.Time = threads, coinbase, 1
			if hot != (types.Address{}) {
				cfg.Coinbase, cfg.Adaptive = hot, adaptive.New(adaptive.Config{})
				warmHot(cfg.Adaptive, hot)
			}
			res, err := Propose(parent, parentHeader, pool, cfg, params)
			if err != nil {
				t.Fatal(err)
			}
			if !check {
				return res.Block.Hash()
			}
			if res.Committed == 0 {
				t.Fatalf("%s on %d workers packed none of %d transactions", name, threads, len(txs))
			}
			serial, err := chain.VerifyBlockSerial(parent, parentHeader, res.Block, params)
			if err != nil {
				t.Fatalf("%s on %d workers (%d aborts): serial validator: %v", name, threads, res.Aborts, err)
			}
			blk, err := types.DecodeBlock(res.Block.Encode())
			if err != nil {
				t.Fatal(err)
			}
			val, err := validator.ValidateParallel(parent, parentHeader, blk, validator.DefaultConfig(threads), params)
			if err != nil {
				t.Fatalf("%s on %d workers (%d aborts): parallel validator: %v", name, threads, res.Aborts, err)
			}
			if root := serial.State.Root(); val.State.Root() != root || res.Block.Header.StateRoot != root {
				t.Fatalf("%s on %d workers: proposed root %s, parallel validator %s, serial %s",
					name, threads, res.Block.Header.StateRoot, val.State.Root(), root)
			}
			return res.Block.Hash()
		}
		for _, engine := range Engines() {
			propose(engine, ProposerConfig{Engine: engine}, true)
		}
		workers := threads
		if hot != (types.Address{}) {
			workers++ // the serial lane
		}
		pctRun := func(check bool) types.Hash {
			return propose("pct", ProposerConfig{Step: newPCT(seed, workers, 4*len(txs))}, check)
		}
		if first, again := pctRun(true), pctRun(false); first != again {
			t.Fatalf("one PCT schedule sealed %s, then %s", first, again)
		}
	})
}
