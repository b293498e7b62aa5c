package core

import (
	"bytes"
	"testing"

	"blockpilot/internal/adaptive"
	"blockpilot/internal/chain"
	"blockpilot/internal/mempool"
	"blockpilot/internal/state"
	"blockpilot/internal/types"
	"blockpilot/internal/uint256"
	"blockpilot/internal/workload"
)

var coinbase = types.HexToAddress("0xc01bbace")

// variant is one cell of the Engines() × {stock, adaptive} matrix the Propose
// tests ride through the shared blockBuild harness, so whatever they check is
// checked for both engine bodies and with the serial lane, the credit merge
// and the mempool demotion engaged.
type variant struct {
	engine   string
	adaptive bool
}

func (v variant) String() string {
	if v.adaptive {
		return v.engine + "+adaptive"
	}
	return v.engine
}

func forEachVariant(t *testing.T, fn func(t *testing.T, v variant)) {
	for _, engine := range Engines() {
		for _, adaptive := range []bool{false, true} {
			v := variant{engine: engine, adaptive: adaptive}
			t.Run(v.String(), func(t *testing.T) { fn(t, v) })
		}
	}
}

// config returns the proposer configuration for packing txs under v. An
// adaptive cell gets a controller already warm on the block's most-addressed
// recipient, and that recipient is also the coinbase: from the first block
// its traffic runs through the serial lane, pure credits to it merge, and
// the merged credits materialise into an account FinalizationChange then
// credits again ("the coinbase itself is hot").
func (v variant) config(threads int, txs []*types.Transaction) ProposerConfig {
	cfg := ProposerConfig{Engine: v.engine, Threads: threads, Coinbase: coinbase, Time: 1}
	if v.adaptive {
		cfg.Coinbase = busiestRecipient(txs)
		cfg.Adaptive = adaptive.New(adaptive.Config{})
		warmHot(cfg.Adaptive, cfg.Coinbase)
	}
	return cfg
}

// busiestRecipient returns the address most transactions are sent to (the
// smallest such address on a tie, so the choice is a function of txs alone).
func busiestRecipient(txs []*types.Transaction) types.Address {
	count := make(map[types.Address]int)
	var best types.Address
	for _, tx := range txs {
		if tx.CreateContract {
			continue
		}
		count[tx.To]++
		if c, b := count[tx.To], count[best]; c > b || (c == b && bytes.Compare(tx.To[:], best[:]) < 0) {
			best = tx.To
		}
	}
	return best
}

func proposeBlock(t *testing.T, v variant, threads int, txs []*types.Transaction, parent *state.Snapshot, params chain.Params) *ProposeResult {
	t.Helper()
	pool := mempool.New()
	pool.AddAll(txs)
	parentHeader := &types.Header{Number: 0, StateRoot: parent.Root(), GasLimit: params.GasLimit}
	res, err := Propose(parent, parentHeader, pool, v.config(threads, txs), params)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestProposeSerializable is the central OCC-WSI correctness property: a
// parallel-packed block, replayed serially in its block order, reproduces
// exactly the state root, receipts and gas the proposer committed to.
func TestProposeSerializable(t *testing.T) {
	cfg := workload.Default()
	cfg.TxPerBlock = 132
	params := chain.DefaultParams()

	forEachVariant(t, func(t *testing.T, v variant) {
		for _, threads := range []int{1, 2, 4, 8} {
			// Fresh generator per run: nonces must match the genesis state.
			g := workload.New(cfg)
			parent := g.GenesisState()
			txs := g.NextBlockTxs()
			res := proposeBlock(t, v, threads, txs, parent, params)
			if res.Committed != len(txs) {
				t.Fatalf("threads=%d: committed %d of %d (dropped %d)", threads, res.Committed, len(txs), res.Dropped)
			}
			serial, err := chain.ExecuteSerial(parent, &res.Block.Header, res.Block.Txs, params)
			if err != nil {
				t.Fatalf("threads=%d: serial replay: %v", threads, err)
			}
			if serial.State.Root() != res.Block.Header.StateRoot {
				t.Fatalf("threads=%d: NOT serializable: serial root %s != proposed %s (aborts %d)",
					threads, serial.State.Root(), res.Block.Header.StateRoot, res.Aborts)
			}
			if got := types.ComputeReceiptRoot(serial.Receipts); got != res.Block.Header.ReceiptRoot {
				t.Fatalf("threads=%d: receipt root mismatch", threads)
			}
			if serial.GasUsed != res.GasUsed {
				t.Fatalf("threads=%d: gas mismatch %d != %d", threads, serial.GasUsed, res.GasUsed)
			}
		}
	})
}

// TestProposeHighContention hammers a single AMM pair from every tx: all
// transactions conflict, forcing aborts, and the result must still be a
// serializable full block.
func TestProposeHighContention(t *testing.T) {
	cfg := workload.Default()
	cfg.TxPerBlock = 64
	cfg.NumPairs = 1
	cfg.NativeRatio = 0
	cfg.SwapRatio = 1.0
	cfg.MixerRatio = 0
	params := chain.DefaultParams()

	forEachVariant(t, func(t *testing.T, v variant) {
		g := workload.New(cfg)
		parent := g.GenesisState()
		txs := g.NextBlockTxs()
		res := proposeBlock(t, v, 8, txs, parent, params)
		if res.Committed != len(txs) {
			t.Fatalf("committed %d of %d (dropped %d)", res.Committed, len(txs), res.Dropped)
		}
		serial, err := chain.ExecuteSerial(parent, &res.Block.Header, res.Block.Txs, params)
		if err != nil {
			t.Fatal(err)
		}
		if serial.State.Root() != res.Block.Header.StateRoot {
			t.Fatalf("high-contention block not serializable (aborts=%d)", res.Aborts)
		}
		t.Logf("high contention: %d txs, %d aborts", len(txs), res.Aborts)
	})
}

// TestProposeNonceChains: one sender with a long nonce chain must land in
// nonce order inside the block.
func TestProposeNonceChains(t *testing.T) {
	alice := types.HexToAddress("0xa11ce")
	bob := types.HexToAddress("0xb0b")
	parent := state.NewGenesisBuilder().
		AddAccount(alice, uint256.NewInt(1<<50)).
		AddAccount(bob, uint256.NewInt(1<<50)).
		Build()
	params := chain.DefaultParams()

	var txs []*types.Transaction
	for n := uint64(0); n < 20; n++ {
		tx := &types.Transaction{Nonce: n, Gas: 21000, To: bob, From: alice}
		tx.GasPrice.SetUint64(uint64(100 - n)) // descending price, ascending nonce
		tx.Value.SetUint64(1)
		txs = append(txs, tx)
	}
	// One transaction per sender per PopBatch: under MV-STM the chain spans
	// 20 claim rounds. In the adaptive cells bob is hot and the coinbase, so
	// all 20 credits ride the merge pool.
	forEachVariant(t, func(t *testing.T, v variant) {
		pool := mempool.New()
		pool.AddAll(txs)
		parentHeader := &types.Header{Number: 0, StateRoot: parent.Root(), GasLimit: params.GasLimit}
		cfg := v.config(4, txs)
		res, err := Propose(parent, parentHeader, pool, cfg, params)
		if err != nil {
			t.Fatal(err)
		}
		if res.Committed != 20 {
			t.Fatalf("committed %d (dropped %d)", res.Committed, res.Dropped)
		}
		if v.adaptive {
			if snap := cfg.Adaptive.Snapshot(); snap.MergedCredits != 20 || snap.LaneTxs < 20 {
				t.Fatalf("hot coinbase: %d merged credits, %d lane txs, want 20 and ≥ 20", snap.MergedCredits, snap.LaneTxs)
			}
		}
		var last uint64
		for i, tx := range res.Block.Txs {
			if tx.From == alice {
				if i > 0 && tx.Nonce < last {
					t.Fatalf("nonce order violated at position %d", i)
				}
				last = tx.Nonce
			}
		}
		if res.State.Nonce(alice) != 20 {
			t.Fatalf("final nonce = %d", res.State.Nonce(alice))
		}
		serial, err := chain.ExecuteSerial(parent, &res.Block.Header, res.Block.Txs, params)
		if err != nil {
			t.Fatal(err)
		}
		if serial.State.Root() != res.Block.Header.StateRoot {
			t.Fatalf("nonce-chain block not serializable: serial root %s != proposed %s", serial.State.Root(), res.Block.Header.StateRoot)
		}
	})
}

// TestProposeRespectsGasLimit: with a tiny block gas limit only a prefix of
// the pool fits; the rest stays in the pool for the next block.
func TestProposeRespectsGasLimit(t *testing.T) {
	cfg := workload.Default()
	cfg.TxPerBlock = 40
	cfg.NativeRatio = 1.0
	cfg.SwapRatio = 0
	cfg.MixerRatio = 0
	params := chain.DefaultParams()
	params.GasLimit = 21000 * 10 // ten transfers

	// Under MV-STM the whole pool is claimed in one round, so the cut purges
	// 30 executed transactions (highest index first) and requeues them.
	forEachVariant(t, func(t *testing.T, v variant) {
		g := workload.New(cfg)
		parent := g.GenesisState()
		txs := g.NextBlockTxs()
		pool := mempool.New()
		pool.AddAll(txs)
		parentHeader := &types.Header{Number: 0, StateRoot: parent.Root(), GasLimit: params.GasLimit}
		res, err := Propose(parent, parentHeader, pool, v.config(4, txs), params)
		if err != nil {
			t.Fatal(err)
		}
		if res.GasUsed > params.GasLimit {
			t.Fatalf("gas used %d exceeds limit %d", res.GasUsed, params.GasLimit)
		}
		if res.Committed == 0 {
			t.Fatal("nothing packed")
		}
		if res.Committed+pool.Len()+res.Dropped < 40 {
			t.Fatalf("transactions lost: committed %d, pool %d, dropped %d", res.Committed, pool.Len(), res.Dropped)
		}
		serial, err := chain.ExecuteSerial(parent, &res.Block.Header, res.Block.Txs, params)
		if err != nil {
			t.Fatal(err)
		}
		if serial.State.Root() != res.Block.Header.StateRoot {
			t.Fatalf("cut block not serializable: serial root %s != proposed %s", serial.State.Root(), res.Block.Header.StateRoot)
		}
	})
}

// TestMVStateVersionedReads: a view pinned at version v must not see later
// commits.
func TestMVStateVersionedReads(t *testing.T) {
	addr := types.HexToAddress("0x1")
	parent := state.NewGenesisBuilder().AddAccount(addr, uint256.NewInt(100)).Build()
	mv := NewMVState(parent)

	viewEarly := mv.View(mv.Version())

	acc := types.NewAccessSet()
	acc.NoteWrite(types.AccountKey(addr))
	cs := state.NewChangeSet(state.AccountChange{Addr: addr, Nonce: 1, Balance: *uint256.NewInt(50)})
	if _, ok := mv.TryCommit(acc, cs); !ok {
		t.Fatal("commit failed")
	}

	if b := balanceOf(viewEarly, addr); !b.Eq(uint256.NewInt(100)) {
		t.Fatalf("pinned view sees later commit: %s", b.String())
	}
	late := mv.View(mv.Version())
	if b := balanceOf(late, addr); !b.Eq(uint256.NewInt(50)) {
		t.Fatalf("late view misses commit: %s", b.String())
	}
}

// TestMVStateWSIAbort: a transaction that read a key at version v must abort
// if the key was written at a later version before it commits.
func TestMVStateWSIAbort(t *testing.T) {
	addr := types.HexToAddress("0x1")
	parent := state.NewGenesisBuilder().AddAccount(addr, uint256.NewInt(100)).Build()
	mv := NewMVState(parent)
	key := types.AccountKey(addr)

	// Reader snapshots at version 0.
	readerAcc := types.NewAccessSet()
	readerAcc.NoteRead(key, 0)

	// A writer commits version 1 in between.
	wAcc := types.NewAccessSet()
	wAcc.NoteWrite(key)
	cs := state.NewChangeSet(state.AccountChange{Addr: addr, Balance: *uint256.NewInt(1)})
	if _, ok := mv.TryCommit(wAcc, cs); !ok {
		t.Fatal("writer commit failed")
	}

	// Now the reader must be rejected (stale read).
	if _, ok := mv.TryCommit(readerAcc, state.NewChangeSet()); ok {
		t.Fatal("stale reader committed — WSI violated")
	}

	// Write-write without reads is allowed (WSI property).
	wAcc2 := types.NewAccessSet()
	wAcc2.NoteWrite(key)
	if _, ok := mv.TryCommit(wAcc2, cs); !ok {
		t.Fatal("blind write-write refused — WSI should allow it")
	}
}

// TestProposeDeterministicSingleThread: with one worker the pool order is
// deterministic, so the whole block must be reproducible.
func TestProposeDeterministicSingleThread(t *testing.T) {
	cfg := workload.Default()
	cfg.TxPerBlock = 60
	forEachVariant(t, func(t *testing.T, v variant) {
		if v.engine == EngineOCCWSI && v.adaptive {
			// The OCC-WSI serial lane is its own goroutine: with a hot set it
			// commits concurrently with the one worker, so the order is
			// timing-dependent by design.
			t.Skip("the serial lane runs beside the worker")
		}
		mk := func() types.Hash {
			g := workload.New(cfg)
			parent := g.GenesisState()
			res := proposeBlock(t, v, 1, g.NextBlockTxs(), parent, chain.DefaultParams())
			return res.Block.Hash()
		}
		if mk() != mk() {
			t.Fatal("single-thread proposal not deterministic")
		}
	})
}

// TestProfileMatchesReplay: the block profile's access keys must equal what
// a serial replay of the block observes — this is what lets validators
// verify profiles (Alg. 2).
func TestProfileMatchesReplay(t *testing.T) {
	cfg := workload.Default()
	cfg.TxPerBlock = 80
	params := chain.DefaultParams()
	forEachVariant(t, func(t *testing.T, v variant) {
		g := workload.New(cfg)
		parent := g.GenesisState()
		res := proposeBlock(t, v, 4, g.NextBlockTxs(), parent, params)

		serial, err := chain.ExecuteSerial(parent, &res.Block.Header, res.Block.Txs, params)
		if err != nil {
			t.Fatal(err)
		}
		if len(serial.Profile.Txs) != len(res.Block.Profile.Txs) {
			t.Fatal("profile length mismatch")
		}
		for i := range serial.Profile.Txs {
			if !serial.Profile.Txs[i].SameAccessKeys(res.Block.Profile.Txs[i]) {
				t.Fatalf("tx %d access keys differ between proposer and replay", i)
			}
			if serial.Profile.Txs[i].GasUsed != res.Block.Profile.Txs[i].GasUsed {
				t.Fatalf("tx %d gas differs", i)
			}
		}
	})
}
