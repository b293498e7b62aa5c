package blockpilot_test

import (
	"errors"
	"testing"

	"blockpilot"
)

// TestFacadeEndToEnd drives the whole public API: genesis → node → parallel
// propose → serializability check → a second node's pipeline, blocks
// submitted child first.
func TestFacadeEndToEnd(t *testing.T) {
	cfg := blockpilot.DefaultWorkload()
	cfg.NumAccounts = 400
	cfg.TxPerBlock = 60
	gen := blockpilot.NewWorkload(cfg)
	ncfg := blockpilot.NodeConfig{
		Genesis: gen.GenesisState(), Params: blockpilot.DefaultParams(),
		Threads: 4, Coinbase: blockpilot.HexToAddress("0xc01bbace"),
	}
	proposer := blockpilot.NewNode(ncfg)
	defer proposer.Close()

	var blocks []*blockpilot.Block
	for h := uint64(1); h <= 3; h++ {
		txs := gen.NextBlockTxs()
		proposer.Pool.AddAll(txs)
		res, err := proposer.Propose()
		if err != nil {
			t.Fatal(err)
		}
		if res.Committed != len(txs) {
			t.Fatalf("height %d: packed %d of %d", h, res.Committed, len(txs))
		}
		if err := blockpilot.VerifySerial(proposer.Chain, res.Block); err != nil {
			t.Fatalf("height %d not serializable: %v", h, err)
		}
		if got := proposer.Chain.Height(); got != h {
			t.Fatalf("proposer height = %d after proposing %d", got, h)
		}
		blocks = append(blocks, res.Block)
	}

	// A separate validator node takes them through its pipeline, child first.
	validator := blockpilot.NewNode(ncfg)
	for i := len(blocks) - 1; i >= 0; i-- {
		validator.Pipe.Submit(blocks[i])
	}
	validator.Close()
	ok := 0
	for out := range validator.Pipe.Results() {
		if out.Err != nil {
			t.Fatalf("pipeline rejected height %d: %v", out.Block.Number(), out.Err)
		}
		if out.Result.Stats().TxCount != len(out.Block.Txs) {
			t.Fatalf("stats cover %d of %d txs", out.Result.Stats().TxCount, len(out.Block.Txs))
		}
		ok++
	}
	if ok != 3 || validator.Chain.Height() != 3 {
		t.Fatalf("pipeline validated %d, height %d", ok, validator.Chain.Height())
	}
	if validator.Chain.HeadState().Root() != proposer.Chain.HeadState().Root() {
		t.Fatal("validator diverged from proposer")
	}
}

// TestFacadeGenesisBuilder exercises the hand-rolled genesis path.
func TestFacadeGenesisBuilder(t *testing.T) {
	alice := blockpilot.HexToAddress("0xa11ce")
	bob := blockpilot.HexToAddress("0xb0b")
	genesis := blockpilot.NewGenesisBuilder().
		AddAccount(alice, blockpilot.NewUint256(1_000_000)).
		Build()
	cfg := blockpilot.NodeConfig{Genesis: genesis, Params: blockpilot.DefaultParams(), Threads: 2, Coinbase: bob}
	proposer, validator := blockpilot.NewNode(cfg), blockpilot.NewNode(cfg)
	defer proposer.Close()

	tx := &blockpilot.Transaction{Nonce: 0, Gas: 21000, To: bob, From: alice}
	tx.GasPrice.SetUint64(1)
	tx.Value.SetUint64(777)
	proposer.Pool.Add(tx)

	res, err := proposer.Propose()
	if err != nil {
		t.Fatal(err)
	}
	validator.Pipe.Submit(res.Block)
	validator.Close()
	if out := <-validator.Pipe.Results(); out.Err != nil {
		t.Fatal(out.Err)
	}
	got := validator.Chain.HeadState().Balance(bob)
	// value + fee + block reward
	want := blockpilot.NewUint256(777 + 21000 + blockpilot.DefaultParams().BlockReward)
	if !got.Eq(want) {
		t.Fatalf("bob = %s, want %s", got.String(), want.String())
	}
}

// TestVerifySerialBelowWindow: once a block's parent is more than
// chain.StateWindow heights below the head, VerifySerial reports
// ErrStatePruned instead of re-executing against a missing state.
func TestVerifySerialBelowWindow(t *testing.T) {
	genesis := blockpilot.NewGenesisBuilder().Build()
	proposer := blockpilot.NewNode(blockpilot.NodeConfig{Genesis: genesis, Params: blockpilot.DefaultParams(), Threads: 1})
	defer proposer.Close()
	var blocks []*blockpilot.Block
	for len(blocks) < 70 { // past the 64-height window
		res, err := proposer.Propose()
		if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, res.Block)
	}
	if err := blockpilot.VerifySerial(proposer.Chain, blocks[len(blocks)-1]); err != nil {
		t.Fatalf("head block: %v", err)
	}
	if err := blockpilot.VerifySerial(proposer.Chain, blocks[1]); !errors.Is(err, blockpilot.ErrStatePruned) {
		t.Fatalf("height 2: err = %v, want ErrStatePruned", err)
	}
}
