package core

import (
	"testing"

	"blockpilot/internal/chain"
	"blockpilot/internal/evm/asm"
	"blockpilot/internal/state"
	"blockpilot/internal/types"
	"blockpilot/internal/uint256"
)

// TestProposeWithDeployments packs a block mixing contract creations,
// calls to the freshly deployed contracts (same block!), and transfers.
// The calls can only succeed if they serialize after their deployment, so
// OCC-WSI must order them — and the block must stay serializable.
func TestProposeWithDeployments(t *testing.T) {
	// counter runtime: slot0++ on call (see chain/deploy_test.go).
	counterInit := asm.MustAssemble(`
		PUSH32 0x6000546001016000550000000000000000000000000000000000000000000000
		PUSH1 0
		MSTORE
		PUSH1 9
		PUSH1 0
		RETURN
	`)

	deployers := make([]types.Address, 6)
	g := state.NewGenesisBuilder()
	for i := range deployers {
		deployers[i] = types.BytesToAddress([]byte{0xd0, byte(i + 1)})
		g.AddAccount(deployers[i], uint256.NewInt(1<<40))
	}
	caller := types.HexToAddress("0xca11e4")
	g.AddAccount(caller, uint256.NewInt(1<<40))
	parent := g.Build()
	params := chain.DefaultParams()

	var txs []*types.Transaction
	for i, d := range deployers {
		deploy := &types.Transaction{
			Nonce: 0, Gas: 500_000, Data: counterInit, From: d, CreateContract: true,
		}
		deploy.GasPrice.SetUint64(uint64(10 + i))
		txs = append(txs, deploy)

		// A call from an independent sender to the to-be-deployed address.
		target := types.CreateAddress(d, 0)
		call := &types.Transaction{Nonce: uint64(i), Gas: 100_000, To: target, From: caller}
		call.GasPrice.SetUint64(uint64(5 + i))
		txs = append(txs, call)
	}

	// Both engines: the calls resolve code and code hash through the shared
	// store's code path (ResolveCode, AccountFields.Over). In the adaptive cells
	// one to-be-deployed contract is hot and the coinbase.
	forEachVariant(t, func(t *testing.T, v variant) {
		res := proposeBlock(t, v, 4, txs, parent, params)
		if res.Committed != len(txs) {
			t.Fatalf("committed %d of %d (dropped %d)", res.Committed, len(txs), res.Dropped)
		}
		serial, err := chain.ExecuteSerial(parent, &res.Block.Header, res.Block.Txs, params)
		if err != nil {
			t.Fatalf("serial replay: %v", err)
		}
		if serial.State.Root() != res.Block.Header.StateRoot {
			t.Fatalf("deploy block not serializable (aborts %d)", res.Aborts)
		}
		// Every contract deployed; counters reflect the calls that landed
		// after their deployment in the packed order.
		for _, d := range deployers {
			target := types.CreateAddress(d, 0)
			if len(res.State.Code(target)) == 0 {
				t.Fatalf("contract of %s not deployed", d)
			}
		}
	})
}
