package blockpilot_test

import (
	"fmt"
	"log"

	"blockpilot"
	"blockpilot/internal/evm/asm"
	"blockpilot/internal/types"
)

// Start a proposer and a validator on a two-account genesis, pack a transfer
// block on the proposer with OCC-WSI, check that it replays serially,
// validate it in parallel on the validator and read the committed state.
func Example() {
	alice := blockpilot.HexToAddress("0xa11ce")
	bob := blockpilot.HexToAddress("0xb0b")
	miner := blockpilot.HexToAddress("0x000000000000000000000000000000000000314e5")

	// Genesis: fund alice.
	genesis := blockpilot.NewGenesisBuilder().
		AddAccount(alice, blockpilot.NewUint256(1_000_000_000)).
		Build()
	cfg := blockpilot.NodeConfig{Genesis: genesis, Params: blockpilot.DefaultParams(), Threads: 4, Coinbase: miner}
	proposer, validator := blockpilot.NewNode(cfg), blockpilot.NewNode(cfg)
	defer proposer.Close()

	// Pending pool: three transfers from alice to bob.
	for nonce := uint64(0); nonce < 3; nonce++ {
		tx := &blockpilot.Transaction{Nonce: nonce, Gas: 21000, To: bob, From: alice}
		tx.GasPrice.SetUint64(nonce + 1)
		tx.Value.SetUint64(1000 * (nonce + 1))
		proposer.Pool.Add(tx)
	}

	// Proposing context: pack the block with parallel OCC-WSI workers.
	res, err := proposer.Propose()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("proposed block %s: %d txs, %d gas, %d aborts\n",
		res.Block.Hash(), res.Committed, res.GasUsed, res.Aborts)

	// A parallel-packed block is serializable: the serial replay reproduces
	// the exact state root.
	if err := blockpilot.VerifySerial(proposer.Chain, res.Block); err != nil {
		log.Fatalf("block is not serializable: %v", err)
	}

	// Validation context: re-execute in parallel against the block profile
	// and commit.
	validator.Pipe.Submit(res.Block)
	validator.Close()
	out := <-validator.Pipe.Results()
	if out.Err != nil {
		log.Fatal(out.Err)
	}
	fmt.Printf("validated: %d dependency subgraphs, largest holds %.0f%% of txs\n",
		out.Result.Stats().ComponentCount, out.Result.Stats().LargestRatio*100)

	head := validator.Chain.HeadState()
	bobBal, minerBal := head.Balance(bob), head.Balance(miner)
	fmt.Printf("bob's balance:   %s\n", bobBal.String())
	fmt.Printf("miner's balance: %s (fees + block reward)\n", minerBal.String())
	fmt.Printf("chain height:    %d, state root %s\n", validator.Chain.Height(), head.Root())
	// Output:
	// proposed block 0xb6abace020f488398cb60dc0f370e7a38e0b031041222aac94348b33a4ae74a1: 3 txs, 63000 gas, 0 aborts
	// validated: 1 dependency subgraphs, largest holds 100% of txs
	// bob's balance:   6000
	// miner's balance: 2000126000 (fees + block reward)
	// chain height:    1, state root 0xb60eb2ab7a9a403ec5a3641e3e1ad4044753559e18b320ed0b5d43f5127ebd1f
}

// Author a contract in EVM assembly, deploy it with a contract-creation
// transaction packed by the parallel proposer, and call it in the next block.
// Deployments take part in conflict detection like any other write.
func Example_deploy() {
	alice := blockpilot.HexToAddress("0xa11ce")
	genesis := blockpilot.NewGenesisBuilder().
		AddAccount(alice, blockpilot.NewUint256(1<<40)).
		Build()
	cfg := blockpilot.NodeConfig{Genesis: genesis, Params: blockpilot.DefaultParams(), Threads: 4, Coinbase: alice}
	proposer, validator := blockpilot.NewNode(cfg), blockpilot.NewNode(cfg)
	defer proposer.Close()
	defer validator.Close()

	// A "greeter": returns the 32-byte word stored at slot 0, which the init
	// code sets to 42 before returning the runtime.
	runtime := asm.MustAssemble(`
		PUSH1 0
		SLOAD
		PUSH1 0x00
		MSTORE
		PUSH1 0x20
		PUSH1 0x00
		RETURN
	`)
	// Init: store 42 at slot 0, then copy the runtime (appended after the
	// init code) to memory and return it.
	init := asm.MustAssemble(fmt.Sprintf(`
		PUSH1 42
		PUSH1 0
		SSTORE
		PUSH1 %d       ; runtime size
		PUSH @runtime  ; runtime offset inside this init code
		PUSH1 0
		CODECOPY
		PUSH1 %d
		PUSH1 0
		RETURN
	runtime:
	`, len(runtime), len(runtime)))
	init = append(init, runtime...)

	// mine packs one transaction into a block and validates it.
	mine := func(tx *blockpilot.Transaction) *blockpilot.ProposeResult {
		tx.GasPrice.SetUint64(1)
		proposer.Pool.Add(tx)
		res, err := proposer.Propose()
		if err != nil {
			log.Fatal(err)
		}
		validator.Pipe.Submit(res.Block)
		if out := <-validator.Pipe.Results(); out.Err != nil {
			log.Fatal(out.Err)
		}
		return res
	}

	// Block 1: the deployment transaction.
	res := mine(&blockpilot.Transaction{Nonce: 0, Gas: 500_000, Data: init, From: alice, CreateContract: true})
	contract := res.Receipts[0].ContractAddress
	fmt.Printf("deployed greeter at %s (%d bytes of runtime code)\n",
		contract, len(validator.Chain.HeadState().Code(contract)))

	// Block 2: call it.
	res = mine(&blockpilot.Transaction{Nonce: 1, Gas: 100_000, To: contract, From: alice})
	var answer types.Hash
	copy(answer[:], res.Receipts[0].ReturnData)
	word := answer.Word()
	fmt.Printf("greeter returned: %s\n", word.String())
	fmt.Printf("chain height %d; every root verified by the parallel validator\n", validator.Chain.Height())
	// Output:
	// deployed greeter at 0x6b182f1488e8efeb2eb298155ed5bd7ff8a14042 (11 bytes of runtime code)
	// greeter returned: 42
	// chain height 2; every root verified by the parallel validator
}
