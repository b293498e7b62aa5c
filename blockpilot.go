// Package blockpilot is a from-scratch reproduction of "BlockPilot: A
// Proposer-Validator Parallel Execution Framework for Blockchain"
// (Zhang et al., ICPP 2023): an execution framework for EVM-style
// blockchains in which proposers pack blocks with OCC-WSI optimistic
// parallel execution and validators replay them with dependency-graph
// scheduled parallelism, processing multiple (forked) blocks concurrently
// through a four-phase pipeline.
//
// This top-level package is the stable facade over the implementation
// packages. A node has both execution contexts; the typical flow runs two:
//
//	gen := blockpilot.NewWorkload(blockpilot.DefaultWorkload()) // or your own txs
//	cfg := blockpilot.NodeConfig{Genesis: gen.GenesisState(), Params: blockpilot.DefaultParams(), Threads: 8}
//	proposer, validator := blockpilot.NewNode(cfg), blockpilot.NewNode(cfg)
//
//	// Proposing context: pack a block in parallel (OCC-WSI, Algorithm 1).
//	proposer.Pool.AddAll(gen.NextBlockTxs())
//	res, err := proposer.Propose()
//
//	// Validation context: the pipeline re-executes blocks in parallel
//	// (Algorithm 2), several at once (Fig. 5), and commits them.
//	validator.Pipe.Submit(res.Block)
//	out := <-validator.Pipe.Results()
//
// The package examples run this flow; DESIGN.md describes the architecture.
package blockpilot

import (
	"blockpilot/internal/chain"
	"blockpilot/internal/core"
	"blockpilot/internal/node"
	"blockpilot/internal/pipeline"
	"blockpilot/internal/state"
	"blockpilot/internal/types"
	"blockpilot/internal/uint256"
	"blockpilot/internal/workload"
)

// Core data model.
type (
	// Address is a 20-byte account identifier.
	Address = types.Address
	// Hash is a 32-byte Keccak-256 digest.
	Hash = types.Hash
	// Transaction is an account-model transaction.
	Transaction = types.Transaction
	// Header is a block header committing to state/tx/receipt roots.
	Header = types.Header
	// Block is a header, its transactions, and the BlockPilot profile.
	Block = types.Block
	// Receipt records one executed transaction's outcome.
	Receipt = types.Receipt
	// BlockProfile carries per-transaction read/write sets (paper §4.2).
	BlockProfile = types.BlockProfile
	// Uint256 is the 256-bit EVM word type.
	Uint256 = uint256.Int

	// WorldState is a committed, immutable world state snapshot.
	WorldState = state.Snapshot
	// GenesisBuilder seeds accounts and contracts for a new chain.
	GenesisBuilder = state.GenesisBuilder

	// Chain stores validated blocks, fork structure and post-states.
	Chain = chain.Chain
	// Params are chain-wide constants (gas limit, reward, chain id).
	Params = chain.Params

	// Node is a chain with the pending pool it proposes from and the
	// pipeline that validates other nodes' blocks (paper Fig. 5).
	Node = node.Node
	// NodeConfig describes a node: genesis, parameters, thread count and
	// coinbase.
	NodeConfig = node.Config
	// ProposeResult is a packed block plus its committed post-state and
	// stats.
	ProposeResult = core.ProposeResult

	// Workload generates mainnet-like synthetic blocks.
	Workload = workload.Generator
	// WorkloadConfig parameterizes the synthetic workload.
	WorkloadConfig = workload.Config
)

// ErrStatePruned reports a block whose parent's state has left the chain's
// window of the last chain.StateWindow heights.
var ErrStatePruned = chain.ErrStatePruned

// HexToAddress parses a 0x-prefixed or bare hex address.
func HexToAddress(s string) Address { return types.HexToAddress(s) }

// NewUint256 returns a 256-bit integer set to v.
func NewUint256(v uint64) *Uint256 { return uint256.NewInt(v) }

// DefaultParams mirrors a mainnet-ish configuration.
func DefaultParams() Params { return chain.DefaultParams() }

// NewGenesisBuilder returns an empty genesis builder.
func NewGenesisBuilder() *GenesisBuilder { return state.NewGenesisBuilder() }

// NewNode builds a node over cfg.Genesis. Close it to stop its pipeline.
func NewNode(cfg NodeConfig) *Node { return node.New(cfg) }

// DefaultWorkload is the calibrated mainnet-like workload configuration.
func DefaultWorkload() WorkloadConfig { return workload.Default() }

// NewWorkload creates a deterministic workload generator.
func NewWorkload(cfg WorkloadConfig) *Workload { return workload.New(cfg) }

// VerifySerial re-executes a block with the serial reference executor (the
// Geth baseline) and checks every header commitment, without inserting it.
// Useful for asserting that a parallel-packed block is serializable. A parent
// deeper than chain.StateWindow below the head has no state left to verify
// against: ErrStatePruned.
func VerifySerial(c *Chain, block *Block) error {
	parent := c.Block(block.Header.ParentHash)
	if parent == nil {
		return pipeline.ErrParentUnavailable
	}
	st := c.StateOf(parent.Hash())
	if st == nil {
		return ErrStatePruned
	}
	_, err := chain.VerifyBlockSerial(st, &parent.Header, block, c.Params())
	return err
}
