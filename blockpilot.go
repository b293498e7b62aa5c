// Package blockpilot is a from-scratch reproduction of "BlockPilot: A
// Proposer-Validator Parallel Execution Framework for Blockchain"
// (Zhang et al., ICPP 2023): an execution framework for EVM-style
// blockchains in which proposers pack blocks with OCC-WSI optimistic
// parallel execution and validators replay them with dependency-graph
// scheduled parallelism, processing multiple (forked) blocks concurrently
// through a four-phase pipeline.
//
// This top-level package is the stable facade over the implementation
// packages. The typical flow:
//
//	gen := blockpilot.NewWorkload(blockpilot.DefaultWorkload()) // or your own txs
//	c := blockpilot.NewChain(gen.GenesisState(), blockpilot.DefaultParams())
//
//	// Proposing context: pack a block in parallel (OCC-WSI, Algorithm 1).
//	pool := blockpilot.NewTxPool()
//	pool.AddAll(gen.NextBlockTxs())
//	res, err := blockpilot.Propose(c, pool, blockpilot.ProposerOptions{Threads: 8})
//
//	// Validation context: re-execute in parallel and commit (Algorithm 2).
//	vres, err := blockpilot.Validate(c, res.Block, 8)
//
//	// Or validate many blocks concurrently through the pipeline (Fig. 5).
//	p := blockpilot.NewPipeline(c, 16)
//	p.Submit(res.Block)
//	p.Close()
//	for out := range p.Results() { ... }
//
// The package examples run this flow; DESIGN.md describes the architecture.
package blockpilot

import (
	"blockpilot/internal/chain"
	"blockpilot/internal/core"
	"blockpilot/internal/mempool"
	"blockpilot/internal/pipeline"
	"blockpilot/internal/state"
	"blockpilot/internal/types"
	"blockpilot/internal/uint256"
	"blockpilot/internal/validator"
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

	// TxPool is the proposer's pending pool (price-ordered, nonce-aware).
	TxPool = mempool.Pool

	// Pipeline processes multiple blocks concurrently (paper Fig. 5).
	Pipeline = pipeline.Pipeline
	// PipelineOutcome reports one block's passage through the pipeline.
	PipelineOutcome = pipeline.Outcome

	// Workload generates mainnet-like synthetic blocks.
	Workload = workload.Generator
	// WorkloadConfig parameterizes the synthetic workload.
	WorkloadConfig = workload.Config
)

// HexToAddress parses a 0x-prefixed or bare hex address.
func HexToAddress(s string) Address { return types.HexToAddress(s) }

// NewUint256 returns a 256-bit integer set to v.
func NewUint256(v uint64) *Uint256 { return uint256.NewInt(v) }

// DefaultParams mirrors a mainnet-ish configuration.
func DefaultParams() Params { return chain.DefaultParams() }

// NewGenesisBuilder returns an empty genesis builder.
func NewGenesisBuilder() *GenesisBuilder { return state.NewGenesisBuilder() }

// NewChain creates a chain whose genesis holds the given state.
func NewChain(genesis *WorldState, params Params) *Chain {
	return chain.NewChain(genesis, params)
}

// NewTxPool returns an empty pending-transaction pool.
func NewTxPool() *TxPool { return mempool.New() }

// DefaultWorkload is the calibrated mainnet-like workload configuration.
func DefaultWorkload() WorkloadConfig { return workload.Default() }

// NewWorkload creates a deterministic workload generator.
func NewWorkload(cfg WorkloadConfig) *Workload { return workload.New(cfg) }

// ProposerOptions configures Propose.
type ProposerOptions struct {
	// Threads is the OCC-WSI worker count (default 1).
	Threads int
	// Coinbase receives fees and the block reward.
	Coinbase Address
	// Time is the block timestamp.
	Time uint64
}

// ProposeResult is a packed block plus its committed post-state and stats.
type ProposeResult = core.ProposeResult

// Propose packs a new block on top of the chain head using OCC-WSI parallel
// execution (paper Algorithm 1) and returns it together with the committed
// post-state. The block is not inserted into the chain: broadcast it and/or
// Validate it first, as a real proposer would.
func Propose(c *Chain, pool *TxPool, opts ProposerOptions) (*ProposeResult, error) {
	head := c.Head()
	parentState := c.StateOf(head.Hash())
	return core.Propose(parentState, &head.Header, pool, core.ProposerConfig{
		Threads:  opts.Threads,
		Coinbase: opts.Coinbase,
		Time:     opts.Time,
	}, c.Params())
}

// ValidationResult is a validated block's outcome.
type ValidationResult = validator.Result

// Validate re-executes a block in parallel against its parent (which must
// already be in the chain), verifies every commitment — per-transaction
// read/write sets against the block profile, gas, receipt root, state root —
// and inserts the block on success.
func Validate(c *Chain, block *Block, threads int) (*ValidationResult, error) {
	parent := c.Block(block.Header.ParentHash)
	if parent == nil {
		return nil, pipeline.ErrParentUnavailable
	}
	res, err := validator.ValidateParallel(c.StateOf(parent.Hash()), &parent.Header, block,
		validator.DefaultConfig(threads), c.Params())
	if err != nil {
		return nil, err
	}
	if err := c.InsertWithReceipts(block, res.State, res.Receipts); err != nil {
		return nil, err
	}
	return res, nil
}

// NewPipeline builds a multi-block validation pipeline over the chain with
// the given shared worker count. Submitted blocks may arrive in any order
// and in fork multiples; same-height blocks validate concurrently.
func NewPipeline(c *Chain, workers int) *Pipeline {
	return pipeline.New(c, validator.DefaultConfig(workers), nil)
}

// VerifySerial re-executes a block with the serial reference executor (the
// Geth baseline) and checks every header commitment, without inserting it.
// Useful for asserting that a parallel-packed block is serializable.
func VerifySerial(c *Chain, block *Block) error {
	parent := c.Block(block.Header.ParentHash)
	if parent == nil {
		return pipeline.ErrParentUnavailable
	}
	_, err := chain.VerifyBlockSerial(c.StateOf(parent.Hash()), &parent.Header, block, c.Params())
	return err
}
