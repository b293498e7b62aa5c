// Package validator implements BlockPilot's validation context (paper §4.3
// and Algorithm 2): dependency-graph parallel re-execution of a received
// block, with an applier that verifies each transaction's observed
// read/write set against the proposer's block profile, commits results in
// block order, and accepts the block only if the recomputed state root
// matches the header.
//
// Phases within one block:
//
//	preparation  — build conflict subgraphs from the profile, gas-LPT them
//	               onto worker threads (internal/scheduler);
//	tx execution — each thread executes its subgraphs' transactions in
//	               block order on a private overlay chain, streaming per-tx
//	               results to the applier;
//	validation   — the applier reorders results into block order, checks
//	               access sets and gas against the profile, aggregates the
//	               write sets and fees;
//	commitment   — the assembled post-state is committed and every header
//	               commitment (gas, receipt root, state root) is checked.
package validator

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"blockpilot/internal/chain"
	"blockpilot/internal/flight"
	"blockpilot/internal/scheduler"
	"blockpilot/internal/state"
	"blockpilot/internal/telemetry"
	"blockpilot/internal/trace"
	"blockpilot/internal/types"
	"blockpilot/internal/uint256"
)

// Validation errors.
var (
	ErrNoProfile       = errors.New("validator: block has no profile")
	ErrProfileMismatch = errors.New("validator: execution diverged from block profile")
	ErrBadBlock        = errors.New("validator: block invalid")
)

// Config controls the parallel validator. The zero value (plus a thread
// count) is the paper's configuration: the dependency graph is always
// account-level and components are always assigned by gas-LPT.
type Config struct {
	Threads int
	// Spawn runs one execution lane. Default spawns a goroutine; the
	// multi-block pipeline injects its shared worker pool here so that free
	// workers execute transactions "regardless of the block information"
	// (paper §4.3).
	Spawn func(f func())
	// SkipProfileCheck disables the applier's per-transaction access-set and
	// gas verification against the block profile, leaving the state root as
	// the sole acceptance criterion. No production path sets it: it is the
	// seeded bug of the simulator's mutation self-check
	// (internal/sim/mutation.go), which proves the corruption oracle notices
	// a validator that stopped checking profiles.
	SkipProfileCheck bool
	// Node names this validator in block-trace spans (default "validator").
	Node string
	// Tracer injects a block-trace collector; nil falls back to the
	// process-global one (trace.Active).
	Tracer *trace.Collector
}

// DefaultConfig is the paper's configuration at the given thread count.
func DefaultConfig(threads int) Config {
	return Config{Threads: threads}
}

// Result is a successfully validated block's outcome.
type Result struct {
	State    *state.Snapshot
	Receipts []*types.Receipt
	Stats    scheduler.Stats
	// Reused counts the transactions taken from a sibling's verified results
	// instead of executed (ValidateSibling; 0 for a leader).
	Reused int
}

// txResult is what a worker streams to the applier for one transaction.
type txResult struct {
	index   int
	receipt *types.Receipt
	fee     uint256.Int
	// accessOK: the observed access set matches the shipped profile. The lane
	// decides — its overlay recycles the access set for the next transaction.
	accessOK bool
	taken    bool // the lane took a sibling's result instead of executing
	changes  *state.ChangeSet
	err      error
}

// ValidateParallel re-executes block against parent using the BlockPilot
// validator and returns the committed post-state. Any divergence — invalid
// transaction, access set or gas different from the profile, root mismatch —
// rejects the block. A nil parent, a state its chain has pruned, fails with
// chain.ErrStatePruned.
func ValidateParallel(parent *state.Snapshot, parentHeader *types.Header, block *types.Block, cfg Config, params chain.Params) (*Result, error) {
	return ValidateSibling(parent, parentHeader, block, cfg, params, nil, false)
}

// ValidateSibling is ValidateParallel for one of the blocks on parent that
// share sib. The leader (lead) publishes into sib each result that passes
// the applier's per-transaction checks. A follower plans its reuse in its
// preparation phase, waits in the calling goroutine until every lane of the
// leader has started, and then each of its lanes takes every leader result
// that is takeable when the lane reaches it and executes the rest. A nil sib
// is ValidateParallel.
func ValidateSibling(parent *state.Snapshot, parentHeader *types.Header, block *types.Block, cfg Config, params chain.Params, sib *Siblings, lead bool) (*Result, error) {
	span := telemetry.StartSpan(telemetry.ValidatorBlockSeconds)
	res, err := validateParallel(parent, parentHeader, block, cfg, params, sib, lead)
	span.End()
	if err != nil {
		telemetry.ValidatorRejects.Inc()
	} else {
		telemetry.ValidatorBlocks.Inc()
		reusedTotal.Add(int64(res.Reused))
	}
	return res, err
}

// validateParallel is ValidateSibling without the outer accounting span.
func validateParallel(parent *state.Snapshot, parentHeader *types.Header, block *types.Block, cfg Config, params chain.Params, sib *Siblings, lead bool) (*Result, error) {
	if lead {
		defer sib.lanesQueued() // a leader that fails before queueing its lanes publishes nothing
	}
	if parent == nil {
		return nil, chain.ErrStatePruned // the caller's chain dropped the parent's state
	}
	if cfg.Threads < 1 {
		cfg.Threads = 1
	}
	if cfg.Spawn == nil {
		cfg.Spawn = func(f func()) { go f() }
	}
	h := &block.Header
	if h.ParentHash != parentHeader.Hash() {
		return nil, fmt.Errorf("%w: parent hash mismatch", ErrBadBlock)
	}
	if h.Number != parentHeader.Number+1 {
		return nil, fmt.Errorf("%w: height %d after %d", ErrBadBlock, h.Number, parentHeader.Number)
	}
	if block.Profile == nil {
		return nil, ErrNoProfile
	}
	if len(block.Profile.Txs) != len(block.Txs) {
		return nil, fmt.Errorf("%w: profile covers %d of %d txs", ErrProfileMismatch, len(block.Profile.Txs), len(block.Txs))
	}
	if got := types.ComputeTxRoot(block.Txs); got != h.TxRoot {
		return nil, fmt.Errorf("%w: tx root mismatch", ErrBadBlock)
	}

	// Block-trace identity for this validation attempt. Every phase below is
	// one tr.Begin / End pair: a single interval that feeds the phase's
	// histogram and, with a collector installed, the block's span. The hash is
	// only computed with a collector (Header.Hash is keccak over RLP on every
	// call).
	tr := trace.Resolve(cfg.Tracer)
	node := cfg.Node
	if node == "" {
		node = "validator"
	}
	var bh types.Hash
	if tr != nil {
		bh = block.Hash()
	}

	// Preparation phase: account-level conflict subgraphs from the shipped
	// profile, gas-LPT onto the lanes. Serial on purpose — the profile makes
	// this ≈ 1 % of validation, and a fanned-out build lost to this one on
	// every block shape the benchmark has (docs/PERFORMANCE.md §2).
	prepare := tr.Begin(node, trace.StagePrepare, h.Number)
	graphSpan := telemetry.StartSpan(telemetry.ValidatorGraphBuildSeconds)
	components := scheduler.BuildComponents(block.Profile, true)
	graphSpan.End()
	sched := scheduler.AssignLPT(components, cfg.Threads)
	stats := scheduler.ComputeStats(components)
	var fw *follower
	if sib != nil && !lead {
		if fw = sib.follow(block); fw != nil {
			defer fw.done() // every lane has returned by then
		}
	}
	prepare.End(bh)
	if telemetry.Enabled() {
		telemetry.ValidatorSubgraphs.Observe(uint64(stats.ComponentCount))
		for i := range components {
			telemetry.ValidatorSubgraphTxs.Observe(uint64(len(components[i].TxIndices)))
		}
		// LPT load imbalance: max per-worker assigned gas over the mean.
		var maxGas, totalGas uint64
		for _, g := range sched.ThreadGas {
			totalGas += g
			if g > maxGas {
				maxGas = g
			}
		}
		if mean := float64(totalGas) / float64(len(sched.ThreadGas)); mean > 0 {
			telemetry.ValidatorLPTImbalance.Set(float64(maxGas) / mean)
		}
	}
	if flight.Enabled() {
		// One assign event per transaction: which component it belongs to,
		// the component's gas weight, and the execution lane it landed on.
		for i := range block.Txs {
			ci := sched.TxComponent[i]
			flight.Assign(sched.TxThread[i], block.Txs[i], ci, components[ci].Gas, h.Number)
		}
	}

	// A follower waits here, off the worker pool, until every lane of the
	// leader has started: its own then run on the workers the leader frees,
	// by when the leader has verified most of what they can take. Never
	// longer: a worker the leader leaves idle runs a follower lane at once.
	if fw != nil {
		sib.started.Wait()
	}

	// Tx execution phase: one goroutine per scheduled thread.
	execute := tr.Begin(node, trace.StageExecute, h.Number)
	bc := chain.BlockContextFor(h, params.ChainID)
	results := make(chan txResult, len(block.Txs))
	var failed atomic.Bool
	var wg sync.WaitGroup
	for t := 0; t < cfg.Threads; t++ {
		txIdxs := sched.ThreadTxs[t]
		if len(txIdxs) == 0 {
			continue
		}
		wg.Add(1)
		if lead {
			sib.started.Add(1)
		}
		lane := txIdxs
		laneID := t
		cfg.Spawn(func() {
			defer wg.Done()
			if lead {
				sib.started.Done()
			}
			accum := state.NewMemory(parent)
			overlay := state.NewOverlay(accum, 0)
			for _, i := range lane {
				if failed.Load() {
					return
				}
				if fw != nil && fw.takeable(int32(i)) {
					// This block's applier sets CumulativeGasUsed: it gets a
					// receipt of its own.
					r := &sib.results[fw.take[i]]
					flight.Reuse(laneID, block.Txs[i], int(fw.take[i]), h.Number)
					accum.ApplyChangeSet(r.changes)
					receipt := r.receipt
					results <- txResult{index: i, receipt: &receipt, fee: r.fee, accessOK: true, taken: true, changes: r.changes}
					continue
				}
				flight.ReplayStart(laneID, block.Txs[i], h.Number)
				overlay.Reset(accum, types.Version(i))
				receipt, fee, readCoinbase, err := chain.ApplyTransactionCoinbase(overlay, block.Txs[i], bc)
				flight.ReplayEnd(laneID, block.Txs[i], h.Number)
				if err != nil {
					failed.Store(true)
					results <- txResult{index: i, err: fmt.Errorf("tx %d: %w", i, err)}
					return
				}
				cs := overlay.ChangeSet()
				accum.ApplyChangeSet(cs)
				accessOK := block.Profile.Txs[i].MatchesAccessSet(overlay.Access())
				// The applier's checks, made here too: the lane publishes
				// without waiting for the applier to get this far.
				if lead && accessOK && receipt.GasUsed == block.Profile.Txs[i].GasUsed {
					sib.publish(i, receipt, fee, cs, readCoinbase)
				}
				results <- txResult{index: i, receipt: receipt, fee: *fee, accessOK: accessOK, changes: cs}
			}
		})
	}
	if lead {
		sib.lanesQueued()
	}
	go func() {
		wg.Wait()
		// End before close(results): the applier only finishes after the
		// channel closes, so the execute span is always buffered by the time
		// the commit span lands and PathFor assembles the chain.
		execute.End(bh)
		close(results)
	}()

	// Block validation phase (the applier, Algorithm 2): reorder into block
	// order, verify each access set against the profile, aggregate. Note the
	// verify phase overlaps the execute phase: the applier consumes results
	// as the lanes stream them (paper Fig. 4).
	verify := tr.Begin(node, trace.StageVerify, h.Number)
	parts := make([]*state.ChangeSet, len(block.Txs)) // block order, folded at commit
	receipts := make([]*types.Receipt, len(block.Txs))
	var fees uint256.Int
	var cumulative uint64
	reused := 0
	pending := make(map[int]txResult)
	next := 0
	var vErr error
	for r := range results {
		if r.err != nil && vErr == nil {
			vErr = r.err
			failed.Store(true)
			continue
		}
		pending[r.index] = r
		for {
			cur, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			if vErr == nil {
				want := block.Profile.Txs[next]
				switch {
				case !cfg.SkipProfileCheck && !cur.accessOK:
					vErr = fmt.Errorf("%w: tx %d access set differs", ErrProfileMismatch, next)
					failed.Store(true)
					telemetry.ValidatorVerifyFailures.Inc()
					flight.Verify(block.Txs[next], false, h.Number)
				case !cfg.SkipProfileCheck && cur.receipt.GasUsed != want.GasUsed:
					vErr = fmt.Errorf("%w: tx %d used %d gas, profile says %d", ErrProfileMismatch, next, cur.receipt.GasUsed, want.GasUsed)
					failed.Store(true)
					telemetry.ValidatorVerifyFailures.Inc()
					flight.Verify(block.Txs[next], false, h.Number)
				default:
					cumulative += cur.receipt.GasUsed
					cur.receipt.CumulativeGasUsed = cumulative
					receipts[next] = cur.receipt
					fees.Add(&fees, &cur.fee)
					parts[next] = cur.changes
					flight.Verify(block.Txs[next], true, h.Number)
					if cur.taken {
						reused++
					}
				}
			}
			next++
		}
	}
	verify.End(bh)
	if vErr != nil {
		return nil, vErr
	}
	if next != len(block.Txs) {
		return nil, fmt.Errorf("%w: only %d of %d txs executed", ErrBadBlock, next, len(block.Txs))
	}

	// Block commitment phase. A block rejected here still counts in the
	// commit histogram (Drop), but commit-phase spans are stored on the success
	// path only: a rejected block never commits, and the sim's tracing oracle
	// requires a complete chain exactly for committed blocks.
	commit := tr.Begin(node, trace.StageCommit, h.Number)
	committed := false
	defer func() {
		if committed {
			commit.End(bh)
		} else {
			commit.Drop()
		}
	}()
	if cumulative != h.GasUsed {
		return nil, fmt.Errorf("%w: gas used %d != header %d", ErrBadBlock, cumulative, h.GasUsed)
	}
	if got := types.ComputeReceiptRoot(receipts); got != h.ReceiptRoot {
		return nil, fmt.Errorf("%w: receipt root mismatch", ErrBadBlock)
	}
	if got := types.CreateBloom(receipts); got != h.LogsBloom {
		return nil, fmt.Errorf("%w: logs bloom mismatch", ErrBadBlock)
	}
	total := state.Fold(parts...)
	chain.Finalize(parent, total, h.Coinbase, &fees, params)
	stateCommit := tr.Begin(node, trace.StageStateCommit, h.Number)
	postState, got := chain.CommitAndRoot(parent, total, params, h.Number)
	if got != h.StateRoot {
		return nil, fmt.Errorf("%w: state root %s != header %s", ErrBadBlock, got, h.StateRoot)
	}
	stateCommit.End(bh)
	committed = true
	return &Result{State: postState, Receipts: receipts, Stats: stats, Reused: reused}, nil
}
