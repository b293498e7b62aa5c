// Package baseline implements the OCC speculative validator used as the
// comparison curve in the paper's Fig. 7(a) (the method of Saraph &
// Herlihy): phase one executes every transaction in parallel against the
// block-start state and records read/write sets; any transaction whose read
// set overlaps an earlier transaction's write set is marked dirty; phase two
// walks the block in order, applying clean results and re-executing dirty
// transactions serially.
//
// Unlike BlockPilot's validator it needs no block profile — but it wastes
// the work of every dirty speculation and serializes the entire dirty set,
// which is what the scheduler-based design beats.
package baseline

import (
	"fmt"
	"sync"

	"blockpilot/internal/chain"
	"blockpilot/internal/state"
	"blockpilot/internal/types"
	"blockpilot/internal/uint256"
)

// Result is a validated block plus speculation statistics.
type Result struct {
	State    *state.Snapshot
	Receipts []*types.Receipt
	Dirty    int // transactions that had to be re-executed serially
}

// speculation is one phase-1 execution result.
type speculation struct {
	receipt *types.Receipt
	fee     uint256.Int
	access  *types.AccessSet
	changes *state.ChangeSet
	err     error
}

// SpeculateDirty runs phase one (sequentially) and returns the per-tx dirty
// flags — which transactions an OCC validator would have to re-execute
// serially. Used by the virtual-time harness to model the baseline.
func SpeculateDirty(parent *state.Snapshot, block *types.Block, params chain.Params) ([]bool, error) {
	bc := chain.BlockContextFor(&block.Header, params.ChainID)
	n := len(block.Txs)
	dirty := make([]bool, n)
	writtenBefore := make(map[types.StateKey]bool)
	for j := 0; j < n; j++ {
		o := state.NewOverlay(parent, 0)
		_, _, err := chain.ApplyTransaction(o, block.Txs[j], bc)
		if err != nil {
			dirty[j] = true
			writtenBefore[types.AccountKey(block.Txs[j].From)] = true
			writtenBefore[types.AccountKey(block.Txs[j].To)] = true
			continue
		}
		for k := range o.Access().Reads {
			if writtenBefore[k] {
				dirty[j] = true
				break
			}
		}
		for k := range o.Access().Writes {
			writtenBefore[k] = true
		}
	}
	return dirty, nil
}

// ValidateOCC re-executes block with the two-phase OCC strategy and checks
// the header commitments.
func ValidateOCC(parent *state.Snapshot, parentHeader *types.Header, block *types.Block, threads int, params chain.Params) (*Result, error) {
	h := &block.Header
	if h.ParentHash != parentHeader.Hash() {
		return nil, fmt.Errorf("baseline: parent hash mismatch")
	}
	if got := types.ComputeTxRoot(block.Txs); got != h.TxRoot {
		return nil, fmt.Errorf("baseline: tx root mismatch")
	}
	bc := chain.BlockContextFor(h, params.ChainID)
	n := len(block.Txs)
	specs := make([]speculation, n)

	// Phase 1: speculative parallel execution against the block-start state.
	if threads < 1 {
		threads = 1
	}
	var wg sync.WaitGroup
	next := make(chan int, n)
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				o := state.NewOverlay(parent, 0)
				receipt, fee, err := chain.ApplyTransaction(o, block.Txs[i], bc)
				if err != nil {
					specs[i] = speculation{err: err}
					continue
				}
				specs[i] = speculation{
					receipt: receipt,
					fee:     *fee,
					access:  o.Access(),
					changes: o.ChangeSet(),
				}
			}
		}()
	}
	wg.Wait()

	// Dirty marking: tx j is dirty when some earlier tx writes a key j read,
	// or j's own speculation failed outright (e.g. nonce chain).
	writtenBefore := make(map[types.StateKey]bool)
	dirty := make([]bool, n)
	for j := 0; j < n; j++ {
		if specs[j].err != nil {
			// Speculation failed (e.g. a sender nonce chain): its true write
			// set is unknown. Mark it dirty and conservatively reserve the
			// accounts the transaction itself names.
			dirty[j] = true
			writtenBefore[types.AccountKey(block.Txs[j].From)] = true
			writtenBefore[types.AccountKey(block.Txs[j].To)] = true
			continue
		}
		for k := range specs[j].access.Reads {
			if writtenBefore[k] {
				dirty[j] = true
				break
			}
		}
		for k := range specs[j].access.Writes {
			writtenBefore[k] = true
		}
	}

	// Phase 2: walk the block in order — merge clean results, re-execute
	// dirty transactions on the accumulated state.
	accum := state.NewMemory(parent)
	total := state.NewChangeSet()
	receipts := make([]*types.Receipt, n)
	var fees uint256.Int
	var cumulative uint64
	dirtyCount := 0
	for i := 0; i < n; i++ {
		var receipt *types.Receipt
		var fee uint256.Int
		var cs *state.ChangeSet
		if dirty[i] {
			dirtyCount++
			o := state.NewOverlay(accum, types.Version(i))
			r, f, err := chain.ApplyTransaction(o, block.Txs[i], bc)
			if err != nil {
				return nil, fmt.Errorf("baseline: tx %d invalid: %w", i, err)
			}
			receipt, fee, cs = r, *f, o.ChangeSet()
		} else {
			receipt, fee, cs = specs[i].receipt, specs[i].fee, specs[i].changes
		}
		accum.ApplyChangeSet(cs)
		total.Merge(cs)
		cumulative += receipt.GasUsed
		receipt.CumulativeGasUsed = cumulative
		receipts[i] = receipt
		fees.Add(&fees, &fee)
	}

	total.Merge(chain.FinalizationChange(parent, total, h.Coinbase, &fees, params))
	postState, postRoot := chain.CommitAndRoot(parent, total, params, h.Number)
	if cumulative != h.GasUsed ||
		types.ComputeReceiptRoot(receipts) != h.ReceiptRoot ||
		types.CreateBloom(receipts) != h.LogsBloom ||
		postRoot != h.StateRoot {
		// Either the block is invalid, or a dirty transaction's re-execution
		// wrote keys its speculation did not, silently staling a "clean"
		// result. Fall back to full serial re-validation — the abort path a
		// real OCC validator takes; it authoritatively accepts or rejects.
		serial, err := chain.VerifyBlockSerial(parent, parentHeader, block, params)
		if err != nil {
			return nil, fmt.Errorf("baseline: speculative result diverged and serial fallback rejected the block: %w", err)
		}
		return &Result{State: serial.State, Receipts: serial.Receipts, Dirty: n}, nil
	}
	return &Result{State: postState, Receipts: receipts, Dirty: dirtyCount}, nil
}
