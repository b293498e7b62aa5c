// Package validator implements BlockPilot's validation context (paper §4.3
// and Algorithm 2): profile-guided parallel re-execution of a received
// block, with an applier that verifies each transaction's observed
// read/write set against the proposer's block profile, commits results in
// block order, and accepts the block only if the recomputed state root
// matches the header.
//
// The paper's four phases within one block (Fig. 5) are two functions:
// execute runs the first three on a reader of the parent's state and hands
// commit only the walk's sums; commit runs the last on the parent snapshot.
//
//	preparation  — index the profile's write sets by key (writerIndex), the
//	               one structure the lanes and sibling reuse read;
//	tx execution — lanes claim block positions in order, and a read waits
//	               only for the lower writer the profile names (view, not
//	               the paper's subgraph lanes: DESIGN.md §5.12); each result
//	               is checked against the profile's keys and gas and written
//	               at its block position in one result array;
//	validation   — once every lane has returned, the applier walks the
//	               array in block order: the first failure is the verdict,
//	               else it sums gas, fees and write sets;
//	commitment   — the assembled post-state is committed and every header
//	               commitment (gas, receipt root, state root) is checked.
package validator

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"blockpilot/internal/chain"
	"blockpilot/internal/scheduler"
	"blockpilot/internal/state"
	"blockpilot/internal/telemetry"
	"blockpilot/internal/trace"
	"blockpilot/internal/types"
	"blockpilot/internal/uint256"
)

// Validation errors.
var (
	ErrProfileMismatch = errors.New("validator: execution diverged from block profile")
	ErrBadBlock        = errors.New("validator: block invalid")
)

// Config controls the parallel validator. The zero value (plus a thread
// count) is the only configuration: the lanes follow the writer index, and
// the paper's conflict subgraphs are computed only on demand (Result.Stats).
type Config struct {
	Threads int
	// Spawn runs one execution lane. Default spawns a goroutine; the
	// multi-block pipeline injects its shared worker pool here so that free
	// workers execute transactions "regardless of the block information"
	// (paper §4.3).
	Spawn func(f func())
	// Node names this validator in its stage events (default "validator").
	Node string
	// Tracer injects the recorder of its stage events; nil falls back to
	// the installed one (trace.Active).
	Tracer *trace.Recorder
}

// DefaultConfig is the paper's configuration at the given thread count.
func DefaultConfig(threads int) Config {
	return Config{Threads: threads}
}

// Result is a successfully validated block's outcome.
type Result struct {
	State    *state.Snapshot
	Receipts []*types.Receipt
	// Reused counts the transactions taken from a sibling's verified results
	// instead of executed (ValidateSibling; 0 for a leader).
	Reused  int
	profile *types.BlockProfile
}

// Stats runs the paper's account-level union-find (Fig. 8) over the
// validated block's profile: the lanes never build it.
func (r *Result) Stats() scheduler.Stats {
	return scheduler.ComputeStats(scheduler.BuildComponents(r.profile, true))
}

// result is one transaction's outcome, at its block position in the
// validation's result array. The lane that claims the transaction writes it,
// then publishes state; later readers of its writes, the applier and a
// leader's followers read it once state says they may.
type result struct {
	receipt *types.Receipt // the block's receipt: the applier sets CumulativeGasUsed
	fee     uint256.Int
	changes *state.ChangeSet
	err     error // invalid transaction or profile mismatch
	// shared is a leader's *receipt as its lane left it, what a follower
	// copies while the leader's applier may be writing receipt.
	shared       types.Receipt
	readCoinbase bool
	taken        bool         // the lane took a sibling's result instead of executing
	state        atomic.Int32 // pending until the fields above are final
}

// A result's state. Every claimed position leaves pending, skipped ones too,
// so that no reader waits on a position forever.
const (
	pending int32 = iota
	failed        // err is set, or the position is past the first failure
	matched       // matches the profile's keys and gas: a follower may take it
)

// errWriterFailed stops a transaction that reads a key whose writer failed.
// The block-order walk never reaches it: it stops at that writer or before.
var errWriterFailed = errors.New("validator: a writer this transaction reads failed")

// resultArrays recycles the arrays of validations that do not lead a
// sibling record (a leader's array is the record's).
var resultArrays = sync.Pool{New: func() any { return new([]result) }}

// ValidateParallel re-executes block against parent using the BlockPilot
// validator and returns the committed post-state. Any divergence — a body
// its header does not commit to, invalid transaction, access set or gas
// different from the profile, root mismatch — rejects the block. A nil
// parent, a state its chain has pruned, fails with chain.ErrStatePruned.
func ValidateParallel(parent *state.Snapshot, parentHeader *types.Header, block *types.Block, cfg Config, params chain.Params) (*Result, error) {
	if err := chain.CheckBody(block); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadBlock, err)
	}
	return ValidateSibling(parent, parentHeader, block, cfg, params, nil, false)
}

// ValidateSibling is ValidateParallel for one of the blocks on parent that
// share sib, on a body its caller, the pipeline, has checked
// (chain.CheckBody). The leader's (lead) result array is sib's. A follower
// plans its reuse in its preparation phase, waits in the calling goroutine
// until every lane of the leader has started, and then each of its lanes
// takes every leader result that is takeable when the lane reaches it and
// executes the rest. A nil sib validates alone.
func ValidateSibling(parent *state.Snapshot, parentHeader *types.Header, block *types.Block, cfg Config, params chain.Params, sib *Siblings, lead bool) (*Result, error) {
	span := telemetry.StartSpan(telemetry.ValidatorBlockSeconds)
	var res *Result
	err := chain.ErrStatePruned // the caller's chain dropped the parent's state
	// Test parent before it becomes a state.Reader: a nil *Snapshot is not a nil Reader.
	if parent != nil {
		var ex *executed
		if ex, err = execute(parent, parentHeader, block, cfg, params, sib, lead); err == nil {
			res, err = ex.commit(parent, params)
		}
	} else if lead {
		sib.lanesQueued() // its followers wait for the lanes it will never queue
	}
	span.End()
	if err != nil {
		telemetry.ValidatorRejects.Inc()
	} else {
		telemetry.ValidatorBlocks.Inc()
		reusedTotal.Add(int64(res.Reused))
	}
	return res, err
}

// executed is what commitment needs from execution: the sums of the
// block-order walk over a block whose every transaction was accepted, and
// the block's trace identity, under which each phase is one tr.Begin / End
// interval that feeds the phase's histogram and, with a collector, a span.
type executed struct {
	header   *types.Header
	receipts []*types.Receipt
	parts    []*state.ChangeSet // block order, folded at commit
	fees     uint256.Int
	gasUsed  uint64
	profile  *types.BlockProfile
	reused   int
	tr       *trace.Recorder
	node     string
	bh       types.Hash // only computed with a collector: Header.Hash is keccak over RLP
}

// execute runs the first three phases of block on base, the parent's state:
// preparation, execution and validation. It returns the walk's sums of a
// block whose every transaction ran as its profile says, or the verdict.
func execute(base state.Reader, parentHeader *types.Header, block *types.Block, cfg Config, params chain.Params, sib *Siblings, lead bool) (*executed, error) {
	if lead {
		defer sib.lanesQueued() // a leader that fails before queueing its lanes marks nothing matched
	}
	if cfg.Threads < 1 {
		cfg.Threads = 1
	}
	if cfg.Spawn == nil {
		cfg.Spawn = func(f func()) { go f() }
	}
	h := &block.Header
	if err := chain.CheckLink(parentHeader, block, params); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadBlock, err)
	}
	if block.Profile == nil || len(block.Profile.Txs) != len(block.Txs) {
		return nil, fmt.Errorf("%w: the profile does not cover the block's %d txs", ErrProfileMismatch, len(block.Txs))
	}
	ex := &executed{header: h, profile: block.Profile, tr: trace.Resolve(cfg.Tracer), node: cfg.Node}
	if ex.node == "" {
		ex.node = "validator"
	}
	node := trace.NodeIndex(ex.node) // of the transaction events
	if ex.tr != nil {
		ex.bh = block.Hash()
	}

	// Preparation phase: the writer index of the shipped profile, and a
	// follower's reuse plan, which reads it.
	prepare := ex.tr.Begin(ex.node, trace.StagePrepare, h.Number)
	wi := writerIndexes.Get().(*writerIndex)
	defer writerIndexes.Put(wi) // every lane has returned by then
	wi.build(block.Profile.Txs)
	var fw *follower
	if sib != nil && !lead {
		if fw = sib.follow(block, wi); fw != nil {
			defer fw.done()
		}
	}
	prepare.End(ex.bh)

	// A follower waits here, off the worker pool, until every lane of the
	// leader has started: its own then run on the workers the leader frees,
	// by when the leader has verified most of what they can take. Never
	// longer: a worker the leader leaves idle runs a follower lane at once.
	if fw != nil {
		sib.started.Wait()
	}

	// Tx execution phase: the lanes claim block positions in order from one
	// cursor, and each writes transaction i's result at res[i]. A position
	// past the first failure in block order, stop, is marked failed without
	// running: every result before stop exists.
	executing := ex.tr.Begin(ex.node, trace.StageExecute, h.Number)
	bc := chain.BlockContextFor(h, params.ChainID)
	var res []result
	if lead {
		res = sib.results
	} else {
		arr := resultArrays.Get().(*[]result)
		res = slices.Grow((*arr)[:0], len(block.Txs))[:len(block.Txs)]
		defer func() {
			clear(res)
			*arr = res
			resultArrays.Put(arr)
		}()
	}
	n := int32(len(block.Txs))
	var next, stop atomic.Int32
	stop.Store(n)
	var wg sync.WaitGroup
	for laneID := range min(cfg.Threads, len(block.Txs)) {
		wg.Add(1)
		if lead {
			sib.started.Add(1)
		}
		cfg.Spawn(func() {
			defer wg.Done()
			if lead {
				sib.started.Done()
			}
			v := &view{base: base, res: res, wi: wi}
			overlay := state.NewOverlay(v, 0)
			for i := next.Add(1) - 1; i < n; i = next.Add(1) - 1 {
				r, want, accessOK := &res[i], block.Profile.Txs[i], true
				if trace.Active() != nil {
					writer, reads := wi.readWriters(want.Reads, i)
					trace.Assign(node, laneID, block.Txs[i], writer, reads, h.Number)
				}
				if i > stop.Load() {
					r.state.Store(failed)
					continue
				}
				if fw != nil && fw.takeable(i) {
					l := &sib.results[fw.take[i]]
					trace.Reuse(node, laneID, block.Txs[i], int(fw.take[i]), h.Number)
					receipt := l.shared // this block's applier sets CumulativeGasUsed on its own copy
					r.receipt, r.fee, r.changes, r.taken = &receipt, l.fee, l.changes, true
				} else {
					trace.ReplayStart(node, laneID, block.Txs[i], h.Number)
					v.pos = i
					overlay.Reset(v, types.Version(i))
					receipt, fee, readCoinbase, err := apply(overlay, block.Txs[i], bc)
					trace.ReplayEnd(node, laneID, block.Txs[i], h.Number)
					if err != nil {
						r.err = err
						if err != errWriterFailed {
							r.err = fmt.Errorf("tx %d: %w", i, err)
							stopAt(&stop, i)
						}
						r.state.Store(failed)
						continue
					}
					r.receipt, r.fee, r.changes, r.readCoinbase = receipt, *fee, overlay.ChangeSet(), readCoinbase
					accessOK = want.MatchesAccessSet(overlay.Access())
				}
				switch {
				case accessOK && r.receipt.GasUsed == want.GasUsed:
					if lead {
						r.shared = *r.receipt
					}
					r.state.Store(matched)
					continue
				case !accessOK:
					r.err = fmt.Errorf("%w: tx %d access set differs", ErrProfileMismatch, i)
				default:
					r.err = fmt.Errorf("%w: tx %d used %d gas, profile says %d", ErrProfileMismatch, i, r.receipt.GasUsed, want.GasUsed)
				}
				stopAt(&stop, i)
				r.state.Store(failed)
			}
		})
	}
	if lead {
		sib.lanesQueued()
	}
	wg.Wait()
	executing.End(ex.bh)

	// Block validation phase (the applier, Algorithm 2): walk the results in
	// block order. The first failure is the verdict, whatever lane reached
	// its own first; else gas, fees and write sets are summed.
	verify := ex.tr.Begin(ex.node, trace.StageVerify, h.Number)
	ex.parts = make([]*state.ChangeSet, len(block.Txs))
	ex.receipts = make([]*types.Receipt, len(block.Txs))
	var vErr error
	for i := range res {
		r := &res[i]
		if vErr = r.err; vErr != nil {
			if errors.Is(vErr, ErrProfileMismatch) {
				telemetry.ValidatorVerifyFailures.Inc()
				trace.Verify(node, block.Txs[i], false, h.Number)
			}
			break
		}
		ex.gasUsed += r.receipt.GasUsed
		r.receipt.CumulativeGasUsed = ex.gasUsed
		ex.receipts[i], ex.parts[i] = r.receipt, r.changes
		ex.fees.Add(&ex.fees, &r.fee)
		trace.Verify(node, block.Txs[i], true, h.Number)
		if r.taken {
			ex.reused++
		}
	}
	verify.End(ex.bh)
	if vErr != nil {
		return nil, vErr
	}
	return ex, nil
}

// commit is the block commitment phase: it commits the executed block on
// parent, the snapshot of the state execute ran on, and checks the header's
// commitments to the outcome. A block rejected here still counts in the
// commit histogram (Drop), but commit-phase spans are stored on the success
// path only: a rejected block never commits, and the sim's tracing oracle
// requires a complete chain exactly for committed blocks.
func (ex *executed) commit(parent *state.Snapshot, params chain.Params) (*Result, error) {
	h := ex.header
	commit := ex.tr.Begin(ex.node, trace.StageCommit, h.Number)
	if err := chain.CheckExecution(h, ex.gasUsed, ex.receipts); err != nil {
		commit.Drop()
		return nil, fmt.Errorf("%w: %w", ErrBadBlock, err)
	}
	total := state.Fold(ex.parts...)
	chain.Finalize(parent, total, h.Coinbase, &ex.fees, params)
	stateCommit := ex.tr.Begin(ex.node, trace.StageStateCommit, h.Number)
	postState, root := chain.CommitAndRoot(parent, total, params, h.Number)
	if err := chain.CheckStateRoot(h, root); err != nil {
		commit.Drop()
		return nil, fmt.Errorf("%w: %w", ErrBadBlock, err)
	}
	stateCommit.End(ex.bh)
	commit.End(ex.bh)
	return &Result{State: postState, Receipts: ex.receipts, Reused: ex.reused, profile: ex.profile}, nil
}

// stopAt lowers stop to i, the lanes' first failing position in block order.
func stopAt(stop *atomic.Int32, i int32) {
	for s := stop.Load(); i < s && !stop.CompareAndSwap(s, i); s = stop.Load() {
	}
}
