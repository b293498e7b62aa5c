package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"blockpilot/internal/adaptive"
	"blockpilot/internal/chain"
	"blockpilot/internal/flight"
	"blockpilot/internal/health"
	"blockpilot/internal/mempool"
	"blockpilot/internal/mv"
	"blockpilot/internal/state"
	"blockpilot/internal/telemetry"
	"blockpilot/internal/trace"
	"blockpilot/internal/types"
	"blockpilot/internal/uint256"
)

// Proposer engine identifiers (ProposerConfig.Engine, -engine flag).
const (
	// EngineOCCWSI is the paper's OCC-WSI engine (proposer.go): abort a
	// conflicted transaction outright and re-execute it from the pool.
	EngineOCCWSI = "occ-wsi"
	// EngineMVSTM is the Block-STM-style engine (internal/mv): multi-version
	// memory with ESTIMATE sentinels, read-set validation by transaction
	// index, and dependency suspension instead of blind re-execution.
	EngineMVSTM = "mv-stm"
)

// Engines lists the selectable proposer engines (flag help, benches).
func Engines() []string { return []string{EngineOCCWSI, EngineMVSTM} }

// mvRoundCap bounds how many transactions one claim round may pull from the
// pool; a round is otherwise sized by the remaining gas estimate.
const mvRoundCap = 512

// mvClaimBatch is the PopBatch size used while claiming a round.
const mvClaimBatch = 64

// mvLane is the flight-recorder lane for MV-STM claim/finalize events,
// which happen on the orchestrating goroutine rather than a worker.
const mvLane = 0

// mvTxOut is the per-transaction payload the MV executor hands back through
// the instance: the receipt/fee/profile of a successful execution, or the
// validity error of a no-op one.
type mvTxOut struct {
	receipt *types.Receipt
	fee     *uint256.Int
	profile *types.TxProfile
	err     error
	// merged marks a commutatively merged hot-account credit: the recipient
	// was stripped from this incarnation's write set and its value must be
	// folded into the credit pool if (and only if) the tx finalizes.
	merged bool
}

// mvSealOrderHook, when set (tests only), observes the claimed transaction
// list and the sealed block order after every MV propose — the engine-parity
// suite asserts the block preserves the claimed index order.
var mvSealOrderHook func(claimed, sealed []*types.Transaction)

// mvWindowHint carries the MV-STM speculation window across blocks (stored
// as window+1; 0 means no hint yet, so the first block starts fully
// speculative). Contention is a property of the traffic, not of one block:
// a hotspot that collapsed the window stays collapsed into the next block
// instead of re-paying the discovery burst — re-executions — per block.
// Process-global is fine: a node runs one proposer.
var mvWindowHint atomic.Int64

// proposeMV packs a block with the MV-STM engine. Transactions are claimed
// from the pool in rounds (PopBatch yields at most one transaction per
// sender per round, so same-sender nonce chains always occupy ascending
// indices); each round runs to quiescence on the Block-STM scheduler before
// the next is claimed, so every earlier index is fully validated — ESTIMATE
// dependencies never cross rounds and the multi-version chains only grow.
// Finalization walks the claimed order: validity failures are requeued or
// dropped exactly like OCC-WSI aborts, and the first transaction that
// overflows the gas limit cuts the block — it and every higher index are
// purged from the multi-version memory (highest first, so no survivor read
// a purged value) and returned to the pool. The seal tail — flatten,
// finalization credit, CommitAndRoot, header roots, trace spans — is the
// same as the OCC-WSI engine's, so validators, the flight recorder, and the
// sim oracles cannot tell the engines apart.
func proposeMV(parent *state.Snapshot, parentHeader *types.Header, pool *mempool.Pool,
	cfg ProposerConfig, params chain.Params) (*ProposeResult, error) {

	if cfg.Threads < 1 {
		cfg.Threads = 1
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = DefaultMaxRetries
	}
	header := &types.Header{
		ParentHash: parentHeader.Hash(),
		Number:     parentHeader.Number + 1,
		Coinbase:   cfg.Coinbase,
		GasLimit:   params.GasLimit,
		Time:       cfg.Time,
	}
	span := telemetry.StartSpan("proposer.propose", header.Number, telemetry.ProposerBlockSeconds)
	defer span.End()
	tr := trace.Resolve(cfg.Tracer)
	node := cfg.Node
	if node == "" {
		node = "proposer"
	}
	var sealStart, scStart, scEnd time.Time
	if tr != nil {
		sealStart = time.Now()
	}
	bc := chain.BlockContextFor(header, params.ChainID)
	height := header.Number

	// Contention-adaptive scheduling: identical setup to the OCC-WSI engine
	// so -engine stays a clean ablation (see proposeOCC).
	ctrl := cfg.Adaptive
	pool.SetAbortAware(ctrl != nil && ctrl.DemotionEnabled())
	var credits *adaptive.CreditPool
	if ctrl != nil {
		ctrl.BlockStart()
		if ctrl.DemotionEnabled() {
			pool.AgeAborts(ctrl.Config().Decay)
		}
		if ctrl.MergeEnabled() {
			credits = adaptive.NewCreditPool()
		}
	}

	var claimed []*types.Transaction
	inst := mv.NewInstance(parent, func(idx, worker int, view state.Reader) mv.ExecResult {
		tx := claimed[idx]
		flight.ExecStart(worker, tx, height)
		defer flight.ExecEnd(worker, tx, height)
		overlay := state.NewOverlay(view, types.Version(idx+1))
		receipt, fee, err := chain.ApplyTransaction(overlay, tx, bc)
		if err != nil {
			// Validity checks precede the first overlay write, so a failed
			// transaction is a pure no-op: keep its read set (a later write
			// can revalidate it into existence) but record no change set.
			return mv.ExecResult{Data: &mvTxOut{err: err}}
		}
		cs := overlay.ChangeSet()
		out := &mvTxOut{
			receipt: receipt,
			fee:     fee,
			profile: types.ProfileFromAccessSet(overlay.Access(), receipt.GasUsed),
		}
		if credits != nil && mergeableCredit(ctrl, view, tx, cs) {
			// Strip the hot recipient from the write set: its credit rides
			// the commutative pool, so the version chain on that account
			// stops invalidating every later reader. Decided per
			// incarnation; only the final incarnation's flag is credited at
			// finalize, and Record reconciles a changed write set.
			delete(cs.Accounts, tx.To)
			out.merged = true
		}
		return mv.ExecResult{Writes: cs, Data: out}
	})
	if ctrl != nil {
		// MV-STM contention surfaces two ways: read-set validation failures
		// (rare — the window suppresses most doomed runs) and ESTIMATE
		// suspensions (the common case). Feed both into the controller's
		// windowed sketches with the contended key; no stripe attribution
		// in this engine.
		inst.SetValidationFailHook(func(idx int, r mv.ReadRecord) {
			ctrl.NoteAbort(claimed[idx].From, r.Key(), -1)
		})
		inst.SetEstimateHitHook(func(idx int, key types.StateKey) {
			ctrl.NoteAbort(claimed[idx].From, key, -1)
		})
	}
	if cfg.MVFaultStaleReads {
		inst.SetStaleReads(true)
	}
	if h := mvWindowHint.Load(); h > 0 {
		inst.SetWindowHint(h - 1)
	}

	var (
		committed    []committedTx
		fees         uint256.Int
		gasUsed      uint64
		dropped      atomic.Int64
		droppedRetry atomic.Int64
		retries      sync.Map
		laneCommits  int
	)
	gasFull := false
	for !gasFull {
		// Claim one round, bounded by the optimistic gas estimate (sum of
		// gas limits): enough to fill the block, never unboundedly more.
		var round []*types.Transaction
		est := gasUsed
		for est < params.GasLimit && len(round) < mvRoundCap {
			n := mvClaimBatch
			if len(round)+n > mvRoundCap {
				n = mvRoundCap - len(round)
			}
			got := pool.PopBatch(n)
			if len(got) == 0 {
				break
			}
			for _, tx := range got {
				flight.Pop(mvLane, tx, height)
				est += tx.Gas
			}
			round = append(round, got...)
		}
		if len(round) == 0 {
			break
		}
		hotStart := len(round)
		if ctrl != nil {
			// The MV-STM shape of the serial lane: partition the round into
			// a cold prefix and a hot suffix, each preserving pop (price)
			// order. The cold prefix runs at full parallelism; the hot
			// suffix runs as a second sub-round at one thread, after every
			// cold write has validated, so hot txs execute serially in
			// claimed order and commit with ~zero re-executions.
			cold := make([]*types.Transaction, 0, len(round))
			var hot []*types.Transaction
			for _, tx := range round {
				if ctrl.IsHot(tx) {
					hot = append(hot, tx)
				} else {
					cold = append(cold, tx)
				}
			}
			hotStart = len(cold)
			round = append(cold, hot...)
		}
		lo := len(claimed)
		claimed = append(claimed, round...)
		if hotStart < len(round) {
			inst.Run(hotStart, cfg.Threads)
			inst.Run(len(round)-hotStart, 1)
			for range round[hotStart:] {
				ctrl.NoteLaneTx()
			}
		} else {
			inst.Run(len(round), cfg.Threads)
		}

		// Finalize the round in claimed (index) order.
		cut := -1
		for rel := range round {
			idx := lo + rel
			out := inst.Data(idx).(*mvTxOut)
			if out.err != nil {
				switch {
				case errors.Is(out.err, chain.ErrNonceTooHigh):
					// An earlier-nonce tx was dropped or cut after this one
					// queued behind it: retry once the chain settles.
					requeueOrDrop(mvLane, pool, claimed[idx], &retries, cfg.MaxRetries, height, &dropped, &droppedRetry)
				default:
					pool.Done(claimed[idx])
					dropped.Add(1)
					telemetry.ProposerDrops.Inc()
					flight.Drop(mvLane, claimed[idx], height, false)
				}
				continue
			}
			if gasUsed+out.receipt.GasUsed > params.GasLimit {
				// Cut here: idx and everything above may have been read by
				// nothing below it, so the whole tail is evicted together.
				cut = idx
				gasFull = true
				break
			}
			gasUsed += out.receipt.GasUsed
			fees.Add(&fees, out.fee)
			if out.merged {
				credits.Add(claimed[idx].To, &claimed[idx].Value)
				ctrl.NoteMerge()
			}
			if ctrl != nil && rel >= hotStart {
				laneCommits++
			}
			committed = append(committed, committedTx{
				version: types.Version(idx + 1),
				tx:      claimed[idx],
				receipt: out.receipt,
				profile: out.profile,
			})
			pool.Done(claimed[idx])
			telemetry.ProposerCommits.Inc()
			health.Heartbeat(health.CompProposer)
			flight.Commit(mvLane, claimed[idx], types.Version(idx+1), height)
		}
		if cut >= 0 {
			for idx := len(claimed) - 1; idx >= cut; idx-- {
				inst.Purge(idx)
			}
			for idx := cut; idx < len(claimed); idx++ {
				// Leave the tail for the next block (OCC does the same on a
				// filled block), valid or not — the pool re-sorts it.
				flight.Requeue(mvLane, claimed[idx], height)
				pool.Requeue(claimed[idx])
				telemetry.ProposerRetries.Inc()
			}
		}
	}

	if w := inst.WindowHint(); w >= 0 {
		mvWindowHint.Store(w + 1)
	}

	stats := inst.Stats()
	telemetry.MVReexecutions.Add(stats.Reexecutions)
	telemetry.MVEstimateHits.Add(stats.EstimateHits)
	telemetry.MVValidationFails.Add(stats.ValidationFails)

	// Assemble the block in index order (committed is already sorted: the
	// finalize walk appends ascending).
	txs := make([]*types.Transaction, len(committed))
	receipts := make([]*types.Receipt, len(committed))
	profile := &types.BlockProfile{Txs: make([]*types.TxProfile, len(committed))}
	var cumulative uint64
	for i, c := range committed {
		txs[i] = c.tx
		cumulative += c.receipt.GasUsed
		c.receipt.CumulativeGasUsed = cumulative
		receipts[i] = c.receipt
		profile.Txs[i] = c.profile
		flight.Seal(c.tx, c.version, i, height)
	}

	// Finalize: aggregate fee + reward credit to the coinbase, then commit —
	// the exact seal tail of the OCC-WSI engine, merged hot-account credits
	// first so FinalizationChange sees them (the coinbase itself can be hot).
	total := inst.Flatten()
	accum := state.NewMemory(parent)
	accum.ApplyChangeSet(total)
	if credits != nil {
		if ccs := credits.Materialize(accum); ccs != nil {
			accum.ApplyChangeSet(ccs)
			total.Merge(ccs)
		}
	}
	total.Merge(chain.FinalizationChange(accum, cfg.Coinbase, &fees, params))
	if tr != nil {
		scStart = time.Now()
	}
	postState, stateRoot := chain.CommitAndRoot(parent, total, params, height)
	if tr != nil {
		scEnd = time.Now()
	}

	if ctrl != nil {
		occ := 0.0
		if len(committed) > 0 {
			occ = float64(laneCommits) / float64(len(committed))
		}
		telemetry.AdaptiveLaneOccupancy.Set(occ)
	}
	telemetry.ProposerBlockTxs.Observe(uint64(len(committed)))
	header.GasUsed = gasUsed
	header.StateRoot = stateRoot
	header.TxRoot = types.ComputeTxRoot(txs)
	header.ReceiptRoot = types.ComputeReceiptRoot(receipts)
	header.LogsBloom = types.CreateBloom(receipts)

	blk := &types.Block{Header: *header, Txs: txs, Profile: profile}
	if tr != nil {
		bh := blk.Hash()
		tr.RecordSpan(node, trace.StageStateCommit, bh, height, scStart, scEnd)
		tr.RecordSpan(node, trace.StageSeal, bh, height, sealStart, time.Now())
	}
	if mvSealOrderHook != nil {
		mvSealOrderHook(claimed, txs)
	}

	return &ProposeResult{
		Block:        blk,
		Receipts:     receipts,
		State:        postState,
		Fees:         fees,
		GasUsed:      gasUsed,
		Committed:    len(committed),
		Aborts:       int(stats.Reexecutions),
		Dropped:      int(dropped.Load()),
		DroppedRetry: int(droppedRetry.Load()),
	}, nil
}
