package core

import (
	"sync/atomic"

	"blockpilot/internal/chain"
	"blockpilot/internal/mv"
	"blockpilot/internal/state"
	"blockpilot/internal/telemetry"
	"blockpilot/internal/trace"
	"blockpilot/internal/types"
	"blockpilot/internal/uint256"
)

// mvRoundCap bounds how many transactions one claim round may pull from the
// pool; a round is otherwise sized by the remaining gas estimate.
const mvRoundCap = 512

// mvClaimBatch is the PopBatch size used while claiming a round.
const mvClaimBatch = 64

// mvLane is the recorder lane for MV-STM claim/finalize events,
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
// a purged value) and returned to the pool.
func proposeMV(b *blockBuild) *ProposeResult {
	pool, ctrl, gasLimit := b.pool, b.ctrl, b.params.GasLimit

	var claimed []*types.Transaction
	// One overlay per worker id, re-armed for each execution: Run starts one
	// goroutine per id and rounds do not overlap, so an id has one user at a
	// time. An execution cut short by an ESTIMATE suspension leaves its
	// overlay mid-transaction; the next Reset discards that.
	overlays := make([]*state.Overlay, b.cfg.Threads)
	for i := range overlays {
		overlays[i] = state.NewOverlay(nil, 0)
	}
	inst := mv.NewInstance(b.parent, func(idx, worker int, view state.Reader) mv.ExecResult {
		tx := claimed[idx]
		trace.ExecStart(b.node, worker, tx, b.header.Number)
		defer trace.ExecEnd(b.node, worker, tx, b.header.Number)
		overlay := overlays[worker]
		overlay.Reset(view, types.Version(idx+1))
		receipt, fee, err := chain.ApplyTransaction(overlay, tx, b.bc)
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
		if b.mergeableCredit(view, tx, cs) {
			// Strip the hot recipient from the write set: its credit rides
			// the commutative pool, so the version chain on that account
			// stops invalidating every later reader. Decided per
			// incarnation; only the final incarnation's flag is credited at
			// finalize, and Record reconciles a changed write set.
			cs.Drop(tx.To)
			out.merged = true
		}
		return mv.ExecResult{Writes: cs, Data: out}
	})
	if ctrl != nil {
		// MV-STM contention surfaces two ways: read-set validation failures
		// (rare — the window suppresses most doomed runs) and ESTIMATE
		// suspensions (the common case). Both feed the controller's windowed
		// sketches with the contended key.
		inst.SetContentionHook(func(idx int, key types.StateKey) {
			ctrl.NoteAbort(claimed[idx].From, key)
		})
	}
	if h := mvWindowHint.Load(); h > 0 {
		inst.SetWindowHint(h - 1)
	}

	var gasUsed uint64
	gasFull := false
	for !gasFull {
		// Claim one round, bounded by the optimistic gas estimate (sum of
		// gas limits): enough to fill the block, never unboundedly more.
		// The MV-STM shape of the serial lane: the round is a cold prefix
		// and a hot suffix, each preserving pop (price) order. The cold
		// prefix runs at full parallelism; the hot suffix runs as a second
		// sub-round at one thread, after every cold write has validated, so
		// hot txs execute serially in claimed order and commit with ~zero
		// re-executions.
		var round, hot []*types.Transaction
		est := gasUsed
		for est < gasLimit && len(round)+len(hot) < mvRoundCap {
			c, h := b.claim(mvLane, min(mvClaimBatch, mvRoundCap-len(round)-len(hot)))
			if len(c)+len(h) == 0 {
				break
			}
			round, hot = append(round, c...), append(hot, h...)
			for _, tx := range c {
				est += tx.Gas
			}
			for _, tx := range h {
				est += tx.Gas
			}
		}
		hotStart := len(round)
		round = append(round, hot...)
		if len(round) == 0 {
			break
		}
		lo := len(claimed)
		claimed = append(claimed, round...)
		inst.Run(hotStart, b.cfg.Threads)
		inst.Run(len(hot), 1)
		for range hot {
			ctrl.NoteLaneTx()
		}

		// Finalize the round in claimed (index) order.
		cut := -1
		for rel, tx := range round {
			idx := lo + rel
			out := inst.Data(idx).(*mvTxOut)
			if out.err != nil {
				b.reject(mvLane, tx, out.err)
				continue
			}
			if gasUsed+out.receipt.GasUsed > gasLimit {
				// Cut here: idx and everything above may have been read by
				// nothing below it, so the whole tail is evicted together.
				cut = idx
				gasFull = true
				break
			}
			gasUsed += out.receipt.GasUsed
			b.commit(mvLane, committedTx{
				version: types.Version(idx + 1),
				tx:      tx,
				receipt: out.receipt,
				profile: out.profile,
			}, out.fee, out.merged, rel >= hotStart)
		}
		if cut >= 0 {
			for idx := len(claimed) - 1; idx >= cut; idx-- {
				inst.Purge(idx)
			}
			for _, tx := range claimed[cut:] {
				// Leave the tail for the next block (OCC does the same on a
				// filled block), valid or not — the pool re-sorts it.
				trace.Requeue(b.node, mvLane, tx, b.header.Number)
				pool.Requeue(tx)
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

	return b.seal(inst.Flatten(), gasUsed, int(stats.Reexecutions), claimed)
}
