package core

import (
	"cmp"
	"errors"
	"slices"
	"sync"
	"sync/atomic"

	"blockpilot/internal/adaptive"
	"blockpilot/internal/chain"
	"blockpilot/internal/evm"
	"blockpilot/internal/mempool"
	"blockpilot/internal/state"
	"blockpilot/internal/telemetry"
	"blockpilot/internal/trace"
	"blockpilot/internal/types"
	"blockpilot/internal/uint256"
)

// committedTx is one packed transaction awaiting block assembly.
type committedTx struct {
	version types.Version
	tx      *types.Transaction
	receipt *types.Receipt
	profile *types.TxProfile
}

// mvSealOrderHook, when set (tests only), observes the claimed transaction
// list and the sealed block order after every MV propose — the engine-parity
// suite asserts the block preserves the claimed index order.
var mvSealOrderHook func(claimed, sealed []*types.Transaction)

// blockBuild is the one block-building harness under both engines: begin
// (header, spans, the adaptive window roll), claim (pool → engine, with the
// hot set applied once), reject and commit (a claimed transaction's two ways
// out of the engine) and seal (block assembly, finalization credit, state
// commit, header roots). An engine body supplies only what differs: how
// claimed transactions are executed, ordered and retried. Validators, the
// trace recorder and the sim oracles therefore cannot tell the engines
// apart, and Engine stays a clean ablation by construction.
type blockBuild struct {
	parent *state.Snapshot
	pool   *mempool.Pool
	cfg    ProposerConfig // Threads normalized to ≥ 1
	params chain.Params
	header *types.Header
	bc     evm.BlockContext

	tr      *trace.Recorder // nil: no stage events
	sealing trace.Phase     // the whole packing run, begin to seal
	node    int16           // cfg.Node in the installed recorder's node table

	// Contention-adaptive scheduling; all nil/zero with no controller, and
	// every adaptive branch below is then dead — the engine runs stock.
	ctrl    *adaptive.Controller
	credits *adaptive.CreditPool // nil unless the controller merges credits

	retries sync.Map // tx hash → *atomic.Int64 aborts so far
	dropped atomic.Int64

	mu          sync.Mutex // guards everything below
	committed   []committedTx
	fees        uint256.Int
	laneCommits int // commits that came through the serial lane
}

// begin opens a block on top of parent: the header skeleton, the seal phase
// that covers the whole packing run, and — with a controller
// attached — the adaptive window roll and the pool's abort-aware ordering for
// this block. SetAbortAware(false) also restores a pool a previous adaptive
// run left demoting.
func begin(parent *state.Snapshot, parentHeader *types.Header, pool *mempool.Pool,
	cfg ProposerConfig, params chain.Params) *blockBuild {

	if cfg.Threads < 1 {
		cfg.Threads = 1
	}
	if cfg.Node == "" {
		cfg.Node = "proposer"
	}
	header := &types.Header{
		ParentHash: parentHeader.Hash(),
		Number:     parentHeader.Number + 1,
		Coinbase:   cfg.Coinbase,
		GasLimit:   params.GasLimit,
		Time:       cfg.Time,
	}
	b := &blockBuild{
		parent: parent,
		pool:   pool,
		cfg:    cfg,
		params: params,
		header: header,
		bc:     chain.BlockContextFor(header, params.ChainID),
		tr:     trace.Resolve(cfg.Tracer),
		node:   trace.NodeIndex(cfg.Node),
		ctrl:   cfg.Adaptive,
	}
	b.sealing = b.tr.Begin(cfg.Node, trace.StageSeal, header.Number)
	pool.SetAbortAware(b.ctrl != nil && b.ctrl.DemotionEnabled())
	if b.ctrl != nil {
		b.ctrl.BlockStart()
		if b.ctrl.DemotionEnabled() {
			pool.AgeAborts(adaptive.Decay)
		}
		if b.ctrl.MergeEnabled() {
			b.credits = adaptive.NewCreditPool()
		}
	}
	return b
}

// claim pops up to n transactions for the given recorder lane and
// splits them by the controller's hot set — lane traffic in hot, everything
// else in cold, each preserving pop (price) order. The hot set is consulted
// here and nowhere else; with no controller hot is always empty.
func (b *blockBuild) claim(worker, n int) (cold, hot []*types.Transaction) {
	txs := b.pool.PopBatch(n)
	if trace.Active() != nil {
		for _, tx := range txs {
			trace.Pop(b.node, worker, tx, b.header.Number)
		}
	}
	if b.ctrl == nil {
		return txs, nil
	}
	cold = txs[:0]
	for _, tx := range txs {
		if b.ctrl.IsHot(tx) {
			hot = append(hot, tx)
		} else {
			cold = append(cold, tx)
		}
	}
	return cold, hot
}

// reject retires a claimed transaction that failed its validity checks.
func (b *blockBuild) reject(worker int, tx *types.Transaction, err error) {
	if errors.Is(err, chain.ErrNonceTooHigh) {
		// An earlier-nonce tx aborted, was dropped or was cut after this one
		// queued behind it: retry once the chain settles.
		b.requeueOrDrop(worker, tx)
		return
	}
	// Nonce too low / unfunded: permanently invalid here.
	b.drop(worker, tx, false)
}

// requeueOrDrop retries tx unless it has exhausted its abort budget, in which
// case it is dropped for good and counted under both the general drops metric
// and the retry-budget-specific blockpilot_proposer_dropped_total.
func (b *blockBuild) requeueOrDrop(worker int, tx *types.Transaction) {
	counter, _ := b.retries.LoadOrStore(tx.Hash(), new(atomic.Int64))
	if counter.(*atomic.Int64).Add(1) > DefaultMaxRetries {
		b.drop(worker, tx, true)
		return
	}
	telemetry.ProposerRetries.Inc()
	trace.Requeue(b.node, worker, tx, b.header.Number)
	b.pool.Requeue(tx)
}

func (b *blockBuild) drop(worker int, tx *types.Transaction, retryBudget bool) {
	b.pool.Done(tx)
	b.dropped.Add(1)
	telemetry.ProposerDrops.Inc()
	if retryBudget {
		telemetry.ProposerDroppedRetryBudget.Inc()
	}
	trace.Drop(b.node, worker, tx, b.header.Number, retryBudget)
}

// commit records one transaction the engine has made final at serialization
// number c.version. merged folds its value into the credit pool (the engine
// kept the recipient out of its own write set); lane counts it as serial-lane
// traffic.
func (b *blockBuild) commit(worker int, c committedTx, fee *uint256.Int, merged, lane bool) {
	if merged {
		b.credits.Add(c.tx.To, &c.tx.Value)
		b.ctrl.NoteMerge()
	}
	b.mu.Lock()
	b.fees.Add(&b.fees, fee)
	b.committed = append(b.committed, c)
	if lane {
		b.laneCommits++
	}
	b.mu.Unlock()
	b.pool.Done(c.tx)
	telemetry.ProposerCommits.Inc()
	trace.Commit(b.node, worker, c.tx, c.version, b.header.Number)
}

// seal assembles and commits the block from what the engine made final:
// total is the engine store's flattened change set, gasUsed the gas of the
// committed transactions, aborts the engine's conflict count, and claimed —
// MV-STM only — the claim order for mvSealOrderHook.
func (b *blockBuild) seal(total *state.ChangeSet, gasUsed uint64, aborts int, claimed []*types.Transaction) *ProposeResult {
	// Block order is serialization order: commit version under OCC-WSI,
	// claimed index under MV-STM (already ascending there).
	committed := b.committed
	slices.SortFunc(committed, func(x, y committedTx) int { return cmp.Compare(x.version, y.version) })
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
		trace.Seal(b.node, c.tx, c.version, i, b.header.Number)
	}

	// Finalize: aggregate fee + reward credit to the coinbase, then commit.
	// Merged hot-account credits materialize first — over the accumulated
	// block state and into the total change set — so Finalize sees them (the
	// coinbase itself can be hot).
	if b.credits != nil {
		accum := state.NewMemory(b.parent)
		accum.ApplyChangeSet(total)
		b.credits.Materialize(accum, total)
	}
	chain.Finalize(b.parent, total, b.cfg.Coinbase, &b.fees, b.params)

	if b.ctrl != nil {
		occ := 0.0
		if len(committed) > 0 {
			occ = float64(b.laneCommits) / float64(len(committed))
		}
		telemetry.AdaptiveLaneOccupancy.Set(occ)
	}
	telemetry.ProposerBlockTxs.Observe(uint64(len(committed)))
	header := b.header
	chain.SealBody(header, txs, profile, receipts, gasUsed)

	// The state root goes in last: it completes the header, so the block hash
	// both phases are stored under exists right after the state commit they
	// end on. The hash is only computed with a recorder.
	stateCommit := b.tr.Begin(b.cfg.Node, trace.StageStateCommit, header.Number)
	postState, stateRoot := chain.CommitAndRoot(b.parent, total, b.params, header.Number)
	header.StateRoot = stateRoot
	blk := &types.Block{Header: *header, Txs: txs, Profile: profile}
	var bh types.Hash
	if b.tr != nil {
		bh = blk.Hash()
	}
	stateCommit.End(bh)
	b.sealing.End(bh)
	if mvSealOrderHook != nil && claimed != nil {
		mvSealOrderHook(claimed, txs)
	}

	return &ProposeResult{
		Block:     blk,
		Receipts:  receipts,
		State:     postState,
		GasUsed:   gasUsed,
		Committed: len(committed),
		Aborts:    aborts,
		Dropped:   int(b.dropped.Load()),
	}
}

// mergeableCredit reports whether the executed tx is a pure balance credit
// to a hot account whose effect can ride the commutative credit pool instead
// of the engine's conflict detection (the engine then keeps the recipient out
// of what it publishes and passes merged=true to commit if the tx lands):
// a plain transfer — no calldata, no create, no self-send, nonzero value —
// to a code-free recipient whose only executed change is balance += value
// with the nonce untouched. The shape is checked against the actual change
// set, not inferred from the transaction: anything the execution did beyond
// the plain credit disqualifies it. Balance addition commutes and the
// sender-side funds check only ever sees a balance ≥ the merged-out true
// value, so folding the credits and materializing the sum once at seal is
// final-state-equivalent to any serial interleaving — the same argument
// that already backs the per-block coinbase fee aggregation (DESIGN.md §4).
func (b *blockBuild) mergeableCredit(view state.Reader, tx *types.Transaction, cs *state.ChangeSet) bool {
	if b.credits == nil || tx.CreateContract || len(tx.Data) != 0 || tx.To == tx.From || tx.Value.IsZero() {
		return false
	}
	if !b.ctrl.HotAccount(tx.To) {
		return false
	}
	chg := cs.Account(tx.To)
	if chg == nil || chg.CodeSet || len(chg.Slots) != 0 {
		return false
	}
	to, _ := view.Account(tx.To)
	if to.HasCode() || chg.Nonce != to.Nonce {
		return false
	}
	want := to.Balance
	want.Add(&want, &tx.Value)
	return want.Eq(&chg.Balance)
}
